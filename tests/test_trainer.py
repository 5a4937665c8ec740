"""Training loop behavior: optimizer, history, variants, determinism."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from textda import autodiff as ad
from textda.autodiff import Tape
from textda.config import TrainConfig
from textda.data import (
    BatchTriple,
    Corpus,
    Document,
    build_vocab,
    load_pretrained_embeddings,
    pad_batch,
    split_dev,
)
from textda.errors import ConfigError, NumericalError
from textda.losses import (
    bootstrap_loss,
    compose_total,
    entropy_min_loss,
    feature_adaptation_loss,
    median_heuristic_sigma,
    mmd_rbf,
    rampup_weight,
    source_cross_entropy,
)
from textda.model import classify, encode_batch, init_params
from textda.rng import named_rng
from textda.synth import SyntheticSpec, generate_synthetic
from textda.trainer import (
    CSV_COLUMNS,
    EpochMetrics,
    History,
    Pools,
    RMSProp,
    objective,
    select_model,
    train,
    write_history_csv,
)

TINY = dict(
    lambda1=1.0, lambda2=0.1, lambda3=1.0, alpha=0.5, epochs=2, batch_size=10,
    hidden=8, embedding_dim=6, vocab_size=200, n_dev=12, dropout_rate=0.5,
    learning_rate=1e-3, max_doc_len=50, seed=0,
)


def _tiny_data():
    spec = SyntheticSpec(n_train=60, n_test=30, shift=0.7, seed=5,
                         len_min=6, len_max=12)
    corpora = generate_synthetic(spec)
    return corpora["source_labeled"], corpora["target_unlabeled"], corpora["target_test"]


def _run(config, source=None, target=None):
    if source is None:
        source, target, _ = _tiny_data()
    vocab = build_vocab([source, target], config.vocab_size)
    train_split, dev = split_dev(source, config.n_dev, named_rng(config.seed, "split"))
    embeddings, _ = load_pretrained_embeddings(
        None, vocab, config.embedding_dim, named_rng(config.seed, "embeddings"))
    return train(config, vocab, embeddings, train_split, target, dev)


# ------------------------------------------------------------------- RMSProp


def test_rmsprop_first_step_oracle():
    # s = 0.1 g^2; step = -lr g / (sqrt(0.1) |g| + eps) for the first update
    w = np.array([0.0])
    opt = RMSProp({"w": w}, lr=5e-4)
    opt.step({"w": w}, {"w": np.array([1.0])})
    want = -5e-4 / (math.sqrt(0.1) + 1e-8)
    assert abs(w[0] - want) < 1e-15
    assert abs(w[0] - (-0.0015811)) < 1e-7
    # second step accumulates: s = 0.9 * 0.1 + 0.1 * 1 = 0.19
    opt.step({"w": w}, {"w": np.array([1.0])})
    want2 = want - 5e-4 / (math.sqrt(0.19) + 1e-8)
    assert abs(w[0] - want2) < 1e-15


def test_rmsprop_validates_settings():
    w = {"w": np.zeros(1)}
    with pytest.raises(ConfigError):
        RMSProp(w, lr=0.0)


# ------------------------------------------------------------------ selection


def test_select_model_earliest_minimum():
    history = History()
    for i, err in enumerate([0.5, 0.3, 0.3, 0.4], start=1):
        history.epochs.append(EpochMetrics(i, 0, 0, 0, 0, 0, 0, err, 0))
    assert select_model(history) == 2
    with pytest.raises(ConfigError):
        select_model(History())


# ---------------------------------------------------------------- history CSV


def test_history_columns_are_the_epoch_metrics_fields_in_order():
    assert CSV_COLUMNS == ("epoch", "L", "J", "Gamma", "Omega", "w_t", "total", "dev_error", "seconds")


def test_history_csv_round_trip_exact(tmp_path):
    history = History()
    history.epochs.append(EpochMetrics(
        epoch=1, L=1.0986122886681098, J=0.27465307216702745, Gamma=1.05,
        Omega=0.9, w_t=0.020213840997332922, total=3.3333333333333335,
        dev_error=1.0 / 3.0, seconds=0.123456,
    ))
    history.epochs.append(EpochMetrics(2, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    assert tuple(header) == CSV_COLUMNS and len(rows) == 2
    for m, row in zip(history.epochs, rows):
        assert len(row) == len(CSV_COLUMNS) and int(row[0]) == m.epoch
        for name, field in zip(CSV_COLUMNS[1:], row[1:]):
            assert float(field) == getattr(m, name)


# ------------------------------------------------------------------ objective


def _pools(vocab, source, target, config):
    """train's pools of a source and a target corpus: the union, source
    then target, packed, the source and the union starting at its first
    document."""
    ids, lengths = vocab.encode([d.tokens for c in (source, target) for d in c], config.max_doc_len)
    return Pools(ids, lengths, first=(0, len(source), 0))


@pytest.mark.parametrize("variant", ["MMD-baseline", "FANN"])
def test_objective_takes_J_distance_from_the_variant(variant):
    config = dataclasses.replace(TrainConfig(**TINY), variant=variant, mmd_sigma=1.0, dropout_rate=0.0)
    source, target, _ = _tiny_data()
    vocab = build_vocab([source, target], config.vocab_size)
    pools = _pools(vocab, source, target, config)
    embeddings, _ = load_pretrained_embeddings(None, vocab, config.embedding_dim, named_rng(0, "e"))
    params = init_params(embeddings, config.window, config.hidden, named_rng(0, "init"))
    batch = BatchTriple(np.arange(10), np.arange(10, 20), np.arange(10))
    onehot = np.eye(3)[source.label_indices()]
    tape = Tape()
    leaves = params.leaves(tape)
    _, breakdown, terms = objective(tape, leaves, pools, batch, onehot, None,
                                    config.effective_weights(), 0.0, config, None)

    def encode(first, idx):
        return encode_batch(tape, leaves, *pad_batch(pools.ids, pools.starts, pools.lengths, first + idx)).xi

    xi_s, xi_t = encode(pools.first[0], batch.source_idx), encode(pools.first[1], batch.target_idx)
    mmd = float(mmd_rbf(xi_s, xi_t, 1.0).data)
    kl = float(feature_adaptation_loss(xi_s, xi_t).data)
    assert mmd != kl
    assert float(terms["J"].data) == breakdown.J == (mmd if variant == "MMD-baseline" else kl)


class _RecordedDraws:
    """A Generator stand-in for dropout that keeps every uniform draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, shape):
        self.draws.append(self._rng.random(shape))
        return self.draws[-1]


def _objective_per_part(tape, leaves, pools, batch, labels, targets, weights, w_t, config, rng):
    """The objective with one encode per part (source, target, union), in
    that order: the reference that objective's single encode must match."""
    first_s, first_t, first_u = pools.first

    def encode(first, idx):
        mat, lengths = pad_batch(pools.ids, pools.starts, pools.lengths, first + idx)
        return encode_batch(tape, leaves, mat, lengths, config.dropout_rate, rng).xi

    xi_s = encode(first_s, batch.source_idx)
    L = source_cross_entropy(labels[batch.source_idx], classify(tape, leaves, xi_s))
    J = Gamma = Omega = None
    if weights.lambda1 > 0.0 or weights.lambda2 > 0.0:
        xi_t = encode(first_t, batch.target_idx)
        if weights.lambda1 > 0.0:
            if config.variant == "MMD-baseline":
                J = mmd_rbf(xi_s, xi_t, median_heuristic_sigma(xi_s.data, xi_t.data))
            else:
                J = feature_adaptation_loss(xi_s, xi_t)
        if weights.lambda2 > 0.0:
            Gamma = entropy_min_loss(classify(tape, leaves, xi_t))
    if weights.lambda3 > 0.0 and targets is not None:
        xi_u = encode(first_u, batch.union_idx)
        Omega = bootstrap_loss(targets[batch.union_idx], classify(tape, leaves, xi_u))
    total = compose_total(L, J, Gamma, Omega, weights, w_t)[0]
    return total, {"L": L, "J": J, "Gamma": Gamma, "Omega": Omega}


@pytest.mark.parametrize("variant, with_targets, n_parts", [
    ("NaiveNN", True, 1), ("DAS", False, 2), ("DAS", True, 3), ("FANN", False, 2), ("MMD-baseline", False, 2),
])
def test_objective_encodes_all_parts_at_once_like_one_encode_per_part(monkeypatch, variant, with_targets, n_parts):
    config = TrainConfig(variant=variant, **TINY)  # dropout 0.5
    source, target, _ = _tiny_data()
    vocab = build_vocab([source, target], config.vocab_size)
    pools = _pools(vocab, source, target, config)
    embeddings, _ = load_pretrained_embeddings(None, vocab, config.embedding_dim, named_rng(0, "e"))
    params = init_params(embeddings, config.window, config.hidden, named_rng(0, "init"))
    batch = BatchTriple(np.arange(10), np.arange(5, 15), np.arange(40, 50))
    onehot = np.eye(3)[source.label_indices()]
    targets = np.eye(3)[np.arange(len(pools.lengths)) % 3] if with_targets else None
    weights = config.effective_weights()

    def run(fn):
        tape = Tape()
        leaves = params.leaves(tape)
        rng = _RecordedDraws(7)
        total, *rest = fn(tape, leaves, pools, batch, onehot, targets, weights, 0.5, config, rng)
        tape.backward(total)
        return rest[-1], {name: leaf.grad for name, leaf in leaves.items()}, rng.draws

    calls = []
    real = ad.conv_max_pool
    monkeypatch.setattr(ad, "conv_max_pool", lambda *a: calls.append(1) or real(*a))
    terms, grads, draws = run(objective)
    assert len(calls) == 1 and len(draws) == 1
    calls.clear()
    ref_terms, ref_grads, ref_draws = run(_objective_per_part)
    assert len(calls) == len(ref_draws) == n_parts

    # one [B_total, h] draw drops exactly the positions the per-part draws drop
    assert np.array_equal(draws[0] < config.dropout_rate, np.concatenate(ref_draws) < config.dropout_rate)
    for name, ref in ref_terms.items():
        assert (terms[name] is None) == (ref is None), name
        if ref is not None:
            assert abs(float(terms[name].data) - float(ref.data)) <= 1e-12 * abs(float(ref.data)), name
    for name, ref in ref_grads.items():
        assert np.linalg.norm(grads[name] - ref) <= 1e-12 * np.linalg.norm(ref), name


TRAIN_TWICE = """
import resource, sys
from textda.config import TrainConfig
from textda.data import build_vocab, load_pretrained_embeddings, split_dev
from textda.rng import named_rng
from textda.synth import SyntheticSpec, generate_synthetic
from textda.trainer import train

# the benchmark's desk-das shape: d=24, h=96, V=502, B=50, three epochs
corpora = generate_synthetic(SyntheticSpec(n_train=2000, n_test=10, shift=0.7, len_min=8, len_max=30,
                                           filler_per_domain=250, seed=1))
config = TrainConfig(variant="DAS", lambda1=10.0, lambda2=0.1, lambda3=3.0, alpha=0.5, epochs=3,
                     batch_size=50, hidden=96, embedding_dim=24, vocab_size=500, n_dev=250,
                     dropout_rate=0.3, learning_rate=1e-3, seed=1)
source, target = corpora["source_labeled"], corpora["target_unlabeled"]
vocab = build_vocab([source, target], config.vocab_size)
train_split, dev = split_dev(source, config.n_dev, named_rng(1, "split"))
embeddings, _ = load_pretrained_embeddings(None, vocab, config.embedding_dim, named_rng(1, "embeddings"))
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(config, vocab, embeddings, train_split, target, dev)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""

# Minor page faults of a second desk-das train() call. How many a call
# takes depends on the heap's layout, which the code around the calls
# changes: in this script and variants of it the per-slot bincounts of
# conv_max_pool's backward took 42-22,698, one encode per part 558-10,753,
# and one bincount over [n_docs, h, l] bins for the whole merged batch
# 139,427-151,215 (its temporaries are large enough that the allocator hands
# them back to the system and faults them in again on every step). The
# bound sits between them, more than 2x from either side.
SECOND_TRAIN_MAX_FAULTS = 50_000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts are measured on Linux")
def test_training_steps_do_not_refault_the_heap():
    env = {**os.environ, "PYTHONPATH": str(Path(ad.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", TRAIN_TWICE], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    faults = int(done.stdout.split()[-1])
    assert faults <= SECOND_TRAIN_MAX_FAULTS, f"second train() call took {faults} minor page faults"


# -------------------------------------------------------------- training runs


def test_train_history_shape_and_recomposition():
    config = TrainConfig(variant="DAS", **TINY)
    params, history = _run(config)
    assert len(history.epochs) == config.epochs
    assert 1 <= history.best_epoch <= config.epochs
    weights = config.effective_weights()
    for i, m in enumerate(history.epochs, start=1):
        assert m.epoch == i
        assert m.w_t == rampup_weight(i, config.epochs, weights.lambda3)
        # logged total recomposes bit for bit from the logged components
        assert m.total == ((m.L + weights.lambda1 * m.J)
                           + weights.lambda2 * m.Gamma) + m.w_t * m.Omega
        assert m.seconds >= 0.0 and math.isfinite(m.dev_error)


def test_bootstrap_skipped_in_first_epoch_by_default():
    config = TrainConfig(variant="DAS", **TINY)
    _, history = _run(config)
    assert history.epochs[0].Omega == 0.0
    assert history.epochs[1].Omega != 0.0


def test_inactive_components_log_exact_zeros():
    config = TrainConfig(variant="FANN", **TINY)
    _, history = _run(config)
    for m in history.epochs:
        assert m.Gamma == 0.0 and m.Omega == 0.0 and m.w_t == 0.0
        assert m.J != 0.0
    config = TrainConfig(variant="NaiveNN", **TINY)
    _, history = _run(config)
    for m in history.epochs:
        assert m.J == 0.0 and m.Gamma == 0.0 and m.Omega == 0.0
        assert m.total == m.L


def test_zero_weights_reduce_to_naive_variant_bitwise():
    overrides = {**TINY, "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0}
    params_das, hist_das = _run(TrainConfig(variant="DAS", **overrides))
    params_naive, hist_naive = _run(TrainConfig(variant="NaiveNN", **TINY))
    for name, arr in params_das.arrays().items():
        assert arr.tobytes() == params_naive.arrays()[name].tobytes()
    for a, b in zip(hist_das.epochs, hist_naive.epochs):
        for name in CSV_COLUMNS:
            if name != "seconds":
                assert getattr(a, name) == getattr(b, name)


def test_same_seed_runs_are_identical():
    config = TrainConfig(variant="DAS", **TINY)
    params1, hist1 = _run(config)
    params2, hist2 = _run(config)
    for name, arr in params1.arrays().items():
        assert arr.tobytes() == params2.arrays()[name].tobytes()
    for a, b in zip(hist1.epochs, hist2.epochs):
        for name in CSV_COLUMNS:
            if name != "seconds":
                assert getattr(a, name) == getattr(b, name)


def test_target_labels_are_never_read():
    source, target, _ = _tiny_data()
    stripped = Corpus(
        [Document(d.tokens, None, None) for d in target.docs],
        target.domain,
    )
    config = TrainConfig(variant="DAS", **TINY)
    params1, _ = _run(config, source, target)
    params2, _ = _run(config, source, stripped)
    for name, arr in params1.arrays().items():
        assert arr.tobytes() == params2.arrays()[name].tobytes()


def test_union_pool_includes_unlabeled_source(tmp_path):
    source, target, _ = _tiny_data()
    config = TrainConfig(variant="DAS", **TINY)
    vocab = build_vocab([source, target], config.vocab_size)
    train_split, dev = split_dev(source, config.n_dev, named_rng(config.seed, "split"))
    embeddings, _ = load_pretrained_embeddings(
        None, vocab, config.embedding_dim, named_rng(config.seed, "embeddings"))
    extra = Corpus(list(source.docs[:20]), source.domain)
    params, history = train(config, vocab, embeddings, train_split, target, dev,
                            source_unlabeled=extra, dump_ensemble_dir=tmp_path)
    assert len(history.epochs) == config.epochs
    Z = np.load(tmp_path / f"ensemble_epoch{config.epochs:03d}.npy")
    assert Z.shape == (len(train_split) + len(target) + len(extra), 3)


def test_ensemble_dump_writes_epoch_files(tmp_path):
    source, target, _ = _tiny_data()
    config = TrainConfig(variant="DAS", **TINY)
    vocab = build_vocab([source, target], config.vocab_size)
    train_split, dev = split_dev(source, config.n_dev, named_rng(config.seed, "split"))
    embeddings, _ = load_pretrained_embeddings(
        None, vocab, config.embedding_dim, named_rng(config.seed, "embeddings"))
    train(config, vocab, embeddings, train_split, target, dev,
          dump_ensemble_dir=tmp_path)
    files = sorted(p.name for p in tmp_path.glob("ensemble_epoch*.npy"))
    assert files == ["ensemble_epoch001.npy", "ensemble_epoch002.npy"]
    Z = np.load(tmp_path / "ensemble_epoch002.npy")
    assert Z.shape == (len(train_split) + len(target), 3)
    assert np.all(np.isfinite(Z))


def test_divergence_guard_names_epoch_and_component():
    config = TrainConfig(variant="DAS", **{**TINY, "learning_rate": 1e8, "epochs": 1})
    with pytest.raises(NumericalError, match="diverged at epoch 1"):
        _run(config)


def test_non_finite_parameter_after_step_names_epoch_iteration_and_parameter(monkeypatch):
    real_step = RMSProp.step
    calls = []

    def nan_on_second_step(self, arrays, grads):
        calls.append(1)
        if len(calls) == 2:
            grads["W"][0, 0] = np.nan
        return real_step(self, arrays, grads)

    monkeypatch.setattr(RMSProp, "step", nan_on_second_step)
    config = TrainConfig(variant="DAS", **{**TINY, "epochs": 1})
    with pytest.raises(NumericalError, match="epoch 1, iteration 2: parameter W is not finite"):
        _run(config)
