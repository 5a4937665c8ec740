"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Each test prints `criterion N (<name>): PASS|FAIL` plus the measured numbers,
then asserts. Tolerances are pinned inline next to each check. Criterion 9
needs externally supplied corpora and runs only when TEXTDA_BENCHMARK_DIR is
set.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import textda.autodiff as ad
from textda.cli import main
from textda.config import TrainConfig
from textda.data import (
    Corpus,
    Document,
    Vocab,
    build_vocab,
    load_corpus,
    load_pretrained_embeddings,
    split_dev,
)
from textda.ensemble import EnsembleState, predict_all
from textda.evaluation import evaluate_corpus, filter_analysis
from textda.losses import entropy_min_loss, mmd_rbf, rampup_weight, symmetric_kl
from textda.model import ModelParams, init_params, load_checkpoint
from textda.rng import named_rng
from textda.synth import SyntheticSpec, generate_synthetic
from textda.trainer import CSV_COLUMNS, run_multi_seed, train

# Desk-scale experiment configuration for criteria 4 and 5. The task fixture
# is pinned (shift, sizes, draw seed) so the experiment is reproducible; the
# training seeds are DESK["seed"] + 0..4.
DESK = dict(
    lambda1=10.0, lambda2=0.1, lambda3=3.0, alpha=0.5, epochs=18,
    batch_size=50, hidden=96, embedding_dim=24, vocab_size=500, n_dev=250,
    dropout_rate=0.3, learning_rate=1e-3, seed=100,
)
DESK_SPEC = dict(n_train=2000, n_test=1000, shift=0.7, seed=11)
N_SEEDS = 5


def _ppmi_svd_embeddings(corpora, vocab, dim, window=2):
    """Low-rank embeddings from corpus co-occurrence: positive pointwise
    mutual information over a +-window context, factored by truncated SVD.
    Anchors tokens that appear in similar contexts near each other, which is
    what a pretrained-embedding file provides at full scale."""
    V = len(vocab)
    counts = np.zeros((V, V))
    for corpus in corpora:
        for doc in corpus:
            ids = vocab.encode(doc.tokens, max_len=10**6)
            for k in range(1, window + 1):
                if len(ids) > k:
                    a, b = ids[:-k], ids[k:]
                    np.add.at(counts, (a, b), 1.0)
                    np.add.at(counts, (b, a), 1.0)
    total = counts.sum()
    pw = counts.sum(axis=1, keepdims=True)
    pc = counts.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(counts * total / (pw * pc))
    ppmi = np.where(np.isfinite(pmi) & (pmi > 0.0), pmi, 0.0)
    U, S, _ = np.linalg.svd(ppmi, full_matrices=False)
    E = U[:, :dim] * np.sqrt(S[:dim])
    E *= 0.25 / np.abs(E).max()
    return E


def _write_embedding_file(path, vocab, E):
    with open(path, "w", encoding="utf-8") as f:
        for i in range(2, len(vocab)):
            vec = " ".join(repr(float(x)) for x in E[i])
            f.write(f"{vocab.itos[i]} {vec}\n")


def _report(n: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {n} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def _tiny_pair(seed=5):
    spec = SyntheticSpec(n_train=60, n_test=30, shift=0.7, seed=seed,
                         len_min=6, len_max=12)
    corpora = generate_synthetic(spec)
    return corpora["source_labeled"], corpora["target_unlabeled"], corpora["target_test"]


def _train_tiny(config, source, target):
    vocab = build_vocab([source, target], config.vocab_size)
    train_split, dev = split_dev(source, config.n_dev, named_rng(config.seed, "split"))
    embeddings, _ = load_pretrained_embeddings(
        None, vocab, config.embedding_dim, named_rng(config.seed, "embeddings"))
    return train(config, vocab, embeddings, train_split, target, dev)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.monotonic()
    code = main(["gradcheck"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    ok = code == 0 and elapsed < 30.0
    with capsys.disabled():
        _report(1, "gradient correctness", ok, f"exit {code}, {elapsed:.1f}s < 30s")
    assert code == 0, out
    assert elapsed < 30.0
    for component in ("L", "J", "Gamma", "Omega", "MMD", "total"):
        assert f"{component:6s} PASS" in out


# --------------------------------------------------------------- criterion 2


def test_criterion_2_closed_form_loss_values(capsys):
    tape = ad.Tape()
    skl = symmetric_kl(
        tape.leaf(np.array([0.5, 0.5])), tape.leaf(np.array([0.25, 0.75]))
    ).data.item()
    ent = entropy_min_loss(tape.leaf(np.zeros((4, 3)))).data.item()
    mmd = mmd_rbf(
        tape.leaf(np.array([[0.0]])), tape.leaf(np.array([[1.0]])), sigma=1.0
    ).data.item()
    w_top = rampup_weight(30, 30, 3.0)
    w_low = rampup_weight(1, 10**9, 3.0)
    checks = [
        ("symmetric_kl", abs(skl - 0.2747) < 1e-4),
        ("uniform entropy", abs(ent - math.log(3.0)) < 1e-4),
        ("mmd", abs(mmd - 0.7869) < 1e-4),
        ("ramp at t_max", w_top == 3.0),
        ("ramp toward 0", abs(w_low - 3.0 * math.exp(-5.0)) < 1e-9),
    ]
    ok = all(flag for _, flag in checks)
    with capsys.disabled():
        _report(2, "closed-form loss values", ok,
                f"skl={skl:.6f} ent={ent:.6f} mmd={mmd:.6f} w(t_max)={w_top} w0={w_low:.9f}")
    for name, flag in checks:
        assert flag, name


# --------------------------------------------------------------- criterion 3


def test_criterion_3_reduction_identity(capsys):
    source, target, _ = _tiny_pair()
    shared = dict(epochs=2, batch_size=10, hidden=8, embedding_dim=6,
                  vocab_size=200, n_dev=12, learning_rate=1e-3, max_doc_len=50,
                  seed=0, lambda2=1.0, lambda3=3.0)
    das = TrainConfig(variant="DAS", lambda1=0.0,
                      **{**shared, "lambda2": 0.0, "lambda3": 0.0})
    naive = TrainConfig(variant="NaiveNN", lambda1=200.0, **shared)
    params_das, hist_das = _train_tiny(das, source, target)
    params_naive, hist_naive = _train_tiny(naive, source, target)
    params_equal = all(
        params_das.arrays()[name].tobytes() == params_naive.arrays()[name].tobytes()
        for name in params_das.arrays()
    )
    metrics_equal = all(
        getattr(a, col) == getattr(b, col)
        for a, b in zip(hist_das.epochs, hist_naive.epochs)
        for col in CSV_COLUMNS if col != "seconds"
    )
    ok = params_equal and metrics_equal
    with capsys.disabled():
        _report(3, "reduction identity", ok,
                f"params bitwise equal: {params_equal}, metrics equal: {metrics_equal}")
    assert params_equal
    assert metrics_equal


# --------------------------------------------------------------- criterion 4


def test_criterion_4_synthetic_adaptation_ordering(tmp_path, capsys):
    t0 = time.monotonic()
    corpora = generate_synthetic(SyntheticSpec(**DESK_SPEC))
    source, target = corpora["source_labeled"], corpora["target_unlabeled"]
    test = corpora["target_test"]
    # pretrained-style embeddings from the task's own unlabeled text,
    # shared by every variant
    vocab = build_vocab([source, target], DESK["vocab_size"])
    emb = _ppmi_svd_embeddings([source, target], vocab, DESK["embedding_dim"])
    emb_path = tmp_path / "embeddings.txt"
    _write_embedding_file(emb_path, vocab, emb)
    acc = {}
    for variant in ("NaiveNN", "FANN", "DAS"):
        results = run_multi_seed(TrainConfig(variant=variant, **DESK),
                                 source, target, test, n_runs=N_SEEDS,
                                 embeddings_path=emb_path)
        acc[variant] = np.array([r.accuracy for r in results])
    elapsed = time.monotonic() - t0
    p = scipy_stats.ttest_ind(acc["DAS"], acc["NaiveNN"], equal_var=False, alternative="greater").pvalue
    margin_naive = acc["DAS"].mean() - acc["NaiveNN"].mean()
    margin_fann = acc["DAS"].mean() - acc["FANN"].mean()
    checks = [
        ("DAS >= NaiveNN + 5 points", margin_naive >= 0.05),
        ("DAS >= FANN + 2 points", margin_fann >= 0.02),
        ("welch p < 0.05", p < 0.05),
        ("runtime < 10 min", elapsed < 600.0),
    ]
    ok = all(flag for _, flag in checks)
    with capsys.disabled():
        _report(4, "synthetic adaptation ordering", ok,
                f"DAS={acc['DAS'].mean():.4f} FANN={acc['FANN'].mean():.4f} "
                f"NaiveNN={acc['NaiveNN'].mean():.4f} p={p:.4f} {elapsed:.0f}s")
    for name, flag in checks:
        assert flag, name


# --------------------------------------------------------------- criterion 5


def test_criterion_5_entropy_alone_fails_at_full_shift(capsys):
    spec = SyntheticSpec(n_train=2000, n_test=1000, shift=1.0, seed=11)
    corpora = generate_synthetic(spec)
    config = TrainConfig(variant="DAS-EM", **{**DESK, "lambda1": 0.0, "epochs": 10})
    results = run_multi_seed(config, corpora["source_labeled"],
                             corpora["target_unlabeled"], corpora["target_test"],
                             n_runs=N_SEEDS)
    accs = np.array([r.accuracy for r in results])
    chance = 1.0 / 3.0
    ok = accs.mean() <= chance + 0.10
    with capsys.disabled():
        _report(5, "entropy alone fails at full shift", ok,
                f"mean target accuracy {accs.mean():.4f} <= {chance + 0.10:.4f}")
    assert ok, accs


# --------------------------------------------------------------- criterion 6


def test_criterion_6_ensemble_algebra(capsys):
    rng = np.random.default_rng(0)
    P = rng.random((40, 3))
    P /= P.sum(axis=1, keepdims=True)
    alpha = 0.5
    state = EnsembleState.zeros(40, 3, alpha=alpha)
    series_ok = True
    for k in range(1, 11):
        state.update(P)
        series_ok &= bool(np.max(np.abs(state.Z - (1.0 - alpha**k) * P)) < 1e-12)

    params = init_params(
        named_rng(2, "embeddings").uniform(-0.25, 0.25, size=(30, 6)),
        window=3, hidden=8, rng=named_rng(2, "init"))
    docs = [named_rng(3, "synth").integers(2, 30, size=n) for n in (5, 9, 4, 7, 6)]
    model_preds = predict_all(params, docs)
    first = EnsembleState.zeros(len(docs), 3, alpha=alpha)
    first.update(model_preds)
    argmax_ok = bool(np.array_equal(
        first.to_targets().argmax(axis=1), model_preds.argmax(axis=1)))
    ok = series_ok and argmax_ok
    with capsys.disabled():
        _report(6, "ensemble algebra", ok,
                f"geometric series within 1e-12: {series_ok}, "
                f"first-epoch targets = model argmax: {argmax_ok}")
    assert series_ok
    assert argmax_ok


# --------------------------------------------------------------- criterion 7


def _mask_seconds(csv_text: str) -> str:
    lines = csv_text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[-1] = "-"
        out.append(",".join(parts))
    return "\n".join(out)


def test_criterion_7_determinism(tmp_path, capsys):
    task = tmp_path / "task"
    assert main(["synth", "--out", str(task), "--train-docs", "60",
                 "--test-docs", "20", "--seed", "4", "--len-min", "6",
                 "--len-max", "12"]) == 0
    conf = tmp_path / "tiny.conf"
    conf.write_text(
        "epochs = 2\nbatch_size = 10\nhidden = 8\nembedding_dim = 6\n"
        "vocab_size = 200\nn_dev = 12\nlearning_rate = 0.001\nmax_doc_len = 50\n"
        "lambda1 = 1.0\nlambda2 = 0.1\nlambda3 = 1.0\n",
        encoding="utf-8",
    )
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["train", "--config", str(conf), "--out", str(out), "--seed", "9",
                     "--source", str(task / "source_labeled.jsonl"),
                     "--target", str(task / "target_unlabeled.jsonl")])
        assert code == 0
        outputs.append(out)
    ckpt_a = (outputs[0] / "model.ckpt").read_bytes()
    ckpt_b = (outputs[1] / "model.ckpt").read_bytes()
    hist_a = (outputs[0] / "history.csv").read_text(encoding="utf-8")
    hist_b = (outputs[1] / "history.csv").read_text(encoding="utf-8")
    ckpt_ok = ckpt_a == ckpt_b
    # wall-clock seconds is the one column that legitimately differs
    hist_ok = _mask_seconds(hist_a) == _mask_seconds(hist_b)
    ok = ckpt_ok and hist_ok
    with capsys.disabled():
        _report(7, "determinism", ok,
                f"checkpoint byte-identical: {ckpt_ok}, history identical "
                f"(seconds masked): {hist_ok}")
    assert ckpt_ok
    assert hist_ok


# --------------------------------------------------------------- criterion 8


def test_criterion_8_filter_analysis_recovers_planted_trigram(capsys):
    # corpus with one window whose activation towers over everything else
    vocab = Vocab(itos=["<pad>", "<unk>", "calm", "dull", "stellar", "superb",
                        "wow", "meh", "blah"])
    docs = [
        Document(("calm", "dull", "meh", "blah"), "neutral", None),
        Document(("dull", "blah", "stellar", "superb", "wow", "meh"), "positive", None),
        Document(("meh", "calm", "blah", "dull"), "neutral", None),
    ]
    corpus = Corpus(docs, "d")
    rng = named_rng(8, "init")
    E = rng.uniform(-0.2, 0.2, size=(len(vocab), 4))
    E[0] = 0.0
    # filter 2 fires hard on the embedding pattern of (stellar, superb, wow)
    W = rng.uniform(-0.2, 0.2, size=(6, 12))
    planted = np.concatenate([E[vocab.stoi["stellar"]], E[vocab.stoi["superb"]],
                              E[vocab.stoi["wow"]]])
    W[2] = 10.0 * planted / np.dot(planted, planted)
    F_w = rng.uniform(-0.2, 0.2, size=(3, 6))
    F_w[2, 2] = 5.0  # filter 2 is the top positive filter
    params = ModelParams(E=E, W=W, b=np.zeros(6), F_w=F_w, F_b=np.zeros(3), window=3)

    # independent oracle: brute-force scan of every window position
    best_act, best_triple = -np.inf, None
    for doc in docs:
        ids = vocab.encode(doc.tokens, max_len=50)
        padded = np.concatenate([[0], ids, [0]])
        for i in range(len(ids)):
            x = np.concatenate([E[padded[i]], E[padded[i + 1]], E[padded[i + 2]]])
            act = max(0.0, float(W[2] @ x))
            if act > best_act:
                best_act = act
                center = [padded[i], padded[i + 1], padded[i + 2]]
                best_triple = tuple("*" if t == 0 else vocab.itos[t] for t in center)

    report = filter_analysis(params, vocab, [corpus], k_filters=1, k_trigrams=3)
    top_summary = report.classes["positive"][0]
    hit = top_summary.trigrams[0]
    filter_ok = top_summary.filter == 2
    triple_ok = hit.tokens == best_triple == ("stellar", "superb", "wow")
    act_ok = abs(hit.activation - best_act) < 1e-9
    ok = filter_ok and triple_ok and act_ok
    with capsys.disabled():
        _report(8, "filter analysis recovers planted trigram", ok,
                f"rank-1 {'-'.join(hit.tokens)} activation {hit.activation:.3f} "
                f"vs oracle {'-'.join(best_triple)} {best_act:.3f}")
    assert filter_ok
    assert triple_ok
    assert act_ok


# --------------------------------------------------------------- criterion 9


BENCHMARK_ENV = "TEXTDA_BENCHMARK_DIR"


@pytest.mark.skipif(BENCHMARK_ENV not in os.environ,
                    reason="full-scale benchmark corpora not supplied "
                           f"(set {BENCHMARK_ENV} to run)")
def test_criterion_9_full_scale_benchmark(capsys):
    """Optional full-scale check against user-supplied corpora.

    Layout: $TEXTDA_BENCHMARK_DIR/<task>/{source_labeled,target_unlabeled,
    target_test}.jsonl for each of 12 tasks, plus embeddings.txt (300-d).
    Each task trains DAS and NaiveNN with the package defaults and the run
    is judged on the 12-task average accuracy.
    """
    root = Path(os.environ[BENCHMARK_ENV])
    task_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    assert len(task_dirs) == 12, f"expected 12 task directories, found {len(task_dirs)}"
    embeddings_path = root / "embeddings.txt"
    assert embeddings_path.is_file(), "embeddings.txt missing"
    das_accs, naive_accs = [], []
    for task_dir in task_dirs:
        source = load_corpus(task_dir / "source_labeled.jsonl", "source")
        target = load_corpus(task_dir / "target_unlabeled.jsonl", "target")
        test = load_corpus(task_dir / "target_test.jsonl", "target")
        for variant, bucket in (("DAS", das_accs), ("NaiveNN", naive_accs)):
            results = run_multi_seed(TrainConfig(variant=variant), source, target,
                                     test, n_runs=1, embeddings_path=embeddings_path)
            bucket.append(results[0].accuracy)
    das_avg = 100.0 * float(np.mean(das_accs))
    naive_avg = 100.0 * float(np.mean(naive_accs))
    within = abs(das_avg - 60.24) <= 2.0
    above = das_avg > naive_avg
    ok = within and above
    with capsys.disabled():
        _report(9, "full-scale benchmark", ok,
                f"DAS 12-task average {das_avg:.2f} (target 60.24 +- 2.0), "
                f"NaiveNN {naive_avg:.2f}")
    assert within
    assert above
