"""Joint training loop.

Every iteration draws a labeled source batch, a target batch, and a batch of
the union of all N training documents, then minimizes

    total = L + lambda1 * J + lambda2 * Gamma + w_t * Omega

with RMSProp. Components whose effective weight is zero are never computed
(their logged value is exactly 0.0), which also makes a DAS run with all
lambdas zero bitwise identical to the NaiveNN variant under the same seed.
After each epoch the model is scored on the dev set (eval mode), then the
self-ensemble is refreshed; the returned parameters are those of the
minimum-dev-error epoch (earliest on ties). A loss component beyond
DIVERGENCE_LIMIT, or a non-finite parameter after an optimizer step, stops
the run with a NumericalError naming the epoch and iteration.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor, split_rows
from .config import TrainConfig
from .data import (
    LABELS,
    PAD_INDEX,
    BatchStream,
    BatchTriple,
    Corpus,
    Vocab,
    load_pretrained_embeddings,
    pad_batch,
    split_dev,
)
from .ensemble import EnsembleState, predict_all
from .errors import ConfigError, NumericalError
from .evaluation import EvalReport, evaluate_corpus
from .losses import (
    LossBreakdown,
    LossWeights,
    bootstrap_loss,
    compose_total,
    entropy_min_loss,
    feature_adaptation_loss,
    median_heuristic_sigma,
    mmd_rbf,
    rampup_weight,
    source_cross_entropy,
    total_loss,
)
from .model import ModelParams, apply_max_norm, classify, encode_batch, init_params
from .rng import named_rng

__all__ = [
    "DIVERGENCE_LIMIT",
    "EpochMetrics",
    "History",
    "RMSProp",
    "Pools",
    "objective",
    "train",
    "select_model",
    "run_seed",
    "RunResult",
    "union_pools",
    "write_history_csv",
    "CSV_COLUMNS",
]

DIVERGENCE_LIMIT = 1e6


@dataclass
class EpochMetrics:
    epoch: int
    L: float
    J: float
    Gamma: float
    Omega: float
    w_t: float
    total: float
    dev_error: float
    seconds: float


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(EpochMetrics))  # history.csv's header


@dataclass
class History:
    epochs: list[EpochMetrics] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 until training finishes


RMSPROP_RHO, RMSPROP_EPS = 0.9, 1e-8  # RMSProp's decay rho and denominator smoothing eps


class RMSProp:
    """s <- rho s + (1 - rho) g^2;  theta <- theta - lr g / (sqrt(s) + eps)."""

    def __init__(self, arrays: dict[str, np.ndarray], lr: float):
        if lr <= 0:
            raise ConfigError(f"RMSProp learning rate must be positive, got {lr}")
        self.lr = lr
        self.s = {name: np.zeros_like(arr) for name, arr in arrays.items()}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, arr in arrays.items():
            g = grads[name]
            s = self.s[name]
            s *= RMSPROP_RHO
            s += (1.0 - RMSPROP_RHO) * g * g
            arr -= self.lr * g / (np.sqrt(s) + RMSPROP_EPS)


def select_model(history: History) -> int:
    """1-based epoch with the minimum dev error; earliest wins ties."""
    if not history.epochs:
        raise ConfigError("select_model: empty history")
    errors = [m.dev_error for m in history.epochs]
    return int(np.argmin(errors)) + 1


def _dev_error(params: ModelParams, ids: np.ndarray, lengths: np.ndarray, dev_labels: np.ndarray) -> float:
    probs = predict_all(params, ids, lengths)
    preds = probs.argmax(axis=1)
    return float((preds != dev_labels).mean())


def union_pools(source: Corpus, target: Corpus, source_unlabeled: Corpus | None = None) -> list[Corpus]:
    """Training corpora in the order the vocabulary and the ensemble see them."""
    return [source, target] + ([source_unlabeled] if source_unlabeled else [])


@dataclass
class Pools:
    """Training documents as packed ids (Vocab.encode's form), document k
    being ids[starts[k] : starts[k] + lengths[k]]. The source, target and
    union pools are runs of these documents, starting at the entries of
    `first`. train packs the union (source, target, then any unlabeled
    source), so its source pool and union start at document 0 and its
    target pool at len(source)."""

    ids: np.ndarray
    lengths: np.ndarray
    first: tuple[int, int, int]  # the source, target and union pools' first documents
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.starts = np.cumsum(self.lengths) - self.lengths


def objective(leaves: dict[str, Tensor], pools: Pools, batch: BatchTriple, labels: np.ndarray,
              targets: np.ndarray | None, weights: LossWeights, w_t: float, config: TrainConfig,
              rng: np.random.Generator | None
              ) -> tuple[Tensor, LossBreakdown, dict[str, Tensor | None]]:
    """One step's L + lambda1 J + lambda2 Gamma + w_t Omega on the tape the
    `leaves` carry, its logged breakdown, and the term tensors by name ("L",
    "J", "Gamma", "Omega"). `batch` indexes the source, target and union
    `pools`, the one-hot source `labels` and the ensemble's one-hot `targets`.
    Zero-weight terms, and Omega without targets, are skipped: their tensor
    is None and they log 0.0. The documents the active terms read are
    encoded as one batch, source, then target (for J or Gamma), then union
    (for Omega), and split_rows hands each loss its rows. One dropout draw
    over that batch gives the masks that one draw per part would, in the
    same order."""
    first_s, first_t, first_u = pools.first
    use_t = weights.lambda1 > 0.0 or weights.lambda2 > 0.0
    use_u = weights.lambda3 > 0.0 and targets is not None
    parts = [first_s + batch.source_idx]
    parts += [first_t + batch.target_idx] if use_t else []
    parts += [first_u + batch.union_idx] if use_u else []
    mat, lengths = pad_batch(pools.ids, pools.starts, pools.lengths, np.concatenate(parts))
    xi = encode_batch(leaves, mat, lengths, config.dropout_rate, rng)
    xi_s, *xi_rest = split_rows(xi, [len(idx) for idx in parts])

    L = source_cross_entropy(labels[batch.source_idx], classify(leaves, xi_s))
    J = Gamma = Omega = None
    if use_t:
        xi_t = xi_rest[0]
        if weights.lambda1 > 0.0:
            if config.variant == "MMD-baseline":
                sigma = config.mmd_sigma
                if sigma is None:
                    sigma = median_heuristic_sigma(xi_s.data, xi_t.data)
                J = mmd_rbf(xi_s, xi_t, sigma)
            else:
                J = feature_adaptation_loss(xi_s, xi_t)
        if weights.lambda2 > 0.0:
            Gamma = entropy_min_loss(classify(leaves, xi_t))
    if use_u:
        Omega = bootstrap_loss(targets[batch.union_idx], classify(leaves, xi_rest[-1]))
    total, breakdown = compose_total(L, J, Gamma, Omega, weights, w_t)
    return total, breakdown, {"L": L, "J": J, "Gamma": Gamma, "Omega": Omega}


def train(
    config: TrainConfig,
    vocab: Vocab,
    embeddings: np.ndarray,
    source: Corpus,
    target: Corpus,
    dev: Corpus,
    source_unlabeled: Corpus | None = None,
    dump_ensemble_dir=None,
) -> tuple[ModelParams, History]:
    """Run the full schedule and return (best-epoch parameters, history).

    `source` must be labeled; `target` and `source_unlabeled` labels are never
    read. The union pool for ensemble bookkeeping is `union_pools` order.
    The union's documents and then dev's are encoded by one Vocab.encode
    call; the packed union serves the source, target and union pools, and
    each scoring pass reads its own stretch of the ids.
    """
    weights = config.effective_weights()
    corpora = union_pools(source, target, source_unlabeled)
    n_union = sum(len(corpus) for corpus in corpora)
    ids, lengths = vocab.encode([d.tokens for corpus in (*corpora, dev) for d in corpus], config.max_doc_len)
    n_union_ids = int(lengths[:n_union].sum())
    union = ids[:n_union_ids], lengths[:n_union]
    pools = Pools(*union, first=(0, len(source), 0))
    dev_ids, dev_lengths = ids[n_union_ids:], lengths[n_union:]
    dev_labels = dev.label_indices()
    labels_s = source.label_indices()
    onehot_s = np.eye(len(LABELS), dtype=np.float64)[labels_s]

    params = init_params(embeddings, config.window, config.hidden, named_rng(config.seed, "init"))
    optimizer = RMSProp(params.arrays(), config.learning_rate)
    stream = BatchStream(
        labels_s, n_target=len(target), n_union=n_union,
        batch_size=config.batch_size, rng=named_rng(config.seed, "shuffle"),
    )
    rng_drop = named_rng(config.seed, "dropout")

    need_ensemble = weights.lambda3 > 0.0
    ensemble = EnsembleState.zeros(n_union, len(LABELS), config.alpha) if need_ensemble else None
    z_tilde: np.ndarray | None = None

    history = History()

    for t in range(1, config.epochs + 1):
        tick = time.perf_counter()
        w_t = rampup_weight(t, config.epochs, weights.lambda3)
        sums, iters = np.zeros(4), 0  # L, J, Gamma, Omega; added in step order

        for triple in stream.epoch():
            tape = Tape()
            leaves = params.leaves(tape)
            total_t, step, _ = objective(leaves, pools, triple, onehot_s, z_tilde,
                                         weights, w_t, config, rng_drop)
            for name, value in (("L", step.L), ("J", step.J), ("Gamma", step.Gamma),
                                ("Omega", step.Omega), ("total", step.total)):
                if abs(value) > DIVERGENCE_LIMIT:
                    raise NumericalError(
                        f"training diverged at epoch {t}, iteration {iters + 1}: "
                        f"{name} = {value:.6e} exceeds {DIVERGENCE_LIMIT:.0e}"
                    )

            tape.backward(total_t)
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            grads["E"][PAD_INDEX] = 0.0  # padding embedding stays frozen
            optimizer.step(params.arrays(), grads)
            for name, arr in params.arrays().items():
                if not np.isfinite(arr).all():
                    raise NumericalError(
                        f"training diverged at epoch {t}, iteration {iters + 1}: "
                        f"parameter {name} is not finite after the optimizer step"
                    )
            apply_max_norm(params.F_w)
            sums += (step.L, step.J, step.Gamma, step.Omega)
            iters += 1

        epoch_row = total_loss(*map(float, sums / iters), weights, w_t)

        dev_error = _dev_error(params, dev_ids, dev_lengths, dev_labels)

        if need_ensemble:
            fresh = predict_all(params, *union)
            ensemble.update(fresh)
            z_tilde = ensemble.to_targets()
            if dump_ensemble_dir is not None:
                np.save(Path(dump_ensemble_dir) / f"ensemble_epoch{t:03d}.npy", ensemble.Z)

        history.epochs.append(EpochMetrics(t, **dataclasses.asdict(epoch_row), dev_error=dev_error,
                                           seconds=time.perf_counter() - tick))
        if select_model(history) == t:
            best_params = params.copy()

    history.best_epoch = select_model(history)
    return best_params, history


def write_history_csv(history: History, path) -> None:
    """Full-precision floats (repr round-trip) so recomposing the total from a
    parsed row reproduces it bit for bit."""
    lines = [",".join(CSV_COLUMNS)]
    for m in history.epochs:
        lines.append(",".join(map(repr, dataclasses.astuple(m))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class RunResult:
    """One seed's best-epoch parameters and history, the count of vocabulary
    tokens with a pretrained vector, and the test report (None without one)."""

    seed: int
    params: ModelParams
    history: History
    pretrained_tokens_found: int
    report: EvalReport | None

    @property
    def best_epoch(self) -> int:
        return self.history.best_epoch

    @property
    def dev_error(self) -> float:
        return self.history.epochs[self.best_epoch - 1].dev_error

    @property
    def accuracy(self) -> float:
        return self.report.accuracy

    @property
    def macro_f1(self) -> float:
        return self.report.macro_f1


def run_seed(
    config: TrainConfig,
    vocab: Vocab,
    source: Corpus,
    target: Corpus,
    test: Corpus | None = None,
    embeddings_path=None,
    source_unlabeled: Corpus | None = None,
    dump_ensemble_dir=None,
) -> RunResult:
    """One run under config.seed: its own dev split and embedding
    initialization, training, then evaluation on `test` when given."""
    train_split, dev = split_dev(source, config.n_dev, named_rng(config.seed, "split"))
    embeddings, found = load_pretrained_embeddings(
        embeddings_path, vocab, config.embedding_dim, named_rng(config.seed, "embeddings"))
    params, history = train(config, vocab, embeddings, train_split, target, dev,
                            source_unlabeled=source_unlabeled, dump_ensemble_dir=dump_ensemble_dir)
    report = None if test is None else evaluate_corpus(params, vocab, test, config.max_doc_len)
    return RunResult(config.seed, params, history, found, report)

