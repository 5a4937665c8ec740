"""Metrics and filter inspection.

Macro-F1 averages per-class F1 over the classes that actually appear in the
gold labels; any 0/0 ratio along the way is defined as 0.

Filter analysis scores each distinct window of the corpora once through the
trained encoder's convolution (eval mode) and reports, for the strongest
filters of each class, the trigrams with the highest post-ReLU activation.
Padding positions render as "*"; identical trigrams are deduplicated keeping
their maximum activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import TrainConfig
from .data import LABELS, PAD_INDEX, Corpus, Vocab
from .ensemble import predict_all
from .errors import ConfigError, DataError, NumericalError
from .model import ModelParams, packed_windows

__all__ = [
    "accuracy",
    "confusion_matrix",
    "macro_f1",
    "per_class_f1",
    "EvalReport",
    "evaluate_corpus",
    "TrigramHit",
    "FilterSummary",
    "FilterReport",
    "top_filters_per_class",
    "filter_analysis",
    "render_filter_report",
]


def _check_label_arrays(golds, preds) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(golds, dtype=np.int64)
    p = np.asarray(preds, dtype=np.int64)
    if g.ndim != 1 or g.shape != p.shape:
        raise ConfigError(f"label arrays must be equal-length vectors, got {g.shape} and {p.shape}")
    if g.size == 0:
        raise ConfigError("cannot score an empty prediction set")
    for name, arr in (("golds", g), ("preds", p)):
        if arr.min() < 0 or arr.max() >= len(LABELS):
            raise ConfigError(f"{name} contain a class outside [0, {len(LABELS)})")
    return g, p


def accuracy(golds, preds) -> float:
    g, p = _check_label_arrays(golds, preds)
    return float((g == p).mean())


def confusion_matrix(golds, preds) -> np.ndarray:
    """[C, C] counts; rows are gold classes, columns predictions."""
    g, p = _check_label_arrays(golds, preds)
    cm = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    np.add.at(cm, (g, p), 1)
    return cm


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_class_f1(golds, preds) -> list[dict]:
    cm = confusion_matrix(golds, preds)
    out = []
    for c in range(len(LABELS)):
        tp = float(cm[c, c])
        precision = _safe_div(tp, float(cm[:, c].sum()))
        recall = _safe_div(tp, float(cm[c, :].sum()))
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        out.append({
            "precision": precision, "recall": recall, "f1": f1,
            "support": int(cm[c, :].sum()),
        })
    return out


def macro_f1(golds, preds) -> float:
    """Mean F1 over the classes present in the gold labels."""
    stats = per_class_f1(golds, preds)
    return float(np.mean([st["f1"] for st in stats if st["support"] > 0]))


@dataclass
class EvalReport:
    n_docs: int
    accuracy: float
    macro_f1: float
    per_class: dict
    confusion: list

    def summary(self) -> str:
        lines = [
            f"documents  {self.n_docs}",
            f"accuracy   {self.accuracy:.6f}",
            f"macro_f1   {self.macro_f1:.6f}",
        ]
        for label in LABELS:
            st = self.per_class[label]
            lines.append(
                f"  {label:9s} precision {st['precision']:.6f}  recall {st['recall']:.6f}  "
                f"f1 {st['f1']:.6f}  support {st['support']}"
            )
        return "\n".join(lines)


def evaluate_corpus(params: ModelParams, vocab: Vocab, corpus: Corpus, max_doc_len: int) -> EvalReport:
    """Eval-mode predictions for a labeled corpus, scored with both metrics."""
    if len(corpus) == 0:
        raise DataError("cannot evaluate an empty corpus")
    golds = corpus.label_indices()
    preds = predict_all(params, *vocab.encode([d.tokens for d in corpus], max_doc_len)).argmax(axis=1)
    stats = per_class_f1(golds, preds)
    return EvalReport(
        n_docs=len(corpus),
        accuracy=accuracy(golds, preds),
        macro_f1=macro_f1(golds, preds),
        per_class={label: stats[i] for i, label in enumerate(LABELS)},
        confusion=confusion_matrix(golds, preds).tolist(),
    )


@dataclass
class TrigramHit:
    tokens: tuple[str, ...]
    activation: float
    domains: str  # "+"-joined sorted domain tags the trigram occurred in
    rendered: str = field(init=False)  # the tokens joined by "-"

    def __post_init__(self):
        self.rendered = "-".join(self.tokens)


@dataclass
class FilterSummary:
    filter: int  # the filter's index
    class_weight: float
    trigrams: list[TrigramHit] = field(default_factory=list)


@dataclass
class FilterReport:  # the report dataclasses' field names are filters.json's keys
    k_filters: int
    k_trigrams: int
    classes: dict = field(default_factory=dict)  # label -> list[FilterSummary]


def top_filters_per_class(F_w: np.ndarray, k: int) -> dict[int, list[int]]:
    """Filter indices with the largest output weight per class, descending
    (ties toward the lower index)."""
    if k < 1 or k > F_w.shape[1]:
        raise ConfigError(f"k_filters must be in [1, {F_w.shape[1]}], got {k}")
    return {c: [int(j) for j in np.argsort(-F_w[c], kind="stable")[:k]] for c in range(F_w.shape[0])}


def _top_rows(values: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k largest values (all of them if fewer), by value
    descending and index ascending on ties, as a stable argsort of -values
    would rank them, without sorting them all: the k-th largest value is
    found by a partition, every index above it is taken, and at it the
    lowest indices fill the rest."""
    if k >= values.size:
        chosen = np.arange(values.size)
    else:
        kth = np.partition(values, values.size - k)[values.size - k]
        above = np.flatnonzero(values > kth)
        chosen = np.sort(np.concatenate([above, np.flatnonzero(values == kth)[: k - above.size]]))
    return chosen[np.argsort(-values[chosen], kind="stable")]


def filter_analysis(
    params: ModelParams,
    vocab: Vocab,
    corpora: list[Corpus],
    k_filters: int,
    k_trigrams: int,
    max_doc_len: int = TrainConfig.max_doc_len,
) -> FilterReport:
    """Top activating trigrams for each class's strongest filters.

    Deterministic and invariant to document order: hits are deduplicated by
    token triple keeping the maximum activation, and ranked by (activation
    descending, triple ascending). A window's activation depends on its
    token ids alone, so each distinct id window is scored once.
    """
    if k_trigrams < 1:
        raise ConfigError(f"k_trigrams must be at least 1, got {k_trigrams}")
    per_class = top_filters_per_class(params.F_w, k_filters)
    wanted = sorted({j for filters in per_class.values() for j in filters})
    packed, lengths = vocab.encode([d.tokens for corpus in corpora for d in corpus], max_doc_len)
    windows = packed_windows(packed, lengths, params.window)
    ids, id_of_window = np.unique(windows, axis=0, return_inverse=True)
    acts = np.maximum(ad.conv_rows(params.E, params.W, params.b, ids, wanted), 0.0)

    # id windows that render alike (padding and a literal "*") are one trigram; with
    # the names ranked in string order, the distinct rank triples are the sorted trigrams
    names = np.array(vocab.itos, dtype=object)
    names[PAD_INDEX] = "*"
    names, rank = np.unique(names, return_inverse=True)  # the distinct names, in string order
    ranks, row_of_id = np.unique(rank[ids], axis=0, return_inverse=True)
    row_of_id = row_of_id.reshape(-1)
    # starting at -inf, the merge keeps the bits of the larger activation
    table = np.full((len(ranks), len(wanted)), -np.inf)
    np.maximum.at(table, row_of_id, acts)
    corpus_of_window = np.repeat(np.repeat(np.arange(len(corpora)), [len(corpus) for corpus in corpora]), lengths)
    present = np.zeros((len(ranks), len(corpora)), dtype=bool)
    present[row_of_id[id_of_window.reshape(-1)], corpus_of_window] = True

    def triple(i) -> tuple[str, ...]:
        return tuple(names[ranks[i]].tolist())

    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise NumericalError(f"filter_analysis: activations of trigram {'-'.join(triple(bad[0]))} are not finite")

    report = FilterReport(k_filters=k_filters, k_trigrams=k_trigrams)
    for c, label in enumerate(LABELS):
        summaries = []
        for j in per_class[c]:
            col = wanted.index(j)
            ranked = _top_rows(table[:, col], k_trigrams)
            hits = [
                TrigramHit(tokens=triple(i), activation=float(table[i, col]),
                           domains="+".join(sorted({corpora[k].domain for k in np.flatnonzero(present[i])})))
                for i in ranked
            ]
            summaries.append(FilterSummary(filter=j, class_weight=float(params.F_w[c, j]), trigrams=hits))
        report.classes[label] = summaries
    return report


def render_filter_report(report: FilterReport) -> str:
    lines = []
    for label in LABELS:
        lines.append(f"class: {label}")
        for fs in report.classes[label]:
            lines.append(f"  filter {fs.filter} (class weight {fs.class_weight:.4f})")
            for hit in fs.trigrams:
                lines.append(f"    {hit.rendered}  activation {hit.activation:.4f}  [{hit.domains}]")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
