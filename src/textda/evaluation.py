"""Metrics, significance testing, and filter inspection.

Macro-F1 averages per-class F1 over the classes that actually appear in the
gold labels; any 0/0 ratio along the way is defined as 0. The significance
test is a one-tailed unpaired Welch t-test (H1: mean(a) > mean(b)) with
Welch-Satterthwaite degrees of freedom and fixed conventions for
zero-variance samples.

Filter analysis walks every window position of a corpus through the trained
encoder (eval mode) and reports, for the strongest filters of each class, the
trigrams with the highest post-ReLU activation. Padding positions render as
"*"; identical trigrams are deduplicated keeping their maximum activation.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import LABELS, PAD_INDEX, Corpus, Vocab, pad_batch
from .ensemble import predict_all
from .errors import ConfigError, DataError
from .model import ModelParams, window_activations

__all__ = [
    "accuracy",
    "confusion_matrix",
    "macro_f1",
    "per_class_f1",
    "EvalReport",
    "evaluate_corpus",
    "TTestResult",
    "ttest_one_tailed",
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


def evaluate_corpus(params: ModelParams, vocab: Vocab, corpus: Corpus,
                    max_doc_len: int, eval_batch: int = 256) -> EvalReport:
    """Eval-mode predictions for a labeled corpus, scored with both metrics."""
    if len(corpus) == 0:
        raise DataError("cannot evaluate an empty corpus")
    golds = corpus.label_indices()
    enc = [vocab.encode(d.tokens, max_doc_len) for d in corpus]
    preds = predict_all(params, enc, eval_batch).argmax(axis=1)
    stats = per_class_f1(golds, preds)
    return EvalReport(
        n_docs=len(corpus),
        accuracy=accuracy(golds, preds),
        macro_f1=macro_f1(golds, preds),
        per_class={label: stats[i] for i, label in enumerate(LABELS)},
        confusion=confusion_matrix(golds, preds).tolist(),
    )


@dataclass
class TTestResult:
    t_stat: float
    dof: float
    p_value: float


def ttest_one_tailed(a, b) -> TTestResult:
    """Welch's unpaired t-test of H1: mean(a) > mean(b).

    Zero-variance conventions: both samples constant with equal means gives
    p = 0.5; constant with unequal means gives p = 0.0 (a above b) or 1.0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size < 2 or b.size < 2:
        raise ConfigError("ttest_one_tailed: each sample needs at least 2 observations")
    ma, mb = a.mean(), b.mean()
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return TTestResult(t_stat=0.0, dof=float(a.size + b.size - 2), p_value=0.5)
        sign = np.inf if ma > mb else -np.inf
        return TTestResult(t_stat=float(sign), dof=float(a.size + b.size - 2),
                           p_value=0.0 if ma > mb else 1.0)
    sa, sb = va / a.size, vb / b.size
    se2 = sa + sb
    t_stat = (ma - mb) / np.sqrt(se2)
    dof = se2 * se2 / (
        (sa * sa / (a.size - 1) if va > 0 else 0.0)
        + (sb * sb / (b.size - 1) if vb > 0 else 0.0)
    )
    # imported here, not with the module: scipy.stats takes about a second to
    # load, and nothing else in textda uses it
    from scipy.stats import t as student_t

    p = float(student_t.sf(t_stat, dof))
    return TTestResult(t_stat=float(t_stat), dof=float(dof), p_value=p)


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def top_filters_per_class(F_w: np.ndarray, k: int) -> dict[int, list[int]]:
    """Filter indices with the largest output weight per class, descending
    (ties toward the lower index)."""
    if k < 1 or k > F_w.shape[1]:
        raise ConfigError(f"k must be in [1, {F_w.shape[1]}], got {k}")
    return {c: [int(j) for j in np.argsort(-F_w[c], kind="stable")[:k]] for c in range(F_w.shape[0])}


def filter_analysis(
    params: ModelParams,
    vocab: Vocab,
    corpora: list[Corpus],
    k_filters: int = 10,
    k_trigrams: int = 5,
    max_doc_len: int = 400,
    eval_batch: int = 256,
) -> FilterReport:
    """Top activating trigrams for each class's strongest filters.

    Deterministic and invariant to document order: hits are deduplicated by
    token triple keeping the maximum activation, and ranked by (activation
    descending, triple ascending).
    """
    if k_trigrams < 1:
        raise ConfigError(f"k_trigrams must be at least 1, got {k_trigrams}")
    if not 1 <= k_filters <= params.F_w.shape[1]:
        raise ConfigError(f"k_filters must be in [1, {params.F_w.shape[1]}], got {k_filters}")
    per_class = top_filters_per_class(params.F_w, k_filters)
    wanted = sorted({j for filters in per_class.values() for j in filters})
    names = list(vocab.itos)
    names[PAD_INDEX] = "*"
    # rendered triple -> one row: the wanted filters' maximum activations, then a
    # column per corpus that turns 0 once the triple occurs in it. Rows start at
    # -inf; max(-inf, x) is x, and post-ReLU values hold no -0.0, so np.maximum
    # keeps max()'s bits
    best: defaultdict[tuple[str, ...], np.ndarray] = defaultdict(np.full(len(wanted) + len(corpora), -np.inf).copy)

    for k, corpus in enumerate(corpora):
        enc = [vocab.encode(d.tokens, max_doc_len) for d in corpus]
        seen = np.where(np.arange(len(corpora)) == k, 0.0, -np.inf)
        for start in range(0, len(enc), eval_batch):
            idx = np.arange(start, min(start + eval_batch, len(enc)))
            mat, lengths = pad_batch(enc, idx)
            idx_win, H = window_activations(params, mat, lengths)
            rows = np.hstack([H[:, wanted], np.broadcast_to(seen, (len(H), len(corpora)))])
            for win, row in zip(idx_win.tolist(), rows):
                stored = best[tuple(names[w] for w in win)]
                np.maximum(stored, row, out=stored)

    # ranked by (activation descending, triple ascending): the triples are sorted
    # once, and a stable argsort of a negated column keeps ties in that order
    triples = sorted(best)
    table = np.empty((len(triples), len(wanted) + len(corpora)))
    for i, triple in enumerate(triples):
        table[i] = best.pop(triple)  # each row is released as it is copied, so the table is held once

    def domains(i) -> str:
        return "+".join(sorted({corpora[k].domain for k in np.flatnonzero(table[i, len(wanted):] == 0.0)}))

    report = FilterReport(k_filters=k_filters, k_trigrams=k_trigrams)
    for c, label in enumerate(LABELS):
        summaries = []
        for j in per_class[c]:
            col = wanted.index(j)
            ranked = np.argsort(-table[:, col], kind="stable")[:k_trigrams]
            hits = [
                TrigramHit(tokens=triples[i], activation=float(table[i, col]), domains=domains(i))
                for i in ranked
            ]
            summaries.append(FilterSummary(filter=j, class_weight=float(params.F_w[c, j]), trigrams=hits))
        report.classes[label] = summaries
    return report


def render_filter_report(report: FilterReport) -> str:
    lines = []
    for label in LABELS:
        if label not in report.classes:
            continue
        lines.append(f"class: {label}")
        for fs in report.classes[label]:
            lines.append(f"  filter {fs.filter} (class weight {fs.class_weight:.4f})")
            for hit in fs.trigrams:
                lines.append(f"    {hit.rendered}  activation {hit.activation:.4f}  [{hit.domains}]")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
