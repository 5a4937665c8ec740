"""Synthetic domain-adaptation tasks.

Each class owns a set of sentiment tokens shared by both domains plus a
domain-specific set per domain; the rest of a document is domain-specific
filler. `shift` is the probability that a sentiment slot uses the
domain-specific set instead of the shared one: shift 0 makes the domains
interchangeable, shift 1 leaves no shared sentiment evidence at all, so a
source-only model cannot beat chance on the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LABELS, Corpus, Document
from .errors import ConfigError
from .rng import named_rng

__all__ = ["SyntheticSpec", "generate_synthetic"]

DOMAINS = ("src", "tgt")


@dataclass
class SyntheticSpec:
    n_train: int = 2000          # labeled source docs; also unlabeled target docs
    n_test: int = 1000           # labeled target test docs
    n_source_unlabeled: int = 0
    shift: float = 0.7
    sentiment_rate: float = 0.35
    shared_per_class: int = 8
    domain_per_class: int = 8
    filler_per_domain: int = 40
    len_min: int = 8
    len_max: int = 30
    priors: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    seed: int = 0

    def validate(self) -> None:
        if self.n_train < 1 or self.n_test < 1 or self.n_source_unlabeled < 0:
            raise ConfigError("corpus sizes must be positive (n_source_unlabeled may be 0)")
        if not (0.0 <= self.shift <= 1.0):
            raise ConfigError(f"shift must be in [0, 1], got {self.shift}")
        if not (0.0 < self.sentiment_rate <= 1.0):
            raise ConfigError(f"sentiment_rate must be in (0, 1], got {self.sentiment_rate}")
        if min(self.shared_per_class, self.domain_per_class, self.filler_per_domain) < 1:
            raise ConfigError("token pools must be nonempty")
        if not (1 <= self.len_min <= self.len_max):
            raise ConfigError(f"need 1 <= len_min <= len_max, got {self.len_min}..{self.len_max}")
        if len(self.priors) != len(LABELS) or abs(sum(self.priors) - 1.0) > 1e-9 or min(self.priors) < 0:
            raise ConfigError("priors must be three nonnegative numbers summing to 1")


def _token_pools(spec: SyntheticSpec):
    shared = {label: [f"{label}_core{i}" for i in range(spec.shared_per_class)] for label in LABELS}
    domain_sent = {
        (dom, label): [f"{label}_{dom}{i}" for i in range(spec.domain_per_class)]
        for dom in DOMAINS for label in LABELS
    }
    filler = {dom: [f"filler_{dom}{i}" for i in range(spec.filler_per_domain)] for dom in DOMAINS}
    return shared, domain_sent, filler


def _apportion(n: int, priors) -> list[int]:
    """Exact class counts: floor shares, remainder to the largest fractions
    (ties toward the lower class index)."""
    raw = [n * p for p in priors]
    counts = [int(np.floor(r)) for r in raw]
    order = sorted(range(len(priors)), key=lambda c: (-(raw[c] - counts[c]), c))
    for i in range(n - sum(counts)):
        counts[order[i % len(priors)]] += 1
    return counts


def _make_corpus(spec: SyntheticSpec, rng: np.random.Generator, domain: str,
                 tag: str, n_docs: int) -> Corpus:
    shared, domain_sent, filler = _token_pools(spec)
    labels: list[str] = []
    for c, count in enumerate(_apportion(n_docs, spec.priors)):
        labels.extend([LABELS[c]] * count)
    labels = [labels[i] for i in rng.permutation(n_docs)]
    docs = []
    for label in labels:
        n = int(rng.integers(spec.len_min, spec.len_max + 1))
        tokens = []
        for _ in range(n):
            if rng.random() < spec.sentiment_rate:
                pool = domain_sent[(domain, label)] if rng.random() < spec.shift else shared[label]
            else:
                pool = filler[domain]
            tokens.append(pool[int(rng.integers(len(pool)))])
        docs.append(Document(tokens=tuple(tokens), label=label, rating=None))
    return Corpus(docs=docs, domain=tag)


def generate_synthetic(spec: SyntheticSpec) -> dict[str, Corpus]:
    """Corpora keyed source_labeled / target_unlabeled / target_test
    (+ source_unlabeled when requested). Deterministic in spec.seed."""
    spec.validate()
    rng = named_rng(spec.seed, "synth")
    out = {
        "source_labeled": _make_corpus(spec, rng, "src", "source", spec.n_train),
        "target_unlabeled": _make_corpus(spec, rng, "tgt", "target", spec.n_train),
        "target_test": _make_corpus(spec, rng, "tgt", "target", spec.n_test),
    }
    if spec.n_source_unlabeled > 0:
        out["source_unlabeled"] = _make_corpus(spec, rng, "src", "source", spec.n_source_unlabeled)
    return out
