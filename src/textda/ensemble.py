"""Self-ensemble bookkeeping over the union of training documents.

The ensemble matrix Z starts at zero. After every epoch the current model
predicts all N documents in eval mode (Z'), then Z <- alpha Z + (1 - alpha) Z'
and the bootstrap targets are the one-hot argmax of Z's rows (ties toward the
lowest class index). Before the first update every row of Z is zero, so the
derived targets are degenerate; the trainer accounts for that by skipping the
bootstrap loss during epoch 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import PAD_INDEX, pad_batch
from .errors import ConfigError, NumericalError, ShapeError
from .model import ModelParams, ScoringPass, forward_eval

__all__ = ["EnsembleState", "predict_all"]

EVAL_BATCH = 256  # documents per forward_eval call in predict_all


def predict_all(params: ModelParams, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Eval-mode class distributions for every document of packed ids
    (Vocab.encode's form: document k is the lengths[k] ids after those of
    the documents before it), in corpus order.

    The distinct tokens of ids, and the padding id, are projected once, by
    one GEMM (autodiff.project); only that projection is kept, not the
    embedding rows or W's slot blocks it was made from. Then documents are
    scored in contiguous batches of EVAL_BATCH, each stably sorted by
    length, padded from the packed ids (data.pad_batch), and filled and
    pooled from the projection by forward_eval; its pooling meets long runs
    of equal lengths, and each row is written back to its document's place.
    A probability's bits depend on the pass's set of distinct tokens, not on
    its batch or the order within it. Raises NumericalError naming the first
    document, by corpus index, whose probabilities are not finite (finite
    but huge parameters overflow), since argmax reads a NaN row as class 0."""
    n = len(lengths)
    starts = np.cumsum(lengths) - lengths
    model = ScoringPass(params, ad.project(params.E, params.W, ids, "predict_all", PAD_INDEX)[0])
    out = np.empty((n, params.n_classes), dtype=np.float64)
    for start in range(0, n, EVAL_BATCH):
        stop = min(start + EVAL_BATCH, n)
        idx = start + np.argsort(lengths[start:stop], kind="stable")
        probs, _ = forward_eval(model, *pad_batch(ids, starts, lengths, idx))
        bad = idx[~np.isfinite(probs).all(axis=1)]
        if bad.size:
            raise NumericalError(f"predict_all: class probabilities of document {bad.min()} are not finite "
                                 f"({bad.size} of the {stop - start} in its batch)")
        out[idx] = probs
    return out


@dataclass
class EnsembleState:
    """Z [N, C] accumulated predictions; alpha the exponential decay."""

    Z: np.ndarray
    alpha: float

    @classmethod
    def zeros(cls, n_docs: int, n_classes: int, alpha: float) -> "EnsembleState":
        if not (0.0 <= alpha < 1.0):
            raise ConfigError(f"alpha must be in [0, 1), got {alpha}")
        return cls(Z=np.zeros((n_docs, n_classes), dtype=np.float64), alpha=alpha)

    def update(self, fresh: np.ndarray) -> None:
        """Z <- alpha Z + (1 - alpha) Z' in place."""
        if fresh.shape != self.Z.shape:
            raise ShapeError(f"ensemble update: Z {self.Z.shape} vs predictions {fresh.shape}")
        self.Z *= self.alpha
        self.Z += (1.0 - self.alpha) * fresh

    def to_targets(self) -> np.ndarray:
        """One-hot argmax of each row (ties resolve to the lowest class)."""
        winners = self.Z.argmax(axis=1)
        return np.eye(self.Z.shape[1], dtype=np.float64)[winners]
