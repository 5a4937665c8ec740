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

from .data import pad_batch
from .errors import ConfigError, ShapeError
from .model import ModelParams, forward_eval

__all__ = ["EnsembleState", "predict_all"]


def predict_all(params: ModelParams, encoded_docs, eval_batch: int = 256) -> np.ndarray:
    """Eval-mode class distributions for every document, in corpus order."""
    if eval_batch < 1:
        raise ConfigError(f"eval_batch must be >= 1, got {eval_batch}")
    n = len(encoded_docs)
    out = np.empty((n, params.n_classes), dtype=np.float64)
    for start in range(0, n, eval_batch):
        idx = np.arange(start, min(start + eval_batch, n))
        mat, lengths = pad_batch(encoded_docs, idx)
        probs, _ = forward_eval(params, mat, lengths)
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
