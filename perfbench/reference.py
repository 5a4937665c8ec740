"""Independent eval-mode forward pass of the CNN classifier.

Written from the model's definition, not from textda's code: gather the
embedding rows of every width-l window ("same" padding with the padding id
0), one GEMM with the convolution weights, ReLU, max over each document's
valid positions, then the softmax head. The scoring workload checks every
probability textda returns against this.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PAD_ID = 0


def forward(E, W, b, F_w, F_b, mat, lengths) -> np.ndarray:
    """Class probabilities [B, C] for a padded id matrix [B, P]."""
    mat = np.asarray(mat, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n_docs, positions = mat.shape
    d = E.shape[1]
    window = W.shape[1] // d
    half = window // 2
    padded = np.pad(mat, ((0, 0), (half, half)), constant_values=PAD_ID)
    ids = sliding_window_view(padded, window, axis=1)            # [B, P, l]
    windows = E[ids].reshape(n_docs * positions, window * d)     # [B*P, l*d]
    hidden = np.maximum(windows @ W.T + b, 0.0).reshape(n_docs, positions, -1)
    valid = np.arange(positions)[None, :, None] < lengths[:, None, None]
    features = np.where(valid, hidden, -np.inf).max(axis=1)      # [B, h]
    logits = features @ F_w.T + F_b
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def mismatch(probs, expected, rtol: float = 1e-12) -> bool:
    """True when any probability differs from the reference by more than
    rtol relative, or any row fails to sum to 1."""
    probs = np.asarray(probs)
    if probs.shape != expected.shape or not np.all(np.isfinite(probs)):
        return True
    if np.any(np.abs(probs - expected) > rtol * np.abs(expected)):
        return True
    return bool(np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-12))
