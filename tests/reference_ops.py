"""Tape ops that only tests use: the encoder's convolution as its own op,
with a [n, h] output, and two reductions for building test losses.

conv_windows followed by textda.autodiff.max_over_time_batch is the
unfused chain that autodiff.conv_max_pool replaces; tests compare the fused
op's maxima and gradients against it.
"""

import numpy as np
import scipy.sparse

from textda.autodiff import Tensor, _same_tape, accumulate
from textda.errors import NumericalError, ShapeError


def conv_windows(E: Tensor, W: Tensor, b: Tensor, idx_win: np.ndarray) -> Tensor:
    """affine(embed_windows(E, idx_win), W, b), computed through the distinct
    tokens of idx_win.

    A window row is its l embedding rows side by side, so x W^T is
    sum_j E[w_j] W_j^T, W_j being the j-th block of d columns of W. Each of
    the U distinct tokens is projected once per slot, Q[u*l + j] =
    E[u] W_j^T, by one GEMM, and the incidence matrix A ([n, U*l], a single
    1 per window slot) adds each window's l projections: Z = A Q + b.
    Backward reverses the factorisation: A^T gathers the output gradient per
    (token, slot), then one GEMM gives dW and one the touched rows of dE.
    Results agree with the window GEMM to rounding, not bit for bit, as the
    summation order differs.
    """
    tape = _same_tape(E, W, b)
    idx_win = np.asarray(idx_win)
    if idx_win.ndim < 2 or idx_win.shape[-1] < 1:
        raise ShapeError(f"conv_windows: window index array must be [..., l], got shape {idx_win.shape}")
    V, d = E.data.shape
    l = idx_win.shape[-1]
    if W.data.ndim != 2 or b.data.ndim != 1 or W.data.shape != (b.data.shape[0], l * d):
        raise ShapeError(f"conv_windows: W {W.data.shape} and b {b.data.shape} do not fit "
                         f"windows of {l} rows of E {E.data.shape}")
    h = W.data.shape[0]
    flat = idx_win.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= V):
        raise NumericalError(f"conv_windows: token index out of range [0, {V}) (min {flat.min()}, max {flat.max()})")
    uniq, inverse = np.unique(flat, return_inverse=True)
    slots = inverse.reshape(-1, l) * l + np.arange(l)
    n = slots.shape[0]
    EU = E.data[uniq]
    M = W.data.reshape(h, l, d).transpose(2, 1, 0).reshape(d, l * h)  # M[:, j*h:(j+1)*h] = W_j^T
    A = scipy.sparse.csr_array((np.ones(slots.size), slots.reshape(-1), np.arange(0, slots.size + 1, l)),
                               shape=(n, uniq.size * l))
    out = tape.leaf(A @ (EU @ M).reshape(-1, h) + b.data)

    def back():
        g = out.grad
        G = (A.T @ g).reshape(-1, l * h)
        accumulate(W, (EU.T @ G).reshape(d, l, h).transpose(2, 1, 0).reshape(h, l * d))
        accumulate(b, g.sum(axis=0))
        dE = np.zeros_like(E.data)
        dE[uniq] = G @ M.T
        accumulate(E, dE)

    tape.record(back)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    out = tape.leaf(a.data * b.data)

    def back():
        accumulate(a, out.grad * b.data)
        accumulate(b, out.grad * a.data)

    tape.record(back)
    return out


def vsum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar."""
    out = x.tape.leaf(float(x.data.sum()))

    def back():
        accumulate(x, np.full(x.data.shape, out.grad))

    x.tape.record(back)
    return out
