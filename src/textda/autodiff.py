"""Minimal reverse-mode automatic differentiation on a fixed op set.

A Tape records one forward computation as an ordered list of backward
closures; Tape.backward replays them in reverse, accumulating into each
tensor's .grad buffer, and drops each once it has run, so a consumed tape
holds no reference cycle and its tensors are freed by reference counting.
A gradient buffer is allocated on first accumulation, taking over the fresh
array the closure hands in. NoGradTape records nothing, for forward-only
passes. Everything is float64. The op set is exactly what the classifier
and its losses need, each backward hand-derived and covered by grad_check
(central finite differences) in the test suite.

Conventions fixed here and relied on elsewhere:
  relu subgradient at 0 is 0; max pooling breaks ties toward the lowest
  position index; dropout is inverted (eval-mode forward is the identity);
  gradients of tensors a loss never touched stay exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import NumericalError, ShapeError

__all__ = [
    "Tape",
    "NoGradTape",
    "Tensor",
    "accumulate",
    "affine",
    "relu",
    "softmax",
    "max_over_time",
    "max_over_time_batch",
    "segment_argmax",
    "dropout",
    "l1_normalize",
    "batch_mean",
    "embed_windows",
    "conv_windows",
    "add",
    "mul",
    "vsum",
    "scale",
    "grad_check",
    "GradCheckReport",
]


class Tensor:
    """Array plus gradient buffer, bound to the tape that produced it. The
    buffer is allocated lazily; reading .grad before any accumulation gives
    zeros."""

    __slots__ = ("data", "_grad", "tape", "__weakref__")

    def __init__(self, data, tape: "Tape"):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self.tape = tape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @property
    def shape(self):
        return self.data.shape


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add gradient g into t.grad. g must be a fresh array that nothing else
    holds: a tensor without a buffer takes it over."""
    if t._grad is None:
        t._grad = np.asarray(g)  # a numpy scalar becomes a 0-d array
    else:
        t._grad += g


class Tape:
    def __init__(self):
        self._steps: list = []
        self._finished = False

    def leaf(self, data) -> Tensor:
        """Wrap an array (no copy) as a tensor of this tape with a zero
        gradient. Parameters enter as leaves; ops wrap their outputs the
        same way."""
        return Tensor(data, self)

    def record(self, backward) -> None:
        self._steps.append(backward)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(tensor) into .grad for every recorded tensor."""
        if loss.tape is not self:
            raise NumericalError("backward: loss tensor belongs to a different tape")
        if loss.data.shape != ():
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        if not np.isfinite(loss.data):
            raise NumericalError(f"backward: loss is not finite ({loss.data!r})")
        if self._finished:
            raise NumericalError("backward: tape already consumed; build a fresh tape per evaluation")
        self._finished = True
        loss._grad = np.ones_like(loss.data)
        # drop each closure once it has run, so the intermediates it holds
        # are freed during the pass rather than after it
        steps, self._steps = self._steps, []
        while steps:
            steps.pop()()


class NoGradTape(Tape):
    """A tape for forward-only passes: it records no closures."""

    def record(self, backward) -> None:
        pass

    def backward(self, loss: Tensor) -> None:
        raise NumericalError("backward: a NoGradTape records no operations; use a Tape to differentiate")


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise NumericalError("op inputs belong to different tapes")
    return tape


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """y = x W^T + b for a batch [M, n] or a vector [n] (its own one-row batch)."""
    tape = _same_tape(x, W, b)
    if W.data.ndim != 2 or b.data.ndim != 1 or W.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"affine: W {W.data.shape} and b {b.data.shape} are inconsistent")
    m, n = W.data.shape
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"affine: x must be 1-D or 2-D, got shape {x.data.shape}")
    if x.data.shape[-1] != n:
        raise ShapeError(f"affine: W {W.data.shape} cannot multiply x {x.data.shape}")
    out = tape.leaf(x.data @ W.data.T + b.data)

    def back():
        g = out.grad.reshape(-1, m)
        accumulate(x, out.grad @ W.data)
        accumulate(W, g.T @ x.data.reshape(-1, n))
        accumulate(b, g.sum(axis=0))

    tape.record(back)
    return out


def relu(x: Tensor) -> Tensor:
    out = x.tape.leaf(np.maximum(x.data, 0.0))

    def back():
        # out > 0 exactly where x > 0 (NaN included); subgradient at 0 is 0
        accumulate(x, out.grad * (out.data > 0.0))

    x.tape.record(back)
    return out


def softmax(x: Tensor) -> Tensor:
    """Stable softmax of logits along the last axis ([C] or [B, C])."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax: logits must be 1-D or 2-D, got shape {x.data.shape}")
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = x.tape.leaf(p)

    def back():
        g = out.grad
        accumulate(x, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    x.tape.record(back)
    return out


def max_over_time(H: Tensor) -> tuple[Tensor, np.ndarray]:
    """Column-wise max of [n, h] -> ([h], argmax row per column).

    Ties resolve to the lowest row index. Gradient routes only to the winning
    rows, so total gradient mass is conserved.
    """
    if H.data.ndim != 2 or H.data.shape[0] < 1:
        raise ShapeError(f"max_over_time: need a nonempty [n, h] matrix, got shape {H.data.shape}")
    arg = H.data.argmax(axis=0)  # np.argmax returns the first (lowest) maximizer
    cols = np.arange(H.data.shape[1])
    out = H.tape.leaf(H.data[arg, cols])

    def back():
        np.add.at(H.grad, (arg, cols), out.grad)

    H.tape.record(back)
    return out, arg


def segment_argmax(rows: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each document's winning position per column, [n_docs, h]: document k
    owns rows[starts[k] : starts[k] + lengths[k]], and np.argmax over them
    gives the lowest position on ties."""
    return np.stack([rows[s : s + n].argmax(axis=0) for s, n in zip(starts.tolist(), lengths.tolist())])


def max_over_time_batch(H: Tensor, n_docs: int, positions: int,
                        lengths: np.ndarray) -> tuple[Tensor, np.ndarray | None]:
    """Per-document column-wise max over valid positions.

    H holds each document's positions as consecutive rows, document-major,
    either packed ([sum(lengths), h], the first lengths[k] positions of
    document k only) or padded ([n_docs * positions, h]). Document k's
    valid rows are the lengths[k] rows from its first row (the sum of the
    earlier lengths when packed, k * positions when padded).

    On a recording tape one argmax over those rows (segment_argmax) gives
    each filter's winning row, the lowest on ties, the maxima are gathered
    there and the backward writes to the winning rows; returns ([n_docs, h]
    maxima, [n_docs, h] winning positions). A NoGradTape has no backward to
    route, so only the maxima are taken, by an in-place max over the same
    rows, and the positions come back as None: max selects a value without
    rounding it, so the maxima are bit-equal to the gathered ones.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if n_docs < 1 or lengths.shape != (n_docs,) or lengths.min() < 1 or lengths.max() > positions:
        raise ShapeError(f"max_over_time_batch: bad lengths (shape {lengths.shape}, {n_docs} documents)")
    n_valid = int(lengths.sum())
    if H.data.ndim != 2 or H.data.shape[0] not in (n_valid, n_docs * positions):
        raise ShapeError(
            f"max_over_time_batch: H {H.data.shape} has neither {n_valid} packed nor "
            f"{n_docs}x{positions} padded rows"
        )
    starts = np.cumsum(lengths) - lengths if H.data.shape[0] == n_valid else np.arange(n_docs) * positions
    if isinstance(H.tape, NoGradTape):
        return H.tape.leaf(np.stack([H.data[s : s + n].max(axis=0)
                                     for s, n in zip(starts.tolist(), lengths.tolist())])), None
    arg = segment_argmax(H.data, starts, lengths)
    winners = arg + starts[:, None]
    cols = np.arange(H.data.shape[1])
    out = H.tape.leaf(H.data[winners, cols])

    def back():
        # each (row, filter) wins at most once, so a plain indexed write is exact
        g = np.zeros_like(H.data)
        g[winners, cols] = out.grad
        accumulate(H, g)

    H.tape.record(back)
    return out, arg


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: entries zeroed with probability `rate`, survivors
    scaled by 1/(1-rate). Identity (same tensor, no RNG draw) when not
    training or rate is 0."""
    if not (0.0 <= rate < 1.0):
        raise NumericalError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise NumericalError("dropout: training mode needs an rng")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = x.tape.leaf(x.data * keep)

    def back():
        accumulate(x, out.grad * keep)

    x.tape.record(back)
    return out


def l1_normalize(v: Tensor, eps: float = 1e-6) -> Tensor:
    """(v + eps) / sum(v + eps) for a nonnegative vector."""
    if v.data.ndim != 1:
        raise ShapeError(f"l1_normalize: need a vector, got shape {v.data.shape}")
    if v.data.min() < 0.0:
        raise NumericalError("l1_normalize: negative entry (input is expected to be post-relu)")
    u = v.data + eps
    s = u.sum()
    if s <= 0.0:
        raise NumericalError("l1_normalize: zero mass; use eps > 0 or a nonzero vector")
    y = u / s
    out = v.tape.leaf(y)

    def back():
        g = out.grad
        accumulate(v, (g - (g * y).sum()) / s)

    v.tape.record(back)
    return out


def batch_mean(X: Tensor) -> Tensor:
    """Mean over rows: [B, h] -> [h]."""
    if X.data.ndim != 2:
        raise ShapeError(f"batch_mean: need [B, h], got shape {X.data.shape}")
    n = X.data.shape[0]
    out = X.tape.leaf(X.data.mean(axis=0))

    def back():
        accumulate(X, np.repeat(out.grad[None, :] / n, n, axis=0))

    X.tape.record(back)
    return out


def embed_windows(E: Tensor, idx_win: np.ndarray) -> Tensor:
    """Gather and concatenate embedding rows for every window.

    idx_win is an integer array [..., l] of windows (the encoder passes its
    packed [n_valid, l] windows); the result is [n_windows, l * d] with each
    row the concatenation of the l embedding vectors of one window, in the
    row-major order of idx_win's leading axes. Backward sums the rows'
    gradients per (token, column) with one bincount, so repeated tokens
    accumulate correctly.
    """
    idx_win = np.asarray(idx_win)
    if idx_win.ndim < 2:
        raise ShapeError(f"embed_windows: window index array must be [..., l], got shape {idx_win.shape}")
    V, d = E.data.shape
    if idx_win.size and (idx_win.min() < 0 or idx_win.max() >= V):
        raise NumericalError(
            f"embed_windows: token index out of range [0, {V}) "
            f"(min {idx_win.min()}, max {idx_win.max()})"
        )
    out = E.tape.leaf(E.data[idx_win].reshape(-1, idx_win.shape[-1] * d))

    def back():
        flat = (idx_win.reshape(-1, 1) * d + np.arange(d)).ravel()
        accumulate(E, np.bincount(flat, weights=out.grad.ravel(), minlength=V * d).reshape(V, d))

    E.tape.record(back)
    return out


def conv_windows(E: Tensor, W: Tensor, b: Tensor, idx_win: np.ndarray) -> Tensor:
    """affine(embed_windows(E, idx_win), W, b), computed through the distinct
    tokens of idx_win.

    A window row is its l embedding rows side by side, so x W^T is
    sum_j E[w_j] W_j^T, W_j being the j-th block of d columns of W. Each of
    the U distinct tokens is projected once per slot, Q[u*l + j] =
    E[u] W_j^T, and an incidence matrix A ([n, U*l], a single 1 per window
    slot) adds up each window's l projections: y = A Q + b. In the encoder's
    windows every id is some position's own token or padding, so U <= n + 1
    and the projection GEMM has at most one row more than the window GEMM
    ([n, l*d] by [l*d, h]) it replaces. Backward reverses the
    factorisation: A^T gathers the output gradient per (token, slot), then
    one GEMM gives dW and one the touched rows of dE. Results agree with the
    window GEMM to rounding, not bit for bit, as the summation order differs.
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
        raise NumericalError(
            f"conv_windows: token index out of range [0, {V}) (min {flat.min()}, max {flat.max()})"
        )
    n = flat.size // l
    mark = np.zeros(V, dtype=bool)
    mark[flat] = True
    uniq = np.flatnonzero(mark)
    rank = np.empty(V, dtype=np.int64)
    rank[uniq] = np.arange(uniq.size)
    A = scipy.sparse.csr_array(
        (np.ones(flat.size), (rank[flat].reshape(n, l) * l + np.arange(l)).ravel(),
         np.arange(0, flat.size + 1, l)),
        shape=(n, uniq.size * l),
    )
    EU = E.data[uniq]
    M = W.data.reshape(h, l, d).transpose(2, 1, 0).reshape(d, l * h)  # M[:, j*h:(j+1)*h] = W_j^T
    y = A @ (EU @ M).reshape(-1, h)
    y += b.data
    out = tape.leaf(y)

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


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = tape.leaf(a.data + b.data)

    def back():
        accumulate(a, out.grad.copy())
        accumulate(b, out.grad.copy())

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


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.tape.leaf(c * x.data)

    def back():
        accumulate(x, c * out.grad)

    x.tape.record(back)
    return out


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    tol: float
    h: float
    worst_param: str = ""
    worst_index: int = -1
    per_param: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"gradient check: {verdict} (max rel error {self.max_rel_error:.3e}, tol {self.tol:.1e})"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name:12s} max rel error {err:.3e}")
        if not self.passed:
            lines.append(f"  worst: {self.worst_param}[{self.worst_index}]")
        return "\n".join(lines)


def grad_check(loss_fn, params: dict, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    loss_fn(tape, leaves) must build and return a scalar Tensor from the
    dict of leaf tensors; it must be deterministic (no dropout). Relative
    error per coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    work = {name: np.array(arr, dtype=np.float64) for name, arr in params.items()}

    def evaluate() -> float:
        tape = NoGradTape()
        leaves = {name: tape.leaf(arr) for name, arr in work.items()}
        out = loss_fn(tape, leaves)
        if out.data.shape != ():
            raise ShapeError(f"grad_check: loss_fn must return a scalar, got shape {out.data.shape}")
        if not np.isfinite(out.data):
            raise NumericalError("grad_check: loss is not finite")
        return float(out.data)

    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in work.items()}
    out = loss_fn(tape, leaves)
    if out.data.shape != ():
        raise ShapeError(f"grad_check: loss_fn must return a scalar, got shape {out.data.shape}")
    tape.backward(out)
    analytic = {name: leaves[name].grad.copy() for name in work}

    report = GradCheckReport(passed=True, max_rel_error=0.0, tol=tol, h=h)
    for name, arr in work.items():
        flat = arr.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = evaluate()
            flat[i] = orig - h
            f_minus = evaluate()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            rel = float(abs(a_flat[i] - numeric) / denom)
            if rel > worst:
                worst = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = i
        report.per_param[name] = worst
    report.passed = report.max_rel_error <= tol
    return report
