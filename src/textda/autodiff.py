"""Minimal reverse-mode automatic differentiation on a fixed op set.

A Tape records one forward computation as an ordered list of backward
closures; Tape.backward replays them in reverse, accumulating into each
tensor's .grad buffer, and drops each once it has run, so a consumed tape
holds no reference cycle and its tensors are freed by reference counting.
A gradient buffer is allocated on first accumulation, taking over the fresh
array the closure hands in. NoGradTape records nothing, for forward-only
passes. Everything is float64. The op set is what the classifier and its
losses need, each backward hand-derived and covered by grad_check (central
finite differences) in the test suite. The encoder's convolution and
max-over-time pooling are one op, conv_max_pool, which holds no array of
every window position on either tape and whose backward goes through the
winning windows only; it fills its windows from a projection of their
tokens (project), which a scoring pass builds once for all its batches.
embed_windows and max_over_time_batch, the unfused
steps, have no caller in the package; they stay because the benchmark's
tracer (perfbench/tracer.py) wraps them by name.

Conventions fixed here and relied on elsewhere:
  relu subgradient at 0 is 0; max pooling breaks ties toward the lowest
  position index; dropout is inverted (eval-mode forward is the identity);
  gradients of tensors a loss never touched stay exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ShapeError

__all__ = [
    "Tape",
    "NoGradTape",
    "Tensor",
    "accumulate",
    "affine",
    "relu",
    "softmax",
    "max_over_time_batch",
    "dropout",
    "l1_normalize",
    "batch_mean",
    "split_rows",
    "embed_windows",
    "Projection",
    "project",
    "conv_rows",
    "conv_max_pool",
    "add",
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
    """y = x W^T + b for a batch x [M, n]."""
    tape = _same_tape(x, W, b)
    if W.data.ndim != 2 or b.data.ndim != 1 or W.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"affine: W {W.data.shape} and b {b.data.shape} are inconsistent")
    if x.data.ndim != 2 or x.data.shape[1] != W.data.shape[1]:
        raise ShapeError(f"affine: W {W.data.shape} cannot multiply x {x.data.shape}")
    out = tape.leaf(x.data @ W.data.T + b.data)

    def back():
        g = out.grad
        accumulate(x, g @ W.data)
        accumulate(W, g.T @ x.data)
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


def _softmax_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-sum-exp [B, 1], log-softmax [B, C] and softmax [B, C] of logit rows."""
    m = x.max(axis=1, keepdims=True)
    z = x - m
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    log_total = np.log(total)
    return m + log_total, z - log_total, e / total


def softmax(x: Tensor) -> Tensor:
    """Stable softmax of each row of a logit batch [B, C]."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax: logits must be [B, C], got shape {x.data.shape}")
    p = _softmax_parts(x.data)[2]
    out = x.tape.leaf(p)

    def back():
        g = out.grad
        accumulate(x, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    x.tape.record(back)
    return out


def _packed_lengths(lengths, rows_shape: tuple, op: str, rows: str) -> np.ndarray:
    """lengths as int64, checked to split the [n, ·] packed rows of
    rows_shape into at least one document of at least one row each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size < 1 or lengths.min() < 1:
        raise ShapeError(f"{op}: bad lengths (shape {lengths.shape})")
    n_valid = int(lengths.sum())
    if len(rows_shape) != 2 or rows_shape[0] != n_valid:
        raise ShapeError(f"{op}: {rows} {rows_shape} does not hold {n_valid} packed rows")
    return lengths


def max_over_time_batch(H: Tensor, lengths: np.ndarray) -> Tensor:
    """Per-document column-wise max of packed rows: [sum(lengths), h] ->
    [n_docs, h].

    H holds each document's positions as consecutive rows, document-major:
    document k owns the lengths[k] rows from the sum of the earlier lengths.
    One argmax over each document's rows gives each filter's winning row,
    the lowest on ties, the maxima are gathered there and the backward
    writes to the winning rows. The encoder pools inside conv_max_pool
    instead; this op stays for the benchmark's tracer, which wraps it by
    name, and as the tests' unfused reference.
    """
    lengths = _packed_lengths(lengths, H.data.shape, "max_over_time_batch", "H")
    starts = np.cumsum(lengths) - lengths
    # np.argmax returns the first (lowest) maximizer
    winners = np.stack([H.data[s : s + n].argmax(axis=0) for s, n in zip(starts.tolist(), lengths.tolist())])
    winners += starts[:, None]
    cols = np.arange(H.data.shape[1])
    out = H.tape.leaf(H.data[winners, cols])

    def back():
        # each (row, filter) wins at most once, so a plain indexed write is exact
        g = np.zeros_like(H.data)
        g[winners, cols] = out.grad
        accumulate(H, g)

    H.tape.record(back)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: entries zeroed with probability `rate`, survivors
    scaled by 1/(1-rate). Rate 0 is eval mode: the same tensor back, no RNG
    draw."""
    if not (0.0 <= rate < 1.0):
        raise NumericalError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise NumericalError("dropout: a rate above 0 needs an rng")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = x.tape.leaf(x.data * keep)

    def back():
        accumulate(x, out.grad * keep)

    x.tape.record(back)
    return out


L1_EPS = 1e-6  # l1_normalize's smoothing: keeps every entry, and so J's logarithms, positive


def l1_normalize(v: Tensor) -> Tensor:
    """(v + L1_EPS) / sum(v + L1_EPS) for a nonnegative vector."""
    if v.data.ndim != 1:
        raise ShapeError(f"l1_normalize: need a vector, got shape {v.data.shape}")
    if v.data.min() < 0.0:
        raise NumericalError("l1_normalize: negative entry (input is expected to be post-relu)")
    u = v.data + L1_EPS
    s = u.sum()
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


def split_rows(x: Tensor, sizes) -> list[Tensor]:
    """Consecutive row blocks of x, sizes[k] rows for part k, which must
    cover x's rows. The backward concatenates the parts' gradients (zeros
    for a part no loss touched) into x's, so one op batches rows that
    different losses read."""
    sizes = [int(n) for n in sizes]
    if not sizes or min(sizes) < 1 or x.data.ndim < 1 or sum(sizes) != x.data.shape[0]:
        raise ShapeError(f"split_rows: parts of {sizes} rows do not cover x {x.data.shape}")
    parts = [x.tape.leaf(part) for part in np.split(x.data, np.cumsum(sizes)[:-1])]

    def back():
        accumulate(x, np.concatenate([part.grad for part in parts]))

    x.tape.record(back)
    return parts


def embed_windows(E: Tensor, windows: np.ndarray) -> Tensor:
    """Gather and concatenate embedding rows for every window.

    windows is an integer array [..., l] of token ids (the encoder's are
    packed, [n_valid, l]); the result is [n_windows, l * d] with each row the
    concatenation of the l embedding vectors of one window, in the row-major
    order of the leading axes. Backward sums the rows' gradients per (token,
    column) with one bincount, so repeated tokens accumulate correctly. The encoder projects distinct tokens instead
    (conv_max_pool); this op stays for the benchmark's tracer, which wraps
    it by name, and as the tests' oracle for the window rows.
    """
    windows = np.asarray(windows)
    if windows.ndim < 2:
        raise ShapeError(f"embed_windows: window index array must be [..., l], got shape {windows.shape}")
    V, d = E.data.shape
    if windows.size and (windows.min() < 0 or windows.max() >= V):
        raise NumericalError(
            f"embed_windows: token index out of range [0, {V}) "
            f"(min {windows.min()}, max {windows.max()})"
        )
    out = E.tape.leaf(E.data[windows].reshape(-1, windows.shape[-1] * d))

    def back():
        flat = (windows.reshape(-1, 1) * d + np.arange(d)).ravel()
        accumulate(E, np.bincount(flat, weights=out.grad.ravel(), minlength=V * d).reshape(V, d))

    E.tape.record(back)
    return out


# The convolution's forward fills a block of window rows at a time: at most
# CONV_BLOCK_ROWS rows and CONV_BLOCK_VALUES values, so at paper width
# (h = 300) a block and its scratch leave room in a 2 MB second-level cache
# for the projections they gather from.
CONV_BLOCK_ROWS = 256
CONV_BLOCK_VALUES = 128 * 300


def _block_rows(h: int) -> int:
    return min(CONV_BLOCK_ROWS, max(1, CONV_BLOCK_VALUES // h))


class Projection(NamedTuple):
    """Every slot projection of a set of distinct tokens (see project)."""

    tokens: np.ndarray  # [U] the projected token ids, ascending
    rank: np.ndarray  # [V] each token id's row in tokens, -1 for an id not projected
    Q: np.ndarray  # [U*l, h]: Q[u*l + j] = E[tokens[u]] W_j^T


def _check_conv(E: np.ndarray, W: np.ndarray, b: np.ndarray, windows: np.ndarray, op: str) -> np.ndarray:
    """windows as [n, l] after checking that W and b fit windows of its l
    rows of E."""
    windows = np.asarray(windows)
    if windows.ndim < 2 or windows.shape[-1] < 1:
        raise ShapeError(f"{op}: window index array must be [..., l], got shape {windows.shape}")
    l = windows.shape[-1]
    if W.ndim != 2 or b.ndim != 1 or W.shape != (b.shape[0], l * E.shape[1]):
        raise ShapeError(f"{op}: W {W.shape} and b {b.shape} do not fit windows of {l} rows of E {E.shape}")
    return windows.reshape(-1, l)


def _check_ids(ids: np.ndarray, V: int, op: str) -> np.ndarray:
    flat = np.asarray(ids).reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= V):
        raise NumericalError(f"{op}: token index out of range [0, {V}) (min {flat.min()}, max {flat.max()})")
    return flat


def project(E: np.ndarray, W: np.ndarray, ids: np.ndarray, op: str = "project"):
    """Project each distinct token of ids once per window slot, by one GEMM.

    A window row is its l embedding rows side by side, so x W^T is
    sum_j E[w_j] W_j^T, W_j being the j-th block of d columns of W [h, l*d].
    Returns the Projection of the U distinct ids, plus E[tokens] and M (W's
    slot blocks side by side, M[:, j*h:(j+1)*h] = W_j^T), which only a
    backward needs. In the encoder's windows every id is some position's own
    token or padding, so U <= n + 1. A GEMM's rounding can depend on the set
    of rows it multiplies, so a projection's bits depend on its whole token
    set, not only on the row a window reads."""
    V, d = E.shape
    h, l = W.shape[0], W.shape[1] // d
    mark = np.zeros(V, dtype=bool)
    mark[_check_ids(ids, V, op)] = True
    tokens = np.flatnonzero(mark)
    rank = np.full(V, -1, dtype=np.int64)
    rank[tokens] = np.arange(tokens.size)
    EU = E[tokens]
    M = W.reshape(h, l, d).transpose(2, 1, 0).reshape(d, l * h)
    return Projection(tokens, rank, (EU @ M).reshape(-1, h)), EU, M


def _filler(projection: Projection, windows: np.ndarray, b: np.ndarray, op: str, filters=slice(None)):
    """ranks [n, l], each window slot's row of projection.tokens, and
    fill(out, start, stop), which writes the pre-activations of window rows
    start..stop-1 into out for the given filters (all by default): for
    window i, the sum over slots j of Q[ranks[i, j]*l + j], plus b. The
    filters' columns of Q are taken after the GEMM, since a GEMM over fewer
    rows of W can round differently. Refuses an id the projection does not
    hold: the fill gathers without an index check, so such an id would read
    another token's row."""
    ranks = projection.rank[_check_ids(windows, projection.rank.size, op)].reshape(windows.shape)
    if ranks.size and ranks.min() < 0:
        raise NumericalError(f"{op}: token {windows[ranks < 0][0]} has no row in the projection")
    Q, b = projection.Q[:, filters], b[filters]
    n, l = ranks.shape
    ids = np.ascontiguousarray((ranks * l + np.arange(l)).T)  # one contiguous run of Q rows per slot
    block = _block_rows(b.size)
    part = np.empty((min(n, block), b.size))

    def fill(out: np.ndarray, start: int, stop: int) -> None:
        # Slot 0's projections are gathered straight into out, each later
        # slot's into part and added, then b: a CSR incidence product's
        # additions, in its order, without the zero-filled output it starts
        # from. mode="clip" skips the index check (the ids are checked
        # above) and, unlike "raise", writes into out without a buffer.
        for lo in range(start, stop, block):
            m = min(block, stop - lo)
            rows = out[lo - start : lo - start + m]
            np.take(Q, ids[0, lo : lo + m], axis=0, out=rows, mode="clip")
            for slot in ids[1:, lo : lo + m]:
                np.take(Q, slot, axis=0, out=part[:m], mode="clip")
                rows += part[:m]
            rows += b

    return ranks, fill


def conv_rows(E: np.ndarray, W: np.ndarray, b: np.ndarray, windows: np.ndarray, filters=slice(None)) -> np.ndarray:
    """The pre-activations [n, h'] of every window, x W^T + b, for the
    given filters (all h by default), projected and filled as conv_max_pool
    does, so bit-equal to the values it pools. Plain arrays, no tape: for
    filter analysis, which scores each distinct window of its corpora once."""
    windows = _check_conv(E, W, b, windows, "conv_rows")
    ranks, fill = _filler(project(E, W, windows, "conv_rows")[0], windows, b, "conv_rows", filters)
    Z = np.empty((ranks.shape[0], b[filters].size))
    fill(Z, 0, Z.shape[0])
    return Z


def conv_max_pool(E: Tensor, W: Tensor, b: Tensor, windows: np.ndarray, lengths: np.ndarray,
                  projection: Projection | None = None) -> Tensor:
    """Per-document column maxima [n_docs, h] of the convolution of packed
    windows, max_over_time_batch(affine(embed_windows(E, windows), W, b),
    lengths), holding no [n, h] array on either tape.

    The window rows are filled from a projection of their tokens (project):
    by default that of the windows' own distinct tokens. A NoGradTape may be
    given a projection built once for many calls, a scoring pass's, which
    must hold every id of the windows; a recording tape projects its own,
    since its backward's G is sized to them.

    The forward fills one reused buffer a block at a time (_filler) and
    pools each block while it is in cache; a block is whole documents of at
    most _block_rows(h) rows, or one longer document alone. A NoGradTape
    takes one max per run of k equal-length documents, over a [k, L, h]
    view (callers that sort a batch by length make runs longest); a
    recording tape takes one argmax per document, the lowest row on ties,
    and gathers the maxima there. Max selects without rounding, so both
    tapes give the same bits, and a NaN row gives its document a NaN maximum.

    The backward goes through the winning windows only. G [U, l*h] holds in
    G[u, j*h + f] the sum, in document order, of the maxima's gradient gv
    over the documents whose winning window for filter f reads token u in
    slot j; one bincount per slot j (bins u*h + f, weights gv) fills its
    column block. Then one GEMM gives dW, one the touched rows of dE, and
    db = gv.sum(0). These are the nonzero terms of the incidence product
    over all n rows, in its order, so the bits are the same. The per-slot
    bincounts keep the backward's temporaries at [n_docs, h] and [U, h]:
    one bincount over [n_docs, h, l] bins, with gv repeated l times, made
    temporaries large enough that the allocator returned them to the
    system and faulted them in again on every step.
    """
    tape = _same_tape(E, W, b)
    record = not isinstance(tape, NoGradTape)
    windows = _check_conv(E.data, W.data, b.data, windows, "conv_max_pool")
    if projection is None:
        projection, EU, M = project(E.data, W.data, windows, "conv_max_pool")
    elif record:
        raise NumericalError("conv_max_pool: a recording tape projects its own windows' tokens")
    ranks, fill = _filler(projection, windows, b.data, "conv_max_pool")
    lens = _packed_lengths(lengths, ranks.shape, "conv_max_pool", "windows")
    starts = np.cumsum(lens) - lens
    lens = lens.tolist()
    n_docs, h = len(lens), W.data.shape[0]
    block = _block_rows(h)
    buf = np.empty((min(ranks.shape[0], max(block, max(lens))), h))
    maxima = np.empty((n_docs, h))
    if record:
        winners = np.empty((n_docs, h), dtype=np.int64)  # each filter's winning row per document
        cols = np.arange(h)
    lo = start = 0
    while lo < n_docs:
        # the block: documents lo..hi-1, rows start..stop-1
        hi, stop = lo + 1, start + lens[lo]
        while hi < n_docs and stop + lens[hi] - start <= block:
            stop += lens[hi]
            hi += 1
        rows = buf[: stop - start]
        fill(rows, start, stop)
        if record:
            first = starts[lo:hi] - start
            # np.argmax returns the first (lowest) maximizer
            win = np.stack([rows[s : s + n].argmax(axis=0) for s, n in zip(first.tolist(), lens[lo:hi])])
            win += first[:, None]
            maxima[lo:hi] = rows[win, cols]
            np.add(win, start, out=winners[lo:hi])
        else:
            doc, s = lo, 0
            for L, run in groupby(lens[lo:hi]):
                k = len(list(run))
                np.max(rows[s : s + k * L].reshape(k, L, h), axis=1, out=maxima[doc : doc + k])
                doc, s = doc + k, s + k * L
        lo, start = hi, stop
    out = tape.leaf(maxima)
    if not record:
        return out
    tokens = projection.tokens  # the backward holds these, not Q

    def back():
        gv = out.grad
        weights = gv.ravel()
        U, l, d = tokens.size, ranks.shape[1], E.data.shape[1]
        G = np.empty((U, l * h))
        for j in range(l):
            # bin u*h + f: token u in slot j of filter f's winning window
            bins = ranks[:, j][winners] * h + cols  # [n_docs, h]
            G[:, j * h : (j + 1) * h] = np.bincount(bins.ravel(), weights=weights, minlength=U * h).reshape(U, h)
        accumulate(W, (EU.T @ G).reshape(d, l, h).transpose(2, 1, 0).reshape(h, l * d))
        accumulate(b, gv.sum(axis=0))
        dE = np.zeros_like(E.data)
        dE[tokens] = G @ M.T
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


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.tape.leaf(c * x.data)

    def back():
        accumulate(x, c * out.grad)

    x.tape.record(back)
    return out


GRAD_CHECK_H, GRAD_CHECK_TOL = 1e-5, 1e-4  # grad_check's step h and tolerance tol
# grad_check's allowance for rounding, in units of eps * max(|f+|, |f-|) / h; on seeds 0-99
# of `textda gradcheck` clean checks need at most 47, W gradients off by 1e-3 exceed 1.3e5
ROUNDING_ALLOWANCE = 256.0


@dataclass
class GradCheckReport:
    passed: bool
    max_rel_error: float
    worst_param: str = ""
    worst_index: int = -1
    per_param: dict = field(default_factory=dict)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"gradient check: {verdict} (max rel error {self.max_rel_error:.3e}, tol {GRAD_CHECK_TOL:.1e})"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name:12s} max rel error {err:.3e}")
        if not self.passed:
            lines.append(f"  worst: {self.worst_param}[{self.worst_index}]")
        return "\n".join(lines)


def grad_check(loss_fn, params: dict) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    loss_fn(tape, leaves) must build and return a scalar Tensor from the
    dict of leaf tensors; it must be deterministic (no dropout). With h =
    GRAD_CHECK_H and tol = GRAD_CHECK_TOL, a coordinate with tape gradient a
    and difference quotient n = (f+ - f-) / 2h passes when
    |a - n| <= tol * max(|a|, |n|) + r, where r = ROUNDING_ALLOWANCE * eps *
    max(|f+|, |f-|) / h bounds n's rounding, all n holds where the true gradient
    is 0. Its error, |a - n| / (max(|a|, |n|) + r / tol), is at most tol then.
    """
    work = {name: np.array(arr, dtype=np.float64) for name, arr in params.items()}

    def build(tape: Tape) -> tuple[Tensor, dict]:
        leaves = {name: tape.leaf(arr) for name, arr in work.items()}
        out = loss_fn(tape, leaves)
        if out.data.shape != ():
            raise ShapeError(f"grad_check: loss_fn must return a scalar, got shape {out.data.shape}")
        return out, leaves

    def evaluate() -> float:
        out, _ = build(NoGradTape())
        if not np.isfinite(out.data):
            raise NumericalError("grad_check: loss is not finite")
        return float(out.data)

    out, leaves = build(Tape())
    out.tape.backward(out)
    analytic = {name: leaves[name].grad.copy() for name in work}

    report = GradCheckReport(passed=True, max_rel_error=0.0)
    floor_per_loss = ROUNDING_ALLOWANCE * np.finfo(np.float64).eps / (GRAD_CHECK_H * GRAD_CHECK_TOL)  # r / tol per |f|
    for name, arr in work.items():
        flat = arr.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_H
            f_plus = evaluate()
            flat[i] = orig - GRAD_CHECK_H
            f_minus = evaluate()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_H)
            diff = abs(a_flat[i] - numeric)
            floor = floor_per_loss * max(abs(f_plus), abs(f_minus))
            rel = float(diff / (max(abs(a_flat[i]), abs(numeric)) + floor)) if diff else 0.0
            worst = max(worst, rel)
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = name
                report.worst_index = i
        report.per_param[name] = worst
    report.passed = report.max_rel_error <= GRAD_CHECK_TOL
    return report
