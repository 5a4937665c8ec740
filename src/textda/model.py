"""One-layer CNN text classifier.

encode: embedding lookup, window concatenation (window l, "same" padding of
(l-1)/2 positions per side), affine per position, max-over-time pooling,
ReLU, dropout on the pooled features xi. The ReLU runs after the pooling:
it is monotone and selects without rounding, so relu(max z) == max relu(z)
bit for bit, and the ReLU and its backward touch [B, h] instead of
[n_valid, h]. classify: the logit head F_w xi + F_b, which the losses take
directly; only forward_eval applies the softmax, to report class
probabilities. The encoding keeps xi and the window ids idx_win, not the
per-position activations: filter analysis, which traces filters back to
the trigrams that fire them, gets those from window_activations.

The encoder works on packed rows: of the padded [B, P] id matrix it keeps
only the windows of each document's own positions, [n_valid, l] in
document-major order, so the convolution never touches a padding position,
and max-over-time pools each document's contiguous segment of rows. Padding
ids still fill the window slots past a document's edges ("same" padding).
The convolution and the pooling are one op (autodiff.conv_max_pool), which
projects each distinct token of the batch once per window slot by one GEMM,
adds up each window's l slot projections a block of rows at a time and
pools each block while it is in cache, so no [n_valid, h] array is built on
either tape. A training pass keeps each document's winning rows, and its
backward goes through those windows only. Training and scoring run on
numpy alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import LABELS, PAD_INDEX
from .errors import ConfigError, DataError, NumericalError

__all__ = [
    "ModelParams",
    "EncodedBatch",
    "init_params",
    "build_windows",
    "encode_batch",
    "classify",
    "forward_eval",
    "window_activations",
    "apply_max_norm",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 1
PARAM_ORDER = ("E", "W", "b", "F_w", "F_b")


@dataclass
class ModelParams:
    """E [V, d] embeddings; W [h, l*d], b [h] convolution; F_w [C, h], F_b [C]
    output head, C = len(LABELS); window is the convolution width l."""

    E: np.ndarray
    W: np.ndarray
    b: np.ndarray
    F_w: np.ndarray
    F_b: np.ndarray
    window: int

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and >= 1, got {self.window}")
        V, d = self.E.shape
        h, ld = self.W.shape
        if ld != self.window * d:
            raise ConfigError(f"W expects rows of length window*d = {self.window * d}, got {ld}")
        if self.b.shape != (h,) or self.F_w.shape[1] != h or self.F_b.shape != (self.F_w.shape[0],):
            raise ConfigError("inconsistent parameter shapes")
        if self.F_w.shape[0] != len(LABELS):
            raise ConfigError(f"the output head must have one row per class of {LABELS}, got {self.F_w.shape[0]}")

    @property
    def vocab_size(self) -> int:
        return self.E.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.E.shape[1]

    @property
    def hidden(self) -> int:
        return self.W.shape[0]

    @property
    def n_classes(self) -> int:
        return self.F_w.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    def copy(self) -> "ModelParams":
        return ModelParams(window=self.window, **{name: arr.copy() for name, arr in self.arrays().items()})

    def leaves(self, tape: ad.Tape) -> dict[str, ad.Tensor]:
        return {name: tape.leaf(arr) for name, arr in self.arrays().items()}


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_out, fan_in))


def init_params(embeddings: np.ndarray, window: int, hidden: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weight matrices, zero biases; the embedding matrix is
    taken as provided (pretrained or random-initialized by the loader)."""
    E = np.array(embeddings, dtype=np.float64)
    if E.ndim != 2:
        raise ConfigError(f"embeddings must be 2-D, got shape {E.shape}")
    d = E.shape[1]
    W = _glorot(rng, hidden, window * d)
    F_w = _glorot(rng, len(LABELS), hidden)
    return ModelParams(E=E, W=W, b=np.zeros(hidden), F_w=F_w, F_b=np.zeros(len(LABELS)), window=window)


def build_windows(mat: np.ndarray, window: int) -> np.ndarray:
    """Window token-index array [B, P, l] with "same" padding, so position i
    covers tokens i-(l-1)/2 .. i+(l-1)/2 (out-of-range slots are PAD)."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    B, P = mat.shape
    half = (window - 1) // 2
    padded = np.full((B, P + 2 * half), PAD_INDEX, dtype=np.int64)
    padded[:, half : half + P] = mat
    idx_win = np.empty((B, P, window), dtype=np.int64)
    for j in range(window):
        idx_win[:, :, j] = padded[:, j : j + P]
    return idx_win


@dataclass
class EncodedBatch:
    xi: ad.Tensor            # [B, h] pooled features, after the ReLU (and dropout at a rate above 0)
    idx_win: np.ndarray      # [n_valid, l] token indices of the valid positions' windows


def _packed_windows(mat: np.ndarray, lengths: np.ndarray, window: int) -> np.ndarray:
    """The windows [n_valid, l] of each document's own positions, document-major."""
    valid = np.arange(mat.shape[1]) < lengths[:, None]
    # ids past a document's length read as padding, so its windows see only its own tokens
    return build_windows(np.where(valid, mat, PAD_INDEX), window)[valid]


def encode_batch(
    tape: ad.Tape,
    leaves: dict[str, ad.Tensor],
    mat: np.ndarray,
    lengths: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> EncodedBatch:
    idx_win = _packed_windows(mat, lengths, leaves["W"].data.shape[1] // leaves["E"].data.shape[1])
    pooled = ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], idx_win, lengths)  # [B, h]
    xi = ad.dropout(ad.relu(pooled), dropout_rate, rng)
    return EncodedBatch(xi=xi, idx_win=idx_win)


def classify(tape: ad.Tape, leaves: dict[str, ad.Tensor], xi: ad.Tensor) -> ad.Tensor:
    """Class logit rows: F_w xi + F_b."""
    return ad.affine(xi, leaves["F_w"], leaves["F_b"])


def forward_eval(params: ModelParams, mat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, EncodedBatch]:
    """Deterministic eval-mode forward pass (dropout off); returns the class
    probabilities as a plain array plus the encoding. Its tape records
    nothing: the pass cannot be differentiated and pooling keeps only the
    maxima. A row depends on its batch mates only through the batch's set
    of distinct tokens, so reordering a batch's documents leaves every
    row's bits as they were. Raises
    NumericalError naming the first row whose probabilities are not finite
    (finite but huge parameters overflow), since argmax reads a NaN row as
    class 0."""
    tape = ad.NoGradTape()
    leaves = params.leaves(tape)
    enc = encode_batch(tape, leaves, mat, lengths)
    probs = ad.softmax(classify(tape, leaves, enc.xi)).data
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise NumericalError(f"forward_eval: class probabilities of batch row {bad[0]} are not finite "
                             f"({bad.size} of {len(probs)} rows)")
    return probs, enc


def window_activations(params: ModelParams, mat: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window ids [n_valid, l] of every valid position and its post-ReLU
    activations [n_valid, h], bit-equal to the values the encoder pools.
    The one [n_valid, h] array the package builds, for filter analysis.
    Raises NumericalError naming the first batch row with a non-finite
    activation."""
    idx_win = _packed_windows(mat, lengths, params.window)
    H = np.maximum(ad.conv_rows(params.E, params.W, params.b, idx_win), 0.0)
    bad = np.flatnonzero(~np.isfinite(H).all(axis=1))
    if bad.size:
        row = int(np.searchsorted(np.cumsum(lengths), bad[0], side="right"))  # the packed row's document
        raise NumericalError(f"window_activations: activations of batch row {row} are not finite")
    return idx_win, H


def apply_max_norm(rows: np.ndarray, max_norm: float = 3.0) -> None:
    """Project each row onto the L2 ball of radius max_norm (the paper's 3.0), in place."""
    if not (max_norm > 0.0):
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    norms = np.sqrt((rows * rows).sum(axis=1))
    over = norms > max_norm
    if over.any():
        rows[over] *= (max_norm / norms[over])[:, None]


def save_checkpoint(params: ModelParams, vocab_hash: str, path) -> None:
    """Header line of JSON (format version, dimensions, vocab content hash)
    followed by the parameter arrays as little-endian float64, in the fixed
    order E, W, b, F_w, F_b."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "vocab_size": params.vocab_size,
        "embedding_dim": params.embedding_dim,
        "window": params.window,
        "hidden": params.hidden,
        "n_classes": params.n_classes,
        "vocab_hash": vocab_hash,
    }
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in PARAM_ORDER:
            arr = params.arrays()[name]
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"checkpoint not found: {p}")
    with p.open("rb") as fh:
        line = fh.readline()
    if not line.endswith(b"\n"):
        raise DataError(f"checkpoint {p}: missing header line")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"checkpoint {p}: bad header ({e})") from e
    if not isinstance(header, dict):
        raise DataError(f"checkpoint {p}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"checkpoint {p}: unsupported format version {header.get('format_version')!r}")
    dims = ("vocab_size", "embedding_dim", "window", "hidden", "n_classes")
    for key in dims:
        if type(header.get(key)) is not int or header[key] < 1:
            raise DataError(f"checkpoint {p}: header field {key!r} must be a positive int, got {header.get(key)!r}")
    if not isinstance(header.get("vocab_hash"), str):
        raise DataError(f"checkpoint {p}: header field 'vocab_hash' must be a string, "
                        f"got {header.get('vocab_hash')!r}")
    V, d, l, h, C = (header[key] for key in dims)
    shapes = {"E": (V, d), "W": (h, l * d), "b": (h,), "F_w": (C, h), "F_b": (C,)}
    found = p.stat().st_size - len(line)
    need = sum(int(np.prod(s)) for s in shapes.values()) * 8
    if found != need:
        raise DataError(f"checkpoint {p}: expected {need} bytes of parameters, found {found}")
    # Each array is read straight into its own buffer: a whole-file read and
    # its body slice would hold a paper-width E (24 MB) three times, and in
    # a process that loads many checkpoints such transients fragment the
    # malloc heap, so peak memory drifts from run to run.
    arrays = {}
    with p.open("rb") as fh:
        fh.seek(len(line))
        for name in PARAM_ORDER:
            arr = np.empty(shapes[name], dtype="<f8")
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise DataError(f"checkpoint {p}: parameter {name} is cut short")
            if not np.isfinite(arr).all():
                raise DataError(f"checkpoint {p}: parameter {name} has non-finite values")
            arrays[name] = arr.astype(np.float64, copy=False)
    try:
        return ModelParams(window=l, **arrays), header
    except ConfigError as e:
        raise DataError(f"checkpoint {p}: {e}") from e
