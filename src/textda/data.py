"""Corpora, vocabulary, embeddings, and minibatch streams.

Corpus files are JSONL: every line carries "text" plus exactly one of
"rating" (mapped to a label by a named scheme) or "label" (one of the three
sentiment classes). Loading never filters documents, so label distributions
are preserved exactly as they appear on disk.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from hashlib import sha256
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, TextdaError

__all__ = [
    "LABELS",
    "LABEL_TO_INDEX",
    "PAD_INDEX",
    "UNK_INDEX",
    "read_lines",
    "tokenize",
    "map_rating_to_label",
    "Document",
    "Corpus",
    "load_corpus",
    "save_corpus",
    "Vocab",
    "build_vocab",
    "load_pretrained_embeddings",
    "split_dev",
    "BatchTriple",
    "BatchStream",
    "pad_batch",
]

LABELS = ("negative", "neutral", "positive")
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1

# lowercased alphanumeric runs; every other non-space character is its own token
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

RATING_SCHEMES = ("amazon5", "imdb10")


def read_lines(path: Path, error: type[TextdaError] = DataError):
    """Yield (line number, text) of each line of a UTF-8 file, decoded on its
    own, so bytes that are not UTF-8 are refused naming the file and line.
    A byte-order mark opening the file is dropped, as the utf-8-sig codec does.
    A path that is not a file is refused with `error`, naming the path."""
    if not path.is_file():
        raise error(f"{path}: file not found")
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise error(f"{path}: line {lineno}: not valid UTF-8 "
                            f"(byte {raw[e.start]:#04x} at offset {e.start}: {e.reason})") from e
            yield lineno, text.removeprefix("\ufeff") if lineno == 1 else text


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def map_rating_to_label(rating: float, scheme: str) -> str:
    """Total mapping from a numeric rating to a class label.

    amazon5 (range [1, 5]): < 3 negative, > 3 positive, = 3 neutral.
    imdb10 (range [1, 10]): < 5 negative, > 6 positive, 5 <= r <= 6 neutral.
    """
    r = float(rating)
    if scheme == "amazon5":
        if not (1.0 <= r <= 5.0):
            raise DataError(f"rating {r} outside [1, 5] for scheme amazon5")
        return "negative" if r < 3.0 else ("positive" if r > 3.0 else "neutral")
    if scheme == "imdb10":
        if not (1.0 <= r <= 10.0):
            raise DataError(f"rating {r} outside [1, 10] for scheme imdb10")
        return "negative" if r < 5.0 else ("positive" if r > 6.0 else "neutral")
    raise ConfigError(f"unknown rating scheme {scheme!r}; expected one of {RATING_SCHEMES}")


@dataclass
class Document:
    tokens: tuple[str, ...]
    label: str | None
    rating: float | None


@dataclass
class Corpus:
    docs: list[Document]
    domain: str

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def label_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in LABELS}
        for doc in self.docs:
            if doc.label is not None:
                counts[doc.label] += 1
        return counts

    def label_indices(self) -> np.ndarray:
        """Integer class per document; requires every document labeled."""
        out = np.empty(len(self.docs), dtype=np.int64)
        for i, doc in enumerate(self.docs):
            if doc.label is None:
                raise DataError(f"document {i} in corpus {self.domain!r} has no label")
            out[i] = LABEL_TO_INDEX[doc.label]
        return out


def load_corpus(path, domain: str, scheme: str | None = None) -> Corpus:
    """Read a JSONL corpus. Rating-bearing lines require `scheme`."""
    p = Path(path)
    docs: list[Document] = []
    for lineno, line in read_lines(p):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{p}: line {lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(rec, dict) or not isinstance(rec.get("text"), str):
            raise DataError(f"{p}: line {lineno}: expected an object with a string 'text' field")
        has_rating = "rating" in rec
        has_label = "label" in rec
        if has_rating == has_label:
            raise DataError(f"{p}: line {lineno}: need exactly one of 'rating' or 'label'")
        rating: float | None = None
        if has_rating:
            if not isinstance(rec["rating"], (int, float)) or isinstance(rec["rating"], bool):
                raise DataError(f"{p}: line {lineno}: 'rating' must be a number")
            if scheme is None:
                raise DataError(f"{p}: line {lineno}: rating-labeled corpus needs a rating scheme")
            rating = float(rec["rating"])
            try:
                label = map_rating_to_label(rating, scheme)
            except DataError as e:
                raise DataError(f"{p}: line {lineno}: {e}") from e
        else:
            label = rec["label"]
            if label not in LABELS:
                raise DataError(f"{p}: line {lineno}: label {label!r} not in {LABELS}")
        tokens = tuple(tokenize(rec["text"]))
        if not tokens:
            raise DataError(f"{p}: line {lineno}: document has no tokens")
        docs.append(Document(tokens=tokens, label=label, rating=rating))
    if not docs:
        raise DataError(f"{p}: corpus has no documents")
    return Corpus(docs=docs, domain=domain)


def save_corpus(corpus: Corpus, path) -> None:
    """Write JSONL; rating is preserved when present, otherwise the label.
    Reloading with the same scheme reproduces the documents exactly."""
    p = Path(path)
    with p.open("w", encoding="utf-8") as fh:
        for doc in corpus.docs:
            rec: dict = {"text": " ".join(doc.tokens)}
            if doc.rating is not None:
                rec["rating"] = doc.rating
            else:
                rec["label"] = doc.label
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class Vocab:
    """Index 0 is padding, index 1 the unknown token; content follows by
    descending corpus frequency (ties by first occurrence)."""

    itos: list[str]
    stoi: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.itos) < 2 or self.itos[0] != PAD_TOKEN or self.itos[1] != UNK_TOKEN:
            raise DataError(f"vocab must start with {PAD_TOKEN!r}, {UNK_TOKEN!r}")
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            seen = set()
            for line, tok in enumerate(self.itos, start=1):
                if tok in seen:
                    raise DataError(f"vocab line {line}: duplicate token {tok!r}")
                seen.add(tok)

    def __len__(self) -> int:
        return len(self.itos)

    def encode(self, docs, max_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed token ids of a sequence of token sequences, each truncated
        to max_len, unknowns mapped to UNK_INDEX: (ids, lengths), int64,
        document k's ids being the lengths[k] after those of the documents
        before it. One pass over all the tokens, with no array per document."""
        if max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {max_len}")
        cut = [doc[:max_len] for doc in docs]
        lengths = np.fromiter(map(len, cut), dtype=np.int64, count=len(cut))
        ids = np.fromiter(map(self.stoi.get, chain.from_iterable(cut), repeat(UNK_INDEX)),
                          dtype=np.int64, count=int(lengths.sum()))
        return ids, lengths

    def content_hash(self) -> str:
        return sha256("\n".join(self.itos).encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.itos) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        p = Path(path)
        itos = [line.rstrip("\r\n") for _, line in read_lines(p)]
        try:
            return cls(itos=itos)
        except DataError as e:
            raise DataError(f"{p}: {e}") from e


def build_vocab(corpora, size: int) -> Vocab:
    """Top `size` content tokens by frequency over all given corpora, plus the
    two reserved entries. Deterministic: frequency ties break by first
    occurrence order."""
    if size < 1:
        raise ConfigError(f"vocab size must be >= 1, got {size}")
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    pos = 0
    for corpus in corpora:
        for doc in corpus:
            for tok in doc.tokens:
                if tok not in counts:
                    counts[tok] = 0
                    first[tok] = pos
                counts[tok] += 1
                pos += 1
    ranked = sorted(counts, key=lambda t: (-counts[t], first[t]))
    return Vocab(itos=[PAD_TOKEN, UNK_TOKEN] + ranked[:size])


def load_pretrained_embeddings(path, vocab: Vocab, dim: int, rng: np.random.Generator):
    """Embedding matrix [len(vocab), dim].

    Every row starts uniform in [-0.25, 0.25] (the out-of-vocabulary rule),
    the padding row is zeroed, then rows found in the text file are
    overwritten. Each line is a token and dim floats separated by single
    spaces, parsed from the right: the last dim fields are the vector and
    the rest, joined by spaces, is the token (GloVe's layout; a token may
    contain spaces). Trailing whitespace is ignored, as after each vector of
    a fastText .vec file, and so is a first line of exactly two integers
    whose second is dim (the "count dim" header of word2vec and fastText
    files). Blank lines are skipped; any other line that does not parse is a
    DataError naming the file and line, and so is a vocabulary token's second
    line (a repeat is refused, as in vocab and config files) and a file that
    matches no vocabulary token. A line after the first with exactly dim
    spaces, whose token has none, is skipped unsplit when that token is not
    in the vocabulary. path=None keeps the random initialization.
    Returns (matrix, number of vocab tokens found).
    """
    if dim < 1:
        raise ConfigError(f"embedding dim must be >= 1, got {dim}")
    E = rng.uniform(-0.25, 0.25, size=(len(vocab), dim))
    E[PAD_INDEX] = 0.0
    if path is None:
        return E, 0
    p = Path(path)
    first_line: dict[int, int] = {}  # vocab index -> line of its vector
    for lineno, line in read_lines(p):
        line = line.rstrip()
        if not line:
            continue
        if lineno > 1 and line.count(" ") == dim \
                and vocab.stoi.get(line[: line.index(" ")], PAD_INDEX) == PAD_INDEX:
            continue
        parts = line.split(" ")
        if lineno == 1 and len(parts) == 2 and all(f.isascii() and f.isdigit() for f in parts) \
                and int(parts[1]) == dim:
            continue
        if len(parts) < dim + 1:
            raise DataError(f"{p}: line {lineno}: expected {dim} values after the token, got "
                            f"{len(parts) - 1} (fields are separated by single spaces)")
        token = " ".join(parts[:-dim])
        idx = vocab.stoi.get(token)
        if idx is None or idx == PAD_INDEX:
            continue
        if idx in first_line:
            raise DataError(f"{p}: line {lineno}: duplicate token {token!r} (first on line {first_line[idx]})")
        first_line[idx] = lineno
        try:
            E[idx] = [float(v) for v in parts[-dim:]]
        except ValueError as e:
            raise DataError(f"{p}: line {lineno}: non-numeric embedding value") from e
        if not np.isfinite(E[idx]).all():
            raise DataError(f"{p}: line {lineno}: non-finite embedding value")
    if not first_line:
        raise DataError(f"{p}: no line matches a vocabulary token (are its vectors {dim}-d?)")
    return E, len(first_line)


def split_dev(corpus: Corpus, n_dev: int, rng: np.random.Generator) -> tuple[Corpus, Corpus]:
    """Sample n_dev documents as a development set; both halves keep the
    original document order."""
    n = len(corpus)
    if not (0 < n_dev < n):
        raise ConfigError(f"n_dev must be in (0, {n}), got {n_dev}")
    chosen = rng.choice(n, size=n_dev, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    dev = [corpus.docs[i] for i in range(n) if mask[i]]
    train = [corpus.docs[i] for i in range(n) if not mask[i]]
    return Corpus(train, corpus.domain), Corpus(dev, corpus.domain)


@dataclass
class BatchTriple:
    """Positions into the three pools for one iteration: labeled source,
    target, and the union of all training documents (global indices, used for
    ensemble bookkeeping)."""

    source_idx: np.ndarray
    target_idx: np.ndarray
    union_idx: np.ndarray


class _Cycler:
    """Endless sampler over a fixed index pool; reshuffles on exhaustion."""

    def __init__(self, indices: np.ndarray, rng: np.random.Generator):
        if len(indices) == 0:
            raise DataError("cannot sample from an empty pool")
        self._pool = np.asarray(indices, dtype=np.int64)
        self._rng = rng
        self._order = np.empty(0, dtype=np.int64)
        self._pos = 0

    def take(self, k: int) -> np.ndarray:
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            if self._pos >= len(self._order):
                self._order = self._rng.permutation(self._pool)
                self._pos = 0
            n = min(k - filled, len(self._order) - self._pos)
            out[filled : filled + n] = self._order[self._pos : self._pos + n]
            self._pos += n
            filled += n
        return out


class BatchStream:
    """Yields BatchTriples. One epoch is floor(n_union / batch_size)
    iterations; the union pool is visited without repetition inside an epoch
    (the remainder is dropped), while source and target pools cycle with
    reshuffling. The labeled-source slots always round-robin the classes
    present, so per-class counts in a batch differ by at most one."""

    def __init__(
        self,
        source_labels: np.ndarray,
        n_target: int,
        n_union: int,
        batch_size: int,
        rng: np.random.Generator,
    ):
        source_labels = np.asarray(source_labels, dtype=np.int64)
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if n_union < batch_size:
            raise ConfigError(f"union pool ({n_union}) smaller than one batch ({batch_size})")
        if n_target < 1 or len(source_labels) < 1:
            raise DataError("source and target pools must be nonempty")
        self.batch_size = batch_size
        self.n_union = n_union
        self._rng = rng
        self._target = _Cycler(np.arange(n_target), rng)
        self._source_classes = [
            _Cycler(np.flatnonzero(source_labels == c), rng) for c in np.unique(source_labels)
        ]

    def iterations_per_epoch(self) -> int:
        return self.n_union // self.batch_size

    def _take_source(self, k: int) -> np.ndarray:
        n_cls = len(self._source_classes)
        counts = [k // n_cls + (1 if r < k % n_cls else 0) for r in range(n_cls)]
        out = np.empty(k, dtype=np.int64)
        for c, (cyc, count) in enumerate(zip(self._source_classes, counts)):
            out[c::n_cls] = cyc.take(count)  # slot c + i * n_cls takes class c's i-th draw
        return out

    def epoch(self):
        perm = self._rng.permutation(self.n_union)
        for it in range(self.iterations_per_epoch()):
            union = perm[it * self.batch_size : (it + 1) * self.batch_size]
            source = self._take_source(self.batch_size)
            target = self._target.take(self.batch_size)
            yield BatchTriple(source_idx=source, target_idx=target, union_idx=union)


def pad_batch(ids: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
              idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The documents idx of packed ids (document k is ids[starts[k] :
    starts[k] + lengths[k]]) as a padded [B, n_max] id matrix, PAD_INDEX past
    each document's end, plus their lengths."""
    idx = np.asarray(idx, dtype=np.int64)
    lens = lengths[idx]
    cols = np.arange(int(lens.max()))
    valid = cols < lens[:, None]
    mat = np.full(valid.shape, PAD_INDEX, dtype=np.int64)
    mat[valid] = ids[(starts[idx, None] + cols)[valid]]
    return mat, lens
