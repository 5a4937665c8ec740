"""Corpus IO, vocabulary, embeddings, splits, and batch streams."""

import copy
import json

import numpy as np
import pytest

from textda.data import (
    BatchStream,
    Corpus,
    Document,
    LABELS,
    LABEL_TO_INDEX,
    PAD_INDEX,
    UNK_INDEX,
    Vocab,
    build_vocab,
    load_corpus,
    load_pretrained_embeddings,
    map_rating_to_label,
    pad_batch,
    save_corpus,
    split_dev,
    tokenize,
)
from textda.errors import ConfigError, DataError
from textda.rng import named_rng


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


# ------------------------------------------------------------------ tokenizer


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("It's GREAT!") == ["it", "'", "s", "great", "!"]
    assert tokenize("don't stop-me now.") == ["don", "'", "t", "stop", "-", "me", "now", "."]
    assert tokenize("3 stars") == ["3", "stars"]
    assert tokenize("   ") == []


def test_label_index_layout():
    assert LABELS == ("negative", "neutral", "positive")
    assert [LABEL_TO_INDEX[x] for x in LABELS] == [0, 1, 2]


# -------------------------------------------------------------- rating schemes


def test_amazon5_boundaries():
    assert map_rating_to_label(1.0, "amazon5") == "negative"
    assert map_rating_to_label(2.9, "amazon5") == "negative"
    assert map_rating_to_label(3.0, "amazon5") == "neutral"
    assert map_rating_to_label(3.1, "amazon5") == "positive"
    assert map_rating_to_label(5.0, "amazon5") == "positive"
    with pytest.raises(DataError):
        map_rating_to_label(0.5, "amazon5")
    with pytest.raises(DataError):
        map_rating_to_label(5.5, "amazon5")


def test_imdb10_boundaries():
    assert map_rating_to_label(1.0, "imdb10") == "negative"
    assert map_rating_to_label(4.9, "imdb10") == "negative"
    assert map_rating_to_label(5.0, "imdb10") == "neutral"
    assert map_rating_to_label(6.0, "imdb10") == "neutral"
    assert map_rating_to_label(6.1, "imdb10") == "positive"
    assert map_rating_to_label(10.0, "imdb10") == "positive"
    with pytest.raises(DataError):
        map_rating_to_label(0.0, "imdb10")
    with pytest.raises(DataError):
        map_rating_to_label(10.5, "imdb10")


def test_unknown_scheme_is_config_error():
    with pytest.raises(ConfigError):
        map_rating_to_label(3.0, "yelp")


# ------------------------------------------------------------------ corpus IO


def test_load_corpus_mixed_rating_and_label_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(
        path,
        [
            {"text": "really great stuff", "rating": 5},
            {"text": "broke on day one", "rating": 1.0},
            {"text": "just average", "label": "neutral"},
        ],
    )
    corpus = load_corpus(path, domain="books", scheme="amazon5")
    assert len(corpus) == 3
    assert [d.label for d in corpus] == ["positive", "negative", "neutral"]
    assert corpus.docs[0].tokens == ("really", "great", "stuff")
    assert corpus.docs[0].rating == 5.0 and corpus.docs[2].rating is None
    assert corpus.label_counts() == {"negative": 1, "neutral": 1, "positive": 1}
    assert np.array_equal(corpus.label_indices(), [2, 0, 1])


def test_load_corpus_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"text": "ok fine", "label": "neutral"}\n\n\n', encoding="utf-8")
    assert len(load_corpus(path, domain="d")) == 1


def test_load_corpus_errors_carry_line_numbers(tmp_path):
    cases = [
        ('{"text": "ok", "label": "neutral"}\nnot json\n', "line 2"),
        ('{"text": "ok", "rating": 3, "label": "neutral"}\n', "line 1"),
        ('{"text": "ok"}\n', "line 1"),
        ('{"text": "ok", "label": "meh"}\n', "line 1"),
        ('{"text": "", "label": "neutral"}\n', "no tokens"),
        ('{"text": "ok", "rating": true}\n', "must be a number"),
        ('{"text": 5, "label": "neutral"}\n', "string 'text'"),
        ('{"text": "ok", "rating": 99}\n', "line 1"),
    ]
    for content, needle in cases:
        path = tmp_path / "bad.jsonl"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=needle):
            load_corpus(path, domain="d", scheme="amazon5")


def test_load_corpus_rating_requires_scheme(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [{"text": "ok", "rating": 4}])
    with pytest.raises(DataError, match="scheme"):
        load_corpus(path, domain="d")


def test_load_corpus_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(DataError, match="nope.jsonl"):
        load_corpus(missing, domain="d")


def test_save_then_load_round_trip(tmp_path):
    docs = [
        Document(tokens=("good", "value"), label="positive", rating=4.0, domain="d"),
        Document(tokens=("meh", "!"), label="neutral", rating=None, domain="d"),
    ]
    path = tmp_path / "out.jsonl"
    save_corpus(Corpus(docs, "d"), path)
    back = load_corpus(path, domain="d", scheme="amazon5")
    assert [d.tokens for d in back] == [d.tokens for d in docs]
    assert [d.label for d in back] == ["positive", "neutral"]
    assert [d.rating for d in back] == [4.0, None]


def test_label_indices_requires_labels():
    corpus = Corpus([Document(("x",), None, None, "d")], "d")
    with pytest.raises(DataError):
        corpus.label_indices()


# ----------------------------------------------------------------- vocabulary


def _corpus_of(texts, domain="d"):
    return Corpus([Document(tuple(tokenize(t)), "neutral", None, domain) for t in texts], domain)


def test_build_vocab_frequency_order_and_tie_break():
    corpus = _corpus_of(["b a b c", "b a"])
    vocab = build_vocab([corpus], size=10)
    # b:3 a:2 c:1; pad and unk lead
    assert vocab.itos == ["<pad>", "<unk>", "b", "a", "c"]
    tied = _corpus_of(["z q", "q z"])  # both 2; z seen first
    assert build_vocab([tied], size=10).itos == ["<pad>", "<unk>", "z", "q"]


def test_build_vocab_respects_size_cap():
    corpus = _corpus_of(["a a a b b c"])
    vocab = build_vocab([corpus], size=2)
    assert vocab.itos == ["<pad>", "<unk>", "a", "b"]
    assert len(vocab) == 4


def test_encode_maps_unknowns_and_truncates():
    vocab = build_vocab([_corpus_of(["a b c"])], size=10)
    ids = vocab.encode(["a", "zzz", "c"], max_len=400)
    assert ids[1] == UNK_INDEX and ids[0] != UNK_INDEX
    assert list(vocab.encode(["a", "b", "c"], max_len=2)) == list(vocab.encode(["a", "b"], max_len=2))
    with pytest.raises(ConfigError):
        vocab.encode(["a"], max_len=0)


def test_vocab_save_load_and_content_hash(tmp_path):
    vocab = build_vocab([_corpus_of(["a b c b"])], size=10)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    back = Vocab.load(path)
    assert back.itos == vocab.itos
    assert back.content_hash() == vocab.content_hash()
    other = build_vocab([_corpus_of(["a b d d"])], size=10)
    assert other.content_hash() != vocab.content_hash()


def test_vocab_rejects_bad_layout(tmp_path):
    with pytest.raises(DataError):
        Vocab(itos=["a", "b"])
    with pytest.raises(DataError, match="vocab line 4: duplicate token 'a'"):
        Vocab(itos=["<pad>", "<unk>", "a", "a"])
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\n<unk>\na\nb\nc\nb\nd\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"vocab\.txt: vocab line 6: duplicate token 'b'"):
        Vocab.load(path)


# ----------------------------------------------------------------- embeddings


def test_embeddings_random_init_bounds_pad_zero_and_found_count(tmp_path):
    vocab = build_vocab([_corpus_of(["alpha beta gamma"])], size=10)
    path = tmp_path / "vecs.txt"
    path.write_text("beta 1.0 2.0\nzzz 9.0 9.0\n<pad> 9.0 9.0\n", encoding="utf-8")
    E, found = load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))
    assert E.shape == (len(vocab), 2)
    assert found == 1
    assert np.array_equal(E[vocab.stoi["beta"]], [1.0, 2.0])
    assert np.all(E[PAD_INDEX] == 0.0)
    others = [i for i in range(len(vocab)) if i not in (PAD_INDEX, vocab.stoi["beta"])]
    assert np.all(np.abs(E[others]) <= 0.25)
    assert np.any(E[others] != 0.0)


def test_embeddings_none_path_is_pure_random():
    vocab = build_vocab([_corpus_of(["a b"])], size=10)
    E1, found = load_pretrained_embeddings(None, vocab, dim=3, rng=named_rng(4, "embeddings"))
    E2, _ = load_pretrained_embeddings(None, vocab, dim=3, rng=named_rng(4, "embeddings"))
    assert found == 0
    assert np.array_equal(E1, E2)


def test_embeddings_reject_bad_rows(tmp_path):
    vocab = build_vocab([_corpus_of(["a b"])], size=10)
    path = tmp_path / "vecs.txt"
    path.write_text("a 1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected 2 values"):
        load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))
    path.write_text("a 1.0 oops\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric"):
        load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))


def test_embeddings_reject_lines_that_do_not_split_on_spaces(tmp_path):
    vocab = build_vocab([_corpus_of(["alpha beta"])], size=10)
    path = tmp_path / "vecs.txt"
    path.write_text("\nbeta 1.0 2.0\n\n", encoding="utf-8")
    _, found = load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))
    assert found == 1  # blank lines are still skipped
    # a tab-separated file used to load with found = 0 and no error
    path.write_text("alpha\t1.0\t2.0\nbeta\t3.0\t4.0\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"vecs\.txt: line 1: expected 2 values after the token, got 0"):
        load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))
    path.write_text("beta 1.0 2.0\nalpha\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"vecs\.txt: line 2: expected 2 values"):
        load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_embeddings_reject_non_finite_values(tmp_path, value):
    vocab = build_vocab([_corpus_of(["a b"])], size=10)
    path = tmp_path / "vecs.txt"
    path.write_text(f"b 0.5 0.5\na 1.0 {value}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"vecs\.txt: line 2: non-finite"):
        load_pretrained_embeddings(path, vocab, dim=2, rng=named_rng(0, "embeddings"))


def _load_vecs(path, text, dim=2):
    path.write_text(text, encoding="utf-8")
    vocab = build_vocab([_corpus_of(["alpha beta"])], size=10)
    E, found = load_pretrained_embeddings(path, vocab, dim=dim, rng=named_rng(0, "embeddings"))
    return E[vocab.stoi["alpha"]], E[vocab.stoi["beta"]], found


def test_embeddings_accept_a_word2vec_count_dim_header(tmp_path):
    alpha, beta, found = _load_vecs(tmp_path / "vecs.vec", "2 2\nalpha 1.0 2.0\nbeta 3.0 4.0\n")
    assert found == 2 and np.array_equal(alpha, [1.0, 2.0]) and np.array_equal(beta, [3.0, 4.0])
    with pytest.raises(DataError, match=r"vecs\.vec: line 1: expected 3 values"):
        _load_vecs(tmp_path / "vecs.vec", "2 2\nalpha 1.0 2.0 3.0\n", dim=3)


def test_embeddings_ignore_trailing_whitespace_as_in_fasttext_vec_files(tmp_path):
    alpha, beta, found = _load_vecs(tmp_path / "vecs.vec", "2 2\nalpha 1.0 2.0 \nbeta 3.0 4.0  \r\n")
    assert found == 2 and np.array_equal(alpha, [1.0, 2.0]) and np.array_equal(beta, [3.0, 4.0])


def test_embeddings_parse_from_the_right_so_tokens_may_hold_spaces(tmp_path):
    alpha, _, found = _load_vecs(tmp_path / "vecs.txt", "new york 9.0 9.0\nalpha 1.0 2.0\n")
    assert found == 1 and np.array_equal(alpha, [1.0, 2.0])


def test_embeddings_reject_a_file_that_matches_no_vocabulary_token(tmp_path):
    with pytest.raises(DataError, match=r"vecs\.txt: no line matches a vocabulary token"):
        _load_vecs(tmp_path / "vecs.txt", "zzz 1.0 2.0\n")
    # 3-d vectors read with dim 2 give tokens like "alpha 1.0", which match nothing
    with pytest.raises(DataError, match=r"vecs\.txt: no line matches"):
        _load_vecs(tmp_path / "vecs.txt", "alpha 1.0 2.0 3.0\n")


# ----------------------------------------------------------------- dev splits


def test_split_dev_sizes_disjoint_and_order_preserved():
    docs = [Document((f"t{i}",), "neutral", None, "d") for i in range(20)]
    train, dev = split_dev(Corpus(docs, "d"), n_dev=6, rng=named_rng(1, "split"))
    assert len(train) == 14 and len(dev) == 6
    train_tokens = [d.tokens[0] for d in train]
    dev_tokens = [d.tokens[0] for d in dev]
    assert set(train_tokens) | set(dev_tokens) == {f"t{i}" for i in range(20)}
    assert set(train_tokens) & set(dev_tokens) == set()
    order = [int(t[1:]) for t in train_tokens]
    assert order == sorted(order)
    with pytest.raises(ConfigError):
        split_dev(Corpus(docs, "d"), n_dev=20, rng=named_rng(1, "split"))


# --------------------------------------------------------------- batch stream


def test_batch_stream_epoch_shape_and_union_coverage():
    labels = np.array([0, 1, 2] * 10)
    stream = BatchStream(labels, n_target=25, n_union=55, batch_size=10,
                         rng=named_rng(0, "shuffle"))
    assert stream.iterations_per_epoch() == 5
    triples = list(stream.epoch())
    assert len(triples) == 5
    union = np.concatenate([t.union_idx for t in triples])
    # no repeats inside an epoch; remainder dropped
    assert len(np.unique(union)) == 50
    assert union.min() >= 0 and union.max() < 55
    for t in triples:
        assert t.source_idx.shape == t.target_idx.shape == t.union_idx.shape == (10,)
        assert t.target_idx.max() < 25


def test_batch_stream_balanced_source_counts():
    labels = np.array([0] * 30 + [1] * 5 + [2] * 10)
    stream = BatchStream(labels, n_target=10, n_union=45, batch_size=9,
                         rng=named_rng(3, "shuffle"))
    for t in stream.epoch():
        got = np.bincount(labels[t.source_idx], minlength=3)
        assert np.array_equal(got, [3, 3, 3])
    stream = BatchStream(labels, n_target=10, n_union=45, batch_size=10,
                         rng=named_rng(3, "shuffle"))
    for t in stream.epoch():
        got = np.bincount(labels[t.source_idx], minlength=3)
        assert got.max() - got.min() <= 1


def test_balanced_source_slots_round_robin_the_classes_draw_for_draw():
    # slot s holds the (s // 3)-th draw of class s % 3, as a slot-by-slot
    # fill from a copy of the stream's samplers gives it
    labels = np.array([0] * 7 + [1] * 2 + [2] * 4)
    stream = BatchStream(labels, n_target=5, n_union=20, batch_size=4,
                         rng=named_rng(5, "shuffle"))
    for k in (1, 2, 3, 7, 10, 9):
        twin = copy.deepcopy(stream)
        got = stream._take_source(k)
        parts = [cyc.take(k // 3 + (c < k % 3)) for c, cyc in enumerate(twin._source_classes)]
        assert np.array_equal(got, [parts[s % 3][s // 3] for s in range(k)])
        assert np.array_equal(labels[got], np.arange(k) % 3)


def test_batch_stream_same_seed_reproduces_exactly():
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
    def collect():
        stream = BatchStream(labels, n_target=6, n_union=14, batch_size=4,
                             rng=named_rng(9, "shuffle"))
        return [(t.source_idx.copy(), t.target_idx.copy(), t.union_idx.copy())
                for _ in range(2) for t in stream.epoch()]
    a, b = collect(), collect()
    for (s1, t1, u1), (s2, t2, u2) in zip(a, b):
        assert np.array_equal(s1, s2) and np.array_equal(t1, t2) and np.array_equal(u1, u2)


def test_batch_stream_validates_pools():
    with pytest.raises(ConfigError):
        BatchStream(np.array([0]), n_target=5, n_union=3, batch_size=4,
                    rng=named_rng(0, "shuffle"))
    with pytest.raises(DataError):
        BatchStream(np.array([], dtype=np.int64), n_target=5, n_union=10,
                    batch_size=2, rng=named_rng(0, "shuffle"))


def test_pad_batch_shapes_and_padding():
    docs = [np.array([5, 6, 7]), np.array([8]), np.array([9, 10])]
    mat, lengths = pad_batch(docs, np.array([0, 1, 2]))
    assert mat.shape == (3, 3)
    assert np.array_equal(lengths, [3, 1, 2])
    assert np.array_equal(mat[1], [8, PAD_INDEX, PAD_INDEX])
    assert np.array_equal(mat[2], [9, 10, PAD_INDEX])


def test_pad_batch_matches_row_by_row_padding():
    rng = np.random.default_rng(0)
    docs = [rng.integers(2, 50, size=n) for n in (4, 1, 9, 9, 2, 6)]
    idx = np.array([5, 0, 2, 1, 0, 3])
    mat, lengths = pad_batch(docs, idx)
    ref = np.full((len(idx), 9), PAD_INDEX, dtype=np.int64)
    for row, i in enumerate(idx):
        ref[row, : len(docs[i])] = docs[i]
    assert mat.dtype == np.int64 and np.array_equal(mat, ref)
    assert np.array_equal(lengths, [6, 4, 9, 1, 4, 9])
