"""Encoder and classifier: hand-traced convolutions, pooling, checkpoints."""

import json

import numpy as np
import pytest

import textda.autodiff as ad
from reference_ops import build_windows, mul, vsum
from textda.data import PAD_INDEX
from textda.errors import ConfigError, DataError, NumericalError, ShapeError
from textda.model import (
    ModelParams,
    apply_max_norm,
    classify,
    encode_batch,
    forward_eval,
    init_params,
    load_checkpoint,
    packed_windows,
    save_checkpoint,
)
from textda.rng import named_rng


def _toy_params():
    """Scalar embeddings a=1, b=2, c=3 (ids 2, 3, 4), one summing filter."""
    return ModelParams(
        E=np.array([[0.0], [0.0], [1.0], [2.0], [3.0]]),
        W=np.array([[1.0, 1.0, 1.0]]),
        b=np.array([0.0]),
        F_w=np.array([[1.0], [0.0], [-1.0]]),
        F_b=np.zeros(3),
        window=3,
    )


def _encode(params, mat, lengths):
    tape = ad.Tape()
    leaves = params.leaves(tape)
    return encode_batch(leaves, np.asarray(mat), np.asarray(lengths))


def _activations(params, mat, lengths):
    """The packed window ids and their post-ReLU activations, as filter
    analysis scores them."""
    mat, lengths = np.asarray(mat), np.asarray(lengths)
    idx_win = packed_windows(mat[np.arange(mat.shape[1]) < lengths[:, None]], lengths, params.window)
    return idx_win, np.maximum(ad.conv_rows(params.E, params.W, params.b, idx_win), 0.0)


def _winning_rows(params, mat, lengths):
    """The packed rows whose windows the backward of each document's feature
    reaches, for the toy's one filter. With b = 0 and one scalar embedding
    per token, document k's feature gives W the gradient x_r, the embeddings
    of its winning window r side by side, so the rows whose x equal W's
    gradient are the rows that gradient went through."""
    windows = params.E[_activations(params, mat, lengths)[0], 0]  # [n_valid, l]
    rows = []
    for k in range(len(lengths)):
        tape = ad.Tape()
        leaves = params.leaves(tape)
        xi = encode_batch(leaves, np.asarray(mat), np.asarray(lengths))
        pick = np.zeros(xi.data.shape)
        pick[k] = 1.0
        tape.backward(vsum(mul(xi, tape.leaf(pick))))
        rows.extend(np.flatnonzero((windows == leaves["W"].grad[0]).all(axis=1)).tolist())
    return rows


# -------------------------------------------------------------------- windows


def test_packed_windows_same_padding():
    idx = packed_windows(np.array([5, 6, 7]), np.array([3]), window=3)
    assert np.array_equal(idx, [[0, 5, 6], [5, 6, 7], [6, 7, 0]])
    idx = packed_windows(np.array([5, 6]), np.array([2]), window=1)
    assert np.array_equal(idx, [[5], [6]])
    idx = packed_windows(np.array([5]), np.array([1]), window=5)
    assert np.array_equal(idx, [[0, 0, 5, 0, 0]])
    with pytest.raises(ConfigError):
        packed_windows(np.array([1]), np.array([1]), window=2)


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_packed_windows_equal_the_padded_windows_of_each_document(window):
    rng = np.random.default_rng(window)
    for _ in range(50):
        # length-1 documents and documents shorter than half a window among longer ones
        lengths = rng.integers(1, 12, size=rng.integers(1, 8))
        lengths[rng.integers(len(lengths))] = 1
        mat = np.full((len(lengths), lengths.max()), PAD_INDEX, dtype=np.int64)
        valid = np.arange(mat.shape[1]) < lengths[:, None]
        mat[valid] = rng.integers(1, 50, size=lengths.sum())
        assert np.array_equal(packed_windows(mat[valid], lengths, window), build_windows(mat, window)[valid])


def test_packed_windows_refuse_lengths_that_do_not_cover_the_ids():
    for lengths in ([2], [2, 2], [4]):
        with pytest.raises(ShapeError, match="lengths sum to"):
            packed_windows(np.array([5, 6, 7]), np.array(lengths), window=3)


# ----------------------------------------------------------- hand-traced conv


def test_encode_hand_trace_a_b_c_b():
    # tokens a b c b -> window sums [0+1+2, 1+2+3, 2+3+2, 3+2+0] = [3, 6, 7, 5]
    xi = _encode(_toy_params(), [[2, 3, 4, 3]], [4])
    _, H = _activations(_toy_params(), [[2, 3, 4, 3]], [4])
    assert np.allclose(H.reshape(4), [3.0, 6.0, 7.0, 5.0])
    assert xi.data.item() == 7.0
    assert _winning_rows(_toy_params(), [[2, 3, 4, 3]], [4]) == [2]


def test_encode_hand_trace_a_b_c_c():
    # tokens a b c c -> window sums [3, 6, 8, 6]; max 8 at position 2
    xi = _encode(_toy_params(), [[2, 3, 4, 4]], [4])
    _, H = _activations(_toy_params(), [[2, 3, 4, 4]], [4])
    assert np.allclose(H.reshape(4), [3.0, 6.0, 8.0, 6.0])
    assert xi.data.item() == 8.0
    assert _winning_rows(_toy_params(), [[2, 3, 4, 4]], [4]) == [2]


def test_pooling_masks_padding_and_breaks_ties_low():
    # doc 2 is "b b" padded to length 4: positions 0 and 1 both activate 4
    mat, lengths = [[2, 3, 4, 3], [3, 3, 0, 0]], [4, 2]
    xi = _encode(_toy_params(), mat, lengths)
    assert xi.data[1].item() == 4.0
    # the padded positions are never convolved, so they cannot win the max
    assert xi.data[0].item() == 7.0
    _, H = _activations(_toy_params(), mat, lengths)
    assert H.shape == (6, 1) and np.array_equal(xi.data, [H[:4].max(axis=0), H[4:].max(axis=0)])
    assert H[4, 0] == H[5, 0] == 4.0
    # doc 1's gradient reaches its first position (row 4) only, not the tied row 5
    assert _winning_rows(_toy_params(), mat, lengths) == [2, 4]


def test_classify_rows_are_distributions():
    params = _toy_params()
    tape = ad.Tape()
    leaves = params.leaves(tape)
    xi = encode_batch(leaves, np.array([[2, 3, 4, 3]]), np.array([4]))
    logits = classify(leaves, xi)
    assert logits.data.shape == (1, 3)
    probs = ad.softmax(logits)
    assert abs(probs.data.sum() - 1.0) < 1e-12
    assert np.all(probs.data > 0.0)


def test_forward_eval_is_deterministic():
    params = init_params(
        named_rng(0, "embeddings").uniform(-0.25, 0.25, size=(9, 4)),
        window=3, hidden=5, rng=named_rng(0, "init"),
    )
    mat = np.array([[2, 3, 4, 5, 6], [7, 8, 2, 0, 0]])
    lengths = np.array([5, 3])
    p1, xi1 = forward_eval(params, mat, lengths)
    p2, xi2 = forward_eval(params, mat, lengths)
    assert np.array_equal(p1, p2)
    assert np.array_equal(xi1.data, xi2.data)
    assert np.array_equal(_activations(params, mat, lengths)[1], _activations(params, mat, lengths)[1])
    assert np.allclose(p1.sum(axis=1), 1.0)


def test_training_dropout_differs_from_eval():
    params = init_params(
        named_rng(1, "embeddings").uniform(-0.25, 0.25, size=(9, 4)),
        window=3, hidden=16, rng=named_rng(1, "init"),
    )
    mat = np.array([[2, 3, 4, 5]])
    lengths = np.array([4])
    tape = ad.Tape()
    leaves = params.leaves(tape)
    dropped = encode_batch(leaves, mat, lengths, dropout_rate=0.5, rng=named_rng(2, "dropout"))
    clean = _encode(params, mat, lengths)
    assert not np.array_equal(dropped.data, clean.data)
    # eval mode is rate 0: no mask and no draw from the rng
    tape2 = ad.Tape()
    leaves2 = params.leaves(tape2)
    rng = named_rng(2, "dropout")
    before = rng.bit_generator.state
    off = encode_batch(leaves2, mat, lengths, dropout_rate=0.0, rng=rng)
    assert np.array_equal(off.data, clean.data)
    assert rng.bit_generator.state == before


# --------------------------------------------------------------- initializers


def test_init_params_glorot_bounds_and_zero_biases():
    E = named_rng(3, "embeddings").uniform(-0.25, 0.25, size=(20, 6))
    params = init_params(E, window=5, hidden=8, rng=named_rng(3, "init"))
    assert np.array_equal(params.E, E)
    assert params.E.dtype == np.float64
    s_w = np.sqrt(6.0 / (5 * 6 + 8))
    assert np.all(np.abs(params.W) <= s_w)
    s_f = np.sqrt(6.0 / (8 + 3))
    assert np.all(np.abs(params.F_w) <= s_f)
    assert np.all(params.b == 0.0) and np.all(params.F_b == 0.0)
    assert (params.vocab_size, params.embedding_dim, params.hidden, params.n_classes) == (20, 6, 8, 3)


def test_model_params_validation():
    good = _toy_params()
    with pytest.raises(ConfigError):
        ModelParams(E=good.E, W=good.W, b=good.b, F_w=good.F_w, F_b=good.F_b, window=2)
    with pytest.raises(ConfigError):
        ModelParams(E=good.E, W=np.ones((1, 4)), b=good.b, F_w=good.F_w, F_b=good.F_b, window=3)
    with pytest.raises(ConfigError):
        ModelParams(E=good.E, W=good.W, b=good.b, F_w=good.F_w, F_b=np.zeros(2), window=3)
    # a consistent head with one row fewer than LABELS has classes
    with pytest.raises(ConfigError, match="one row per class"):
        ModelParams(E=good.E, W=good.W, b=good.b, F_w=good.F_w[:2], F_b=good.F_b[:2], window=3)


def test_apply_max_norm_projects_in_place():
    rows = np.array([[3.0, 4.0], [0.3, 0.4]])
    apply_max_norm(rows)  # the paper's radius, 3.0
    assert np.allclose(rows[0], [1.8, 2.4])
    assert np.allclose(np.linalg.norm(rows[0]), 3.0)
    assert np.array_equal(rows[1], [0.3, 0.4])


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    params = init_params(
        named_rng(5, "embeddings").uniform(-0.25, 0.25, size=(12, 4)),
        window=3, hidden=6, rng=named_rng(5, "init"),
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, vocab_hash="ab" * 32, path=path)
    back, header = load_checkpoint(path)
    for name, arr in params.arrays().items():
        got = back.arrays()[name]
        assert got.dtype == np.float64
        assert arr.shape == got.shape
        assert np.array_equal(arr, got) and arr.tobytes() == got.tobytes()
    assert back.window == params.window
    assert header["vocab_hash"] == "ab" * 32
    assert header["vocab_size"] == 12 and header["hidden"] == 6
    # same params saved twice produce identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(params, vocab_hash="ab" * 32, path=path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    params = _toy_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, vocab_hash="00", path=path)
    blob = path.read_bytes()
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(DataError, match="bytes"):
        load_checkpoint(truncated)
    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(b"not json\n" + blob)
    with pytest.raises(DataError):
        load_checkpoint(garbled)
    nover = tmp_path / "nover.ckpt"
    nover.write_bytes(blob.replace(b'"format_version": 1', b'"format_version": 9'))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(nover)
    with pytest.raises(DataError, match="not found"):
        load_checkpoint(tmp_path / "missing.ckpt")


def _rewrite_checkpoint(src, dst, header_updates=None, body=None):
    blob = src.read_bytes()
    nl = blob.find(b"\n")
    header = {**json.loads(blob[:nl]), **(header_updates or {})}
    dst.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + (blob[nl + 1 :] if body is None else body))
    return dst


def test_checkpoint_rejects_non_finite_parameters(tmp_path):
    params = _toy_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, vocab_hash="00", path=path)
    for bad in (np.nan, np.inf):
        F_b = params.F_b.copy()
        F_b[1] = bad
        poisoned = ModelParams(E=params.E, W=params.W, b=params.b, F_w=params.F_w, F_b=F_b, window=3)
        save_checkpoint(poisoned, vocab_hash="00", path=tmp_path / "bad.ckpt")
        with pytest.raises(DataError, match="F_b has non-finite"):
            load_checkpoint(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("field,value", [
    ("hidden", 0), ("vocab_size", -5), ("embedding_dim", "1"), ("n_classes", 3.0),
    ("window", True), ("hidden", None),
])
def test_checkpoint_rejects_bad_header_dimensions(tmp_path, field, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_toy_params(), vocab_hash="00", path=path)
    bad = _rewrite_checkpoint(path, tmp_path / "bad.ckpt", {field: value})
    with pytest.raises(DataError, match=f"{field}.*positive int"):
        load_checkpoint(bad)


def test_checkpoint_rejects_even_window_as_data_error(tmp_path):
    # window 2 with d = 1 and h = 1 still matches the stored byte count
    path = tmp_path / "model.ckpt"
    save_checkpoint(_toy_params(), vocab_hash="00", path=path)
    body = np.zeros(5 + 2 + 1 + 3 + 3, dtype="<f8").tobytes()
    bad = _rewrite_checkpoint(path, tmp_path / "bad.ckpt", {"window": 2}, body)
    with pytest.raises(DataError, match="window must be odd"):
        load_checkpoint(bad)


def test_forward_eval_records_nothing_and_frees_its_encoding():
    import gc
    import weakref

    params = _toy_params()
    mat = np.array([[2, 3, 4], [4, 2, 0]])
    lengths = np.array([3, 2])
    gc.disable()
    try:
        probs, xi = forward_eval(params, mat, lengths)
        with pytest.raises(NumericalError):
            xi.tape.backward(vsum(xi))
        probe = weakref.ref(xi)
        del xi
        assert probe() is None
    finally:
        gc.enable()
    assert np.allclose(probs.sum(axis=1), 1.0)
