"""Packed encoder: only each document's own positions are convolved and pooled."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import textda.autodiff as ad
from reference_ops import build_windows, conv_windows, mul, pack, vsum
from textda.data import PAD_INDEX
from textda.ensemble import predict_all
from textda.errors import NumericalError, ShapeError
from textda.losses import source_cross_entropy
from textda.model import (
    ModelParams,
    classify,
    encode_batch,
    forward_eval,
    init_params,
    packed_windows,
)
from textda.rng import named_rng

V, D, HIDDEN, WINDOW = 12, 3, 5, 3
TRIGRAM = (2, 3, 4)


def _params(seed=0):
    params = init_params(
        named_rng(seed, "embeddings").uniform(-0.25, 0.25, size=(V, D)),
        window=WINDOW, hidden=HIDDEN, rng=named_rng(seed, "init"),
    )
    params.b[:] = named_rng(seed, "bias").uniform(-0.05, 0.05, size=HIDDEN)
    return params


def _tie_params():
    """Filter 0 matches TRIGRAM's concatenated embeddings, whose tokens are
    long, so that window is filter 0's clear, positive maximum."""
    params = _params()
    params.E[list(TRIGRAM)] *= 8.0
    params.W[0] = params.E[list(TRIGRAM)].ravel()
    return params


def _ragged_batch():
    """Lengths 1, 9 (full), 4 and 6; document 1 holds TRIGRAM twice with
    identical windows, so filter 0 ties there at a positive activation."""
    docs = [[7], [5, 2, 3, 4, 6, 2, 3, 4, 8], [9, 10, 11, 5], [6, 7, 8, 9, 10, 11]]
    lengths = np.array([len(doc) for doc in docs])
    mat = np.full((len(docs), lengths.max()), PAD_INDEX, dtype=np.int64)
    for k, doc in enumerate(docs):
        mat[k, : len(doc)] = doc
    return mat, lengths


def _activations(params: ModelParams, mat, lengths):
    """Post-ReLU activations [n_valid, h] of the packed windows, as filter
    analysis scores them."""
    idx_win = packed_windows(mat[np.arange(mat.shape[1]) < lengths[:, None]], lengths, params.window)
    return np.maximum(ad.conv_rows(params.E, params.W, params.b, idx_win), 0.0)


def _padded_reference(params: ModelParams, mat, lengths):
    """Probabilities and winning positions from the padded formulation:
    convolve every position of [B, P], mask positions past each length with
    -inf, take the first maximum."""
    B, P = mat.shape
    half = params.window // 2
    padded = np.pad(mat, ((0, 0), (half, half)), constant_values=PAD_INDEX)
    ids = np.stack([padded[:, j : j + P] for j in range(params.window)], axis=2)
    hidden = np.maximum(params.E[ids].reshape(B * P, -1) @ params.W.T + params.b, 0.0)
    hidden = hidden.reshape(B, P, -1)
    masked = np.where((np.arange(P)[None, :] < lengths[:, None])[:, :, None], hidden, -np.inf)
    logits = masked.max(axis=1) @ params.F_w.T + params.F_b
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True), masked.argmax(axis=1)


def _dense_conv_grads(params: ModelParams, idx_win, g):
    """E, W and b gradients of the window GEMM x W^T + b, x [n, l*d] being
    each window's embedding rows side by side, for the output gradient g
    [n, h]."""
    n, l = idx_win.shape
    dE = np.zeros_like(params.E)
    np.add.at(dE, idx_win, (g @ params.W).reshape(n, l, -1))
    return {"E": dE, "W": g.T @ params.E[idx_win].reshape(n, -1), "b": g.sum(axis=0)}


def _loss_and_grads(params, mat, lengths):
    tape = ad.Tape()
    leaves = params.leaves(tape)
    xi = encode_batch(leaves, mat, lengths)
    labels = np.eye(3)[np.arange(len(lengths)) % 3]
    tape.backward(source_cross_entropy(labels, classify(leaves, xi)))
    return xi.data.copy(), {name: leaf.grad.copy() for name, leaf in leaves.items()}


def test_forward_eval_matches_padded_reference_on_ragged_batch():
    params = _tie_params()
    mat, lengths = _ragged_batch()
    probs, xi = forward_eval(params, mat, lengths)
    ref_probs, ref_arg = _padded_reference(params, mat, lengths)
    assert np.abs(probs - ref_probs).max() <= 1e-12
    # on a recording tape the gradient of sum(xi) goes through the reference's
    # winning window of every filter whose maximum is positive, and no other
    tape = ad.Tape()
    leaves = params.leaves(tape)
    rec = encode_batch(leaves, mat, lengths)
    tape.backward(vsum(rec))
    starts = np.cumsum(lengths) - lengths
    g = np.zeros((lengths.sum(), HIDDEN))
    g[starts[:, None] + ref_arg, np.arange(HIDDEN)] = rec.data > 0.0
    for name, want in _dense_conv_grads(params, _windows(mat, lengths), g).items():
        assert np.abs(leaves[name].grad - want).max() <= 1e-12, name
    # the repeated trigram ties at a positive activation; the lower position wins
    assert xi.data[1, 0] > 1.0 and ref_arg[1, 0] == 2
    assert _activations(params, mat, lengths).shape == (lengths.sum(), HIDDEN)


def test_ids_past_a_length_change_neither_features_nor_gradients():
    params = _params()
    mat, lengths = _ragged_batch()
    noisy = mat.copy()
    past = np.arange(mat.shape[1])[None, :] >= lengths[:, None]
    noisy[past] = named_rng(3, "noise").integers(2, V, size=past.sum())
    xi, grads = _loss_and_grads(params, mat, lengths)
    xi_noisy, grads_noisy = _loss_and_grads(params, noisy, lengths)
    assert np.array_equal(xi, xi_noisy)
    for name in grads:
        assert np.array_equal(grads[name], grads_noisy[name]), name


def test_probabilities_do_not_depend_on_batch_mates():
    params = _params()
    mat, lengths = _ragged_batch()
    together, _ = forward_eval(params, mat, lengths)
    for k in range(len(lengths)):
        alone, _ = forward_eval(params, mat[k : k + 1, : lengths[k]], lengths[k : k + 1])
        assert np.abs(alone[0] - together[k]).max() <= 1e-12
    reordered, _ = forward_eval(params, mat[::-1], lengths[::-1])
    assert np.abs(reordered[::-1] - together).max() <= 1e-12


def test_grad_check_through_packed_encoder_and_classifier():
    params = _params(seed=1)
    mat, lengths = _ragged_batch()
    labels = np.eye(3)[[0, 2, 1, 2]]

    def loss(tape, leaves):
        xi = encode_batch(leaves, mat, lengths)
        return source_cross_entropy(labels, classify(leaves, xi))

    report = ad.grad_check(loss, params.arrays())
    assert report.passed, report.summary()


def test_forward_only_pooling_matches_the_recording_tape_bit_for_bit():
    params = _tie_params()
    params.b[1] = -10.0  # filter 1 is ReLU-zero at every position: ties everywhere
    mat, lengths = _ragged_batch()
    probs, xi = forward_eval(params, mat, lengths)
    tape = ad.Tape()
    leaves = params.leaves(tape)
    ref_xi = encode_batch(leaves, mat, lengths)
    assert np.array_equal(xi.data, ref_xi.data)
    assert np.array_equal(probs, ad.softmax(classify(leaves, ref_xi)).data)
    assert not xi.data[:, 1].any()
    assert xi.data[1, 0] > 1.0  # the positive tie


def test_predict_all_still_rejects_a_nan_embedding():
    params = _params()
    params.E[5] = np.nan
    mat, lengths = _ragged_batch()
    # documents 1 and 2 read token 5; sorted by length, document 2 is scored first
    docs = [row[:n] for row, n in zip(mat, lengths)]
    with pytest.raises(NumericalError, match=r"document 1 are not finite \(2 of the 4 in its batch\)"):
        predict_all(params, *pack(docs))


def _relu_then_pool(tape, leaves, mat, lengths, rate, rng):
    """The encoder with the ReLU before the pooling: conv_windows, relu on
    every valid position, max_over_time_batch, dropout."""
    idx_win = _windows(mat, lengths)
    H = ad.relu(conv_windows(leaves["E"], leaves["W"], leaves["b"], idx_win))
    return ad.dropout(ad.max_over_time_batch(H, lengths), rate, rng), H


@pytest.mark.parametrize("rate", [0.0, 0.5])
@pytest.mark.parametrize("tape_cls", [ad.Tape, ad.NoGradTape])
def test_relu_after_pooling_matches_relu_before_pooling_bit_for_bit(tape_cls, rate):
    params = _tie_params()
    params.b[1] = -10.0  # filter 1 is ReLU-dead at every position
    mat, lengths = _ragged_batch()
    labels = np.eye(3)[[0, 2, 1, 2]]
    runs = {}
    for order in ("pool_then_relu", "relu_then_pool"):
        tape = tape_cls()
        leaves = params.leaves(tape)
        rng = named_rng(9, "dropout")
        if order == "pool_then_relu":
            xi = encode_batch(leaves, mat, lengths, dropout_rate=rate, rng=rng)
        else:
            xi, H = _relu_then_pool(tape, leaves, mat, lengths, rate, rng)
        loss = source_cross_entropy(labels, classify(leaves, xi))
        if tape_cls is ad.Tape:
            tape.backward(loss)
        runs[order] = (xi.data, loss.data, {name: leaf.grad for name, leaf in leaves.items()})
    (xi_new, loss_new, grads_new), (xi_old, loss_old, grads_old) = runs.values()
    assert np.array_equal(xi_new, xi_old)
    assert np.array_equal(loss_new, loss_old)
    for name in grads_old:
        assert np.array_equal(grads_new[name], grads_old[name]), name
    if tape_cls is ad.Tape:
        assert grads_new["W"][0].any() and not grads_new["W"][1].any() and grads_new["b"][1] == 0.0
    assert np.array_equal(_activations(params, mat, lengths), H.data)
    assert not xi_new[:, 1].any()


def test_forward_eval_frees_the_pre_activations_with_its_encoding():
    # the encoding is the pooled features alone, with no [n_valid, h] array
    # and no windows, and freeing it frees them
    mat, lengths = _ragged_batch()
    gc.disable()
    try:
        _, xi = forward_eval(_params(), mat, lengths)
        assert xi.data.shape == (len(lengths), HIDDEN)
        probe = weakref.ref(xi)
        del xi
        assert probe() is None
    finally:
        gc.enable()


def _windows(mat, lengths, window=WINDOW):
    valid = np.arange(mat.shape[1]) < lengths[:, None]
    return build_windows(np.where(valid, mat, PAD_INDEX), window)[valid]


def _batch(lengths, seed=0):
    """Documents of the given lengths, of random non-padding ids."""
    lengths = np.array(lengths)
    rng = named_rng(seed, "batch")
    mat = np.full((len(lengths), lengths.max()), PAD_INDEX, dtype=np.int64)
    for k, n in enumerate(lengths):
        mat[k, :n] = rng.integers(1, V, size=n)
    return mat, lengths


BLOCK_CASES = {
    # a run of 100 documents of length 7 over three blocks
    "equal-run-over-blocks": [2, 2] + [7] * 100 + [3],
    "longer-than-a-block": [4, 300, 1, 6],
    "max-doc-len": [400],  # TrainConfig.max_doc_len's default
    "all-distinct": [9, 1, 30, 2, 17, 40, 5, 3, 60, 11, 25],
    "single": [5],
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_forward_only_blocks_match_the_recording_path_bit_for_bit(case):
    assert max(BLOCK_CASES["longer-than-a-block"]) > ad.CONV_BLOCK_ROWS
    params = _tie_params()
    params.b[1] = -10.0  # filter 1 is ReLU-dead at every position
    mat, lengths = _batch(BLOCK_CASES[case])
    if lengths[-1] >= 7:
        mat[-1, :7] = [*TRIGRAM, 9, *TRIGRAM]  # a positive tie: the trigram twice, apart
    idx_win = _windows(mat, lengths)
    tape = ad.Tape()
    leaves = params.leaves(tape)
    Z = conv_windows(leaves["E"], leaves["W"], leaves["b"], idx_win)
    maxima = ad.max_over_time_batch(Z, lengths)
    want_probs = ad.softmax(classify(leaves, ad.relu(maxima))).data

    no_grad = ad.NoGradTape()
    fast = params.leaves(no_grad)
    maxima_fast = ad.conv_max_pool(fast["E"], fast["W"], fast["b"], idx_win, lengths)
    probs, xi = forward_eval(params, mat, lengths)
    assert np.array_equal(ad.conv_rows(params.E, params.W, params.b, idx_win), Z.data)
    assert np.array_equal(maxima_fast.data, maxima.data)
    assert np.array_equal(probs, want_probs)
    assert no_grad._steps == []
    assert not xi.data[:, 1].any()
    if lengths[-1] >= 7:
        assert xi.data[-1, 0] > 1.0


def test_forward_only_blocks_of_wide_filters_match_the_recording_path_bit_for_bit():
    hidden = 300  # paper width: blocks hold fewer than CONV_BLOCK_ROWS rows
    assert ad._block_rows(hidden) < ad.CONV_BLOCK_ROWS
    params = init_params(named_rng(0, "embeddings").uniform(-0.25, 0.25, size=(V, D)),
                         window=WINDOW, hidden=hidden, rng=named_rng(0, "init"))
    mat, lengths = _batch([2] + [7] * 60 + [300, 5])
    idx_win = _windows(mat, lengths)
    tape = ad.Tape()
    leaves = params.leaves(tape)
    Z = conv_windows(leaves["E"], leaves["W"], leaves["b"], idx_win)
    maxima = ad.max_over_time_batch(Z, lengths)
    want_probs = ad.softmax(classify(leaves, ad.relu(maxima))).data
    fast = params.leaves(ad.NoGradTape())
    maxima_fast = ad.conv_max_pool(fast["E"], fast["W"], fast["b"], idx_win, lengths)
    assert np.array_equal(ad.conv_rows(params.E, params.W, params.b, idx_win), Z.data)
    # a few filters, as filter analysis asks for them, in blocks of another size
    filters = [299, 0, 150]
    assert np.array_equal(ad.conv_rows(params.E, params.W, params.b, idx_win, filters), Z.data[:, filters])
    assert np.array_equal(maxima_fast.data, maxima.data)
    assert np.array_equal(forward_eval(params, mat, lengths)[0], want_probs)


def test_predict_all_names_a_nan_document_past_the_first_block():
    params = _params()
    params.E[V - 1] = np.nan
    mat, lengths = _batch([7] * 100)
    mat[mat == V - 1] = 1
    mat[80, 3] = V - 1  # document 80 alone reads the NaN row, in the third block
    with pytest.raises(NumericalError, match="document 80 are not finite"):
        predict_all(params, *pack(list(mat)))


def test_forward_only_encode_checks_ids_and_lengths_as_the_recording_path_does():
    params = _params()
    idx_win = np.array([[0, 1, 2], [1, 2, V]])
    errors = []
    for tape in (ad.Tape(), ad.NoGradTape()):
        leaves = params.leaves(tape)
        with pytest.raises(NumericalError, match="token index out of range") as err:
            ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], idx_win, np.array([2]))
        errors.append(str(err.value))
        with pytest.raises(ShapeError, match="does not hold 3 packed rows"):
            ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], idx_win.clip(0, V - 1), np.array([1, 2]))
        with pytest.raises(ShapeError, match="bad lengths"):
            ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], idx_win.clip(0, V - 1), np.array([0, 2]))
        with pytest.raises(ShapeError, match="do not fit windows of 2 rows"):
            ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], idx_win[:, :2].clip(0, V - 1), np.array([2]))
        with pytest.raises(ShapeError, match="do not fit"):
            ad.conv_max_pool(leaves["E"], leaves["W"], tape.leaf(np.zeros(HIDDEN + 1)), idx_win.clip(0, V - 1),
                             np.array([2]))
        with pytest.raises(ShapeError, match="must be"):
            ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], np.array([0, 1, 2]), np.array([1]))
    assert errors[0] == errors[1]


def test_a_forward_only_encode_still_applies_training_dropout():
    params = _params()
    mat, lengths = _ragged_batch()
    xi = []
    for tape in (ad.Tape(), ad.NoGradTape()):
        xi.append(encode_batch(params.leaves(tape), mat, lengths, dropout_rate=0.5,
                               rng=named_rng(4, "dropout")).data)
    plain = forward_eval(params, mat, lengths)[1].data
    kept = xi[1] != 0.0
    assert np.array_equal(xi[0], xi[1])
    assert np.array_equal(xi[1][kept], 2.0 * plain[kept])
    assert (plain[~kept] != 0.0).any()  # some positive features were dropped


# ------------------------------------------------- the fused op, gated alone


def _gate_batch(hidden):
    """The ragged batch plus a document longer than a block: a length-1
    document, TRIGRAM twice with identical windows (a positive tie of
    filter 0, which persists under any perturbation), and filter 1 ReLU-dead
    at every position."""
    params = init_params(named_rng(2, "embeddings").uniform(-0.25, 0.25, size=(V, D)),
                         window=WINDOW, hidden=hidden, rng=named_rng(2, "init"))
    params.E[list(TRIGRAM)] *= 8.0
    params.W[0] = params.E[list(TRIGRAM)].ravel()
    params.b[1] = -10.0
    mat, lengths = _ragged_batch()
    long_mat, long_lengths = _batch([ad._block_rows(hidden) + 44], seed=4)
    full = np.full((len(lengths) + 1, long_lengths[0]), PAD_INDEX, dtype=np.int64)
    full[:-1, : mat.shape[1]] = mat
    full[-1] = long_mat[0]
    return params, full, np.append(lengths, long_lengths)


def _pooled_loss(pool, tape, leaves, idx_win, lengths):
    """A weighted sum of the ReLU of the pooled maxima, as the encoder
    applies it, and the maxima."""
    maxima = pool(leaves, idx_win, lengths)
    w = named_rng(6, "weights").normal(size=maxima.data.shape)
    return vsum(mul(ad.relu(maxima), tape.leaf(w))), maxima


def _fused(leaves, idx_win, lengths):
    return ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], idx_win, lengths)


def _unfused(leaves, idx_win, lengths):
    return ad.max_over_time_batch(conv_windows(leaves["E"], leaves["W"], leaves["b"], idx_win), lengths)


def test_conv_max_pool_passes_grad_check():
    params, mat, lengths = _gate_batch(HIDDEN)
    assert lengths.min() == 1 and lengths.max() > ad._block_rows(HIDDEN)
    idx_win = _windows(mat, lengths)
    arrays = {name: params.arrays()[name] for name in ("E", "W", "b")}
    report = ad.grad_check(lambda tape, leaves: _pooled_loss(_fused, tape, leaves, idx_win, lengths)[0],
                           arrays)
    assert report.passed, report.summary()


@pytest.mark.parametrize("hidden", [HIDDEN, 300])
def test_conv_max_pool_equals_the_unfused_chain_bit_for_bit(hidden):
    params, mat, lengths = _gate_batch(hidden)
    idx_win = _windows(mat, lengths)
    runs = {}
    for pool in (_fused, _unfused):
        tape = ad.Tape()
        leaves = params.leaves(tape)
        loss, maxima = _pooled_loss(pool, tape, leaves, idx_win, lengths)
        tape.backward(loss)
        runs[pool] = maxima.data, {name: leaves[name].grad for name in ("E", "W", "b")}
    (maxima, grads), (want_maxima, want_grads) = runs[_fused], runs[_unfused]
    no_grad = ad.NoGradTape()
    assert np.array_equal(maxima, want_maxima)
    assert np.array_equal(_fused(params.leaves(no_grad), idx_win, lengths).data, want_maxima)
    for name, want in want_grads.items():
        assert np.array_equal(grads[name], want), name
    assert want_maxima[1, 0] > 1.0 and (want_maxima[:, 1] < 0.0).all()
    assert grads["W"][0].any() and not grads["W"][1].any() and grads["b"][1] == 0.0


def _maxima_of_biased_rows(E, W, b, idx_win, lengths):
    """Each document's column maxima of fl(z + b), b added to every window
    row before the pooling, as the convolution's fill once did."""
    rows = ad.conv_rows(E, W, b, idx_win)  # z, then + b on every row
    return np.stack([rows[s : s + n].max(axis=0) for s, n in zip(np.cumsum(lengths) - lengths, lengths)])


@pytest.mark.parametrize("case", ["equal-run-over-blocks", "longer-than-a-block", "all-distinct"])
def test_the_bias_added_after_pooling_gives_the_maxima_of_biased_rows_on_both_tapes(case):
    params = _params(3)
    params.b[:] = named_rng(3, "big bias").uniform(-40.0, 40.0, size=HIDDEN)  # rounds z + b coarsely
    mat, lengths = _batch(BLOCK_CASES[case], seed=3)
    idx_win = _windows(mat, lengths)
    want = _maxima_of_biased_rows(params.E, params.W, params.b, idx_win, lengths)
    for tape in (ad.Tape(), ad.NoGradTape()):
        leaves = params.leaves(tape)
        assert _fused(leaves, idx_win, lengths).data.tobytes() == want.tobytes()


def test_the_bias_after_pooling_keeps_a_rounding_tie_and_a_nan_row():
    # width 1, d = h = 1, W = 1: a window's z is its token's embedding.
    # Token 2's z is below token 3's, but both round to b once b is added.
    E = np.array([[0.0], [0.5], [1e-17], [2e-17], [np.nan]])
    W, b = np.array([[1.0]]), np.array([1.0])
    assert E[2, 0] < E[3, 0] and E[2, 0] + b[0] == E[3, 0] + b[0] == 1.0
    idx_win = np.array([[2], [3], [1], [4], [1]])
    lengths = np.array([2, 3])  # document 1 reads the NaN embedding
    want = _maxima_of_biased_rows(E, W, b, idx_win, lengths)
    assert want[0, 0] == 1.0 and np.isnan(want[1, 0])
    for tape in (ad.Tape(), ad.NoGradTape()):
        maxima = ad.conv_max_pool(tape.leaf(E), tape.leaf(W), tape.leaf(b), idx_win, lengths)
        assert maxima.data.tobytes() == want.tobytes()
    # the recording tape's winner is the argmax of z: token 3, where an
    # argmax of z + b took the lower row, token 2; the maximum is the same
    tape = ad.Tape()
    E_t = tape.leaf(E)
    tape.backward(vsum(ad.conv_max_pool(E_t, tape.leaf(W), tape.leaf(b), idx_win[:2], lengths[:1])))
    assert E_t.grad[3, 0] == 1.0 and E_t.grad[2, 0] == 0.0


@pytest.mark.parametrize("tape_cls", [ad.Tape, ad.NoGradTape])
def test_an_encode_and_its_backward_allocate_no_array_of_every_position(tape_cls):
    hidden = 64
    params = init_params(named_rng(0, "embeddings").uniform(-0.25, 0.25, size=(V, D)),
                         window=WINDOW, hidden=hidden, rng=named_rng(0, "init"))
    mat, lengths = _batch([30] * 200)
    n_bytes = int(lengths.sum()) * hidden * 8  # one [n_valid, h] float64 array: 3 MB
    tape = tape_cls()
    leaves = params.leaves(tape)
    tracemalloc.start()
    try:
        xi = encode_batch(leaves, mat, lengths)
        if tape_cls is ad.Tape:
            tape.backward(source_cross_entropy(np.eye(3)[np.arange(len(lengths)) % 3],
                                               classify(leaves, xi)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_bytes, (peak, n_bytes)
