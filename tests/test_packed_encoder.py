"""Packed encoder: only each document's own positions are convolved and pooled."""

import numpy as np
import pytest

import textda.autodiff as ad
from textda.data import PAD_INDEX
from textda.errors import NumericalError
from textda.losses import source_cross_entropy
from textda.model import ModelParams, classify, encode_batch, forward_eval, init_params
from textda.rng import named_rng

V, D, HIDDEN, WINDOW = 12, 3, 5, 3
TRIGRAM = (2, 3, 4)


def _params(seed=0):
    params = init_params(
        named_rng(seed, "embeddings").uniform(-0.25, 0.25, size=(V, D)),
        window=WINDOW, hidden=HIDDEN, n_classes=3, rng=named_rng(seed, "init"),
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


def _loss_and_grads(params, mat, lengths):
    tape = ad.Tape()
    leaves = params.leaves(tape)
    enc = encode_batch(tape, leaves, mat, lengths)
    labels = np.eye(3)[np.arange(len(lengths)) % 3]
    tape.backward(source_cross_entropy(labels, classify(tape, leaves, enc.xi)))
    return enc.xi.data.copy(), {name: leaf.grad.copy() for name, leaf in leaves.items()}


def test_forward_eval_matches_padded_reference_on_ragged_batch():
    params = _tie_params()
    mat, lengths = _ragged_batch()
    probs, enc = forward_eval(params, mat, lengths)
    ref_probs, ref_arg = _padded_reference(params, mat, lengths)
    assert np.abs(probs - ref_probs).max() <= 1e-12
    assert np.array_equal(enc.argmax, ref_arg)
    # the repeated trigram ties at a positive activation; the lower position wins
    assert enc.xi.data[1, 0] > 1.0 and enc.argmax[1, 0] == 2
    assert enc.H.data.shape == (lengths.sum(), HIDDEN)
    assert enc.idx_win.shape == (lengths.sum(), WINDOW)


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
        enc = encode_batch(tape, leaves, mat, lengths)
        return source_cross_entropy(labels, classify(tape, leaves, enc.xi))

    report = ad.grad_check(loss, params.arrays(), h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_forward_only_pooling_matches_the_recording_tape_bit_for_bit():
    params = _tie_params()
    params.b[1] = -10.0  # filter 1 is ReLU-zero at every position: ties everywhere
    mat, lengths = _ragged_batch()
    probs, enc = forward_eval(params, mat, lengths)
    tape = ad.Tape()
    leaves = params.leaves(tape)
    ref_enc = encode_batch(tape, leaves, mat, lengths, dropout_rate=0.0, training=False)
    assert np.array_equal(enc.xi.data, ref_enc.xi.data)
    assert np.array_equal(probs, ad.softmax(classify(tape, leaves, ref_enc.xi)).data)
    _, ref_pos = ad.max_over_time_batch(ad.Tape().leaf(ref_enc.H.data), len(lengths), mat.shape[1], lengths)
    assert np.array_equal(enc.argmax, ref_pos)
    assert np.array_equal(ref_enc.argmax, ref_pos)
    assert not enc.xi.data[:, 1].any() and not enc.argmax[:, 1].any()
    assert enc.xi.data[1, 0] > 1.0 and enc.argmax[1, 0] == 2  # the positive tie
    assert enc.argmax[0].max() == 0  # the length-1 document


def test_forward_eval_still_rejects_a_nan_embedding():
    params = _params()
    params.E[5] = np.nan
    mat, lengths = _ragged_batch()
    with pytest.raises(NumericalError, match="batch row 1 are not finite"):
        forward_eval(params, mat, lengths)
