"""Tape ops: hand-computed forward values and finite-difference gradients."""

import numpy as np
import pytest

from reference_ops import conv_windows, mul, vsum
from textda import autodiff as ad
from textda.errors import NumericalError, ShapeError


def leaf(tape, x):
    return tape.leaf(np.asarray(x, dtype=np.float64))


def test_affine_identity():
    tape = ad.Tape()
    out = ad.affine(leaf(tape, [[1.0, 2.0]]), leaf(tape, np.eye(2)), leaf(tape, [0.0, 0.0]))
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_affine_batch_hand_value():
    # rows [1,2] and [3,4] against weights [1,1], bias [0,1]: 1+2=3, 3+4+1=8
    tape = ad.Tape()
    x = leaf(tape, [[1.0, 2.0], [3.0, 4.0]])
    W = leaf(tape, [[1.0, 1.0]])
    b = leaf(tape, [0.0])
    out = ad.affine(x, W, b)
    assert np.array_equal(out.data, [[3.0], [7.0]])
    tape2 = ad.Tape()
    out2 = ad.affine(leaf(tape2, [[1.0, 2.0], [3.0, 4.0]]), leaf(tape2, [[1.0, 1.0]]), leaf(tape2, [1.0]))
    assert np.array_equal(out2.data, [[4.0], [8.0]])


def test_affine_shape_error_names_shapes():
    tape = ad.Tape()
    with pytest.raises(ShapeError) as err:
        ad.affine(leaf(tape, [[1.0, 2.0, 3.0]]), leaf(tape, np.eye(2)), leaf(tape, [0.0, 0.0]))
    assert "(2, 2)" in str(err.value) and "(1, 3)" in str(err.value)
    with pytest.raises(ShapeError, match=r"\(2,\)"):  # a vector is not a one-row batch
        ad.affine(leaf(tape, [1.0, 2.0]), leaf(tape, np.eye(2)), leaf(tape, [0.0, 0.0]))


def test_relu_forward_and_subgradient_at_zero():
    tape = ad.Tape()
    x = leaf(tape, [-2.0, 0.0, 3.0])
    loss = vsum(ad.relu(x))
    assert np.array_equal(loss.data, 3.0)
    tape.backward(loss)
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])  # exactly 0 at the kink


def test_softmax_hand_value_and_shift_invariance():
    tape = ad.Tape()
    p = ad.softmax(leaf(tape, [[1.0, 2.0]]))
    assert np.allclose(p.data, [[0.26894142, 0.73105858]], atol=1e-8)
    q = ad.softmax(leaf(tape, [[1001.0, 1002.0]]))
    assert np.allclose(p.data, q.data, atol=0)  # shift invariance, no overflow
    rows = ad.softmax(leaf(tape, [[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]))
    assert np.allclose(rows.data, 1.0 / 3.0)


def test_max_over_time_lowest_index_on_ties_and_mass_conservation():
    tape = ad.Tape()
    H = leaf(tape, [[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]])  # one document of 3 positions
    xi = ad.max_over_time_batch(H, np.array([3]))
    assert np.array_equal(xi.data, [[3.0, 5.0]])
    weights = leaf(tape, [[2.0, 7.0]])
    loss = vsum(mul(xi, weights))
    tape.backward(loss)
    assert H.grad.sum() == weights.data.sum()  # gradient mass conserved
    assert H.grad[1, 0] == 2.0 and H.grad[0, 1] == 7.0  # ties -> lowest row index


def test_max_over_time_batch_bad_lengths():
    tape = ad.Tape()
    H = leaf(tape, np.zeros((4, 3)))
    for bad in ([0, 4], [[1, 3]]):
        with pytest.raises(ShapeError, match="bad lengths"):
            ad.max_over_time_batch(H, np.array(bad))
    # 2 documents padded to 2 positions: 4 rows, but lengths 1 and 2 own 3
    with pytest.raises(ShapeError, match="does not hold 3 packed rows"):
        ad.max_over_time_batch(H, np.array([1, 2]))


def test_dropout_eval_is_identity_and_train_scales():
    tape = ad.Tape()
    x = leaf(tape, np.ones(10))
    assert ad.dropout(x, 0.5, training=False, rng=None) is x
    assert ad.dropout(x, 0.0, training=True, rng=None) is x
    rng = np.random.default_rng(0)
    y = ad.dropout(x, 0.5, training=True, rng=rng)
    kept = y.data[y.data != 0.0]
    assert np.allclose(kept, 2.0)  # survivors scaled by 1/(1-rate)


def test_dropout_statistical_mean():
    tape = ad.Tape()
    x = leaf(tape, np.ones(10000))
    rng = np.random.default_rng(123)
    y = ad.dropout(x, 0.5, training=True, rng=rng)
    assert 0.95 <= y.data.mean() <= 1.05


def test_dropout_rate_validation():
    tape = ad.Tape()
    x = leaf(tape, np.ones(3))
    with pytest.raises(NumericalError):
        ad.dropout(x, 1.0, training=True, rng=np.random.default_rng(0))
    with pytest.raises(NumericalError):
        ad.dropout(x, -0.1, training=True, rng=np.random.default_rng(0))


def test_l1_normalize_value_and_validation():
    tape = ad.Tape()
    v = leaf(tape, [1.0, 3.0])
    out = ad.l1_normalize(v, eps=0.0)
    assert np.allclose(out.data, [0.25, 0.75])
    out2 = ad.l1_normalize(leaf(tape, [0.0, 0.0]), eps=1e-6)
    assert np.allclose(out2.data, [0.5, 0.5])
    with pytest.raises(NumericalError):
        ad.l1_normalize(leaf(tape, [-0.1, 1.0]))
    with pytest.raises(NumericalError):
        ad.l1_normalize(leaf(tape, [0.0, 0.0]), eps=0.0)


def test_embed_windows_gathers_and_rejects_bad_index():
    tape = ad.Tape()
    E = leaf(tape, [[0.0, 0.0], [1.0, 10.0], [2.0, 20.0]])
    idx = np.array([[[0, 1, 2]]])  # one doc, one position, window 3
    out = ad.embed_windows(E, idx)
    assert np.array_equal(out.data, [[0.0, 0.0, 1.0, 10.0, 2.0, 20.0]])
    with pytest.raises(NumericalError):
        ad.embed_windows(E, np.array([[[0, 1, 3]]]))


def test_embed_windows_backward_accumulates_repeats():
    tape = ad.Tape()
    E = leaf(tape, np.zeros((3, 1)))
    idx = np.array([[[1, 1, 1]]])
    out = ad.embed_windows(E, idx)
    weights = leaf(tape, [[1.0, 2.0, 3.0]])
    tape.backward(vsum(mul(out, weights)))
    assert E.grad[1, 0] == 6.0  # repeated token sums its window slots


def test_backward_requires_scalar_and_fresh_tape():
    tape = ad.Tape()
    x = leaf(tape, [1.0, 2.0])
    with pytest.raises(ShapeError):
        tape.backward(x)
    tape2 = ad.Tape()
    a = leaf(tape2, 3.0)
    b = leaf(tape2, 4.0)
    s = ad.add(a, b)
    tape2.backward(s)
    assert a.grad == 1.0 and b.grad == 1.0
    with pytest.raises(NumericalError):
        tape2.backward(s)  # tape already consumed


def test_mixing_tapes_is_an_error():
    t1, t2 = ad.Tape(), ad.Tape()
    with pytest.raises(NumericalError):
        ad.add(leaf(t1, 1.0), leaf(t2, 2.0))


def test_unused_leaf_gradient_is_exactly_zero():
    tape = ad.Tape()
    used = leaf(tape, 2.0)
    unused = leaf(tape, 5.0)
    out = ad.scale(used, 3.0)
    tape.backward(out)
    assert used.grad == 3.0
    assert unused.grad == 0.0


def test_grad_check_sum_of_squares():
    # f(theta) = sum theta_i^2: analytic gradient [2, 4] at [1, 2]
    def loss(tape, leaves):
        x = leaves["theta"]
        return vsum(mul(x, x))

    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    tape.backward(vsum(mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0])
    report = ad.grad_check(loss, {"theta": np.array([1.0, 2.0])}, h=1e-5, tol=1e-4)
    assert report.passed
    assert report.max_rel_error < 1e-6


def test_grad_check_through_relu_affine_chain():
    def loss(tape, leaves):
        h = ad.relu(ad.affine(leaves["x"], leaves["W"], leaves["b"]))
        return vsum(mul(h, h))

    params = {
        "x": np.array([[0.5, -1.5, 2.0], [1.0, 0.3, -0.7]]),
        "W": np.array([[0.2, -0.4, 0.6], [0.9, 0.1, -0.3]]),
        "b": np.array([0.05, -0.02]),
    }
    report = ad.grad_check(loss, params, h=1e-5, tol=1e-4)
    assert report.passed


def test_grad_check_detects_corruption():
    def bad_loss(tape, leaves):
        x = leaves["x"]
        tape.record(lambda: x.grad.__iadd__(0.5))  # bogus extra gradient
        return vsum(mul(x, x))

    report = ad.grad_check(bad_loss, {"x": np.array([1.0, 2.0])}, h=1e-5, tol=1e-4)
    assert not report.passed
    assert report.worst_param == "x"


def test_embed_windows_backward_matches_add_at_reference():
    # three gathers onto one E, with ids repeated within and across windows
    rng = np.random.default_rng(0)
    V, d, l = 7, 4, 3
    tape = ad.Tape()
    E = tape.leaf(rng.normal(size=(V, d)))
    idxs = [rng.integers(0, V, size=(n, p, l)) for n, p in ((3, 5), (2, 4), (4, 6))]
    idxs[0][0, 0, :] = 2
    idxs[1][:, :, 1] = 5
    terms, ref = [], np.zeros((V, d))
    for idx in idxs:
        out = ad.embed_windows(E, idx)
        w = rng.normal(size=out.shape)
        terms.append(vsum(mul(out, leaf(tape, w))))
        np.add.at(ref, idx, w.reshape(*idx.shape, d))
    tape.backward(ad.add(ad.add(terms[0], terms[1]), terms[2]))
    assert np.abs(E.grad - ref).max() <= 1e-12


def test_max_over_time_batch_backward_equals_add_at_reference():
    rng = np.random.default_rng(1)
    lengths, h = np.array([5, 2, 1]), 4
    starts = np.cumsum(lengths) - lengths
    tape = ad.Tape()
    data = rng.normal(size=(int(lengths.sum()), h))
    data[0:2, 0] = 9.0  # a tie inside document 0
    H = leaf(tape, data)
    out = ad.max_over_time_batch(H, lengths)
    g = rng.normal(size=out.shape)
    tape.backward(vsum(mul(out, leaf(tape, g))))
    arg = np.stack([data[s : s + n].argmax(axis=0) for s, n in zip(starts, lengths)])
    ref = np.zeros_like(data)
    np.add.at(ref, (starts[:, None] + arg, np.arange(h)[None, :]), g)
    assert np.array_equal(H.grad, ref)


def _pool_brute_force(rows, lengths):
    """Each document's column maxima and lowest winning positions, one
    filter at a time."""
    maxima, winners, start = [], [], 0
    for n in lengths:
        seg = rows[start : start + n]
        maxima.append(seg.max(axis=0))
        winners.append([np.flatnonzero(seg[:, j] == seg[:, j].max())[0] for j in range(seg.shape[1])])
        start += n
    return np.array(maxima), np.array(winners)


def test_max_over_time_batch_agrees_with_brute_force():
    rng = np.random.default_rng(3)
    h = 4
    lengths = np.array([3, 1, 6, 2])  # a length-1 and a full-length document
    starts = np.cumsum(lengths) - lengths
    rows = np.maximum(rng.normal(size=(int(lengths.sum()), h)), 0.0)
    rows[0:3, 0] = 0.0  # ReLU zeros tie at every position of document 0
    rows[10:12, 2] = 0.0  # and of document 3
    rows[[5, 8], 1] = 7.0  # a positive tie at positions 1 and 4 of document 2
    want_max, want_pos = _pool_brute_force(rows, lengths)
    assert want_pos[0, 0] == 0 and want_pos[3, 2] == 0 and want_pos[2, 1] == 1

    g = rng.normal(size=(len(lengths), h))
    want_grad = np.zeros_like(rows)
    want_grad[starts[:, None] + want_pos, np.arange(h)] = g
    tape = ad.Tape()
    H = leaf(tape, rows)
    out = ad.max_over_time_batch(H, lengths)
    assert np.array_equal(out.data, want_max)
    tape.backward(vsum(mul(out, leaf(tape, g))))
    assert np.array_equal(H.grad, want_grad)


def _forward_only_maxima(tape, rows, lengths):
    """Per-document maxima of packed rows from the forward-only encode
    (conv_max_pool on a NoGradTape): each row is the embedding of its own
    token, and a width-1 convolution with W = I and b = 0 gives every finite
    row back exactly (a NaN spreads over its row)."""
    n, h = rows.shape
    return ad.conv_max_pool(leaf(tape, rows), leaf(tape, np.eye(h)), leaf(tape, np.zeros(h)),
                            np.arange(n)[:, None], lengths)


def test_max_over_time_batch_on_a_no_grad_tape_returns_the_recording_maxima_only():
    rng = np.random.default_rng(5)
    h = 4
    lengths = np.array([3, 1, 6, 2])
    rows = np.maximum(rng.normal(size=(int(lengths.sum()), h)), 0.0)
    rows[0:3, 0] = 0.0  # ReLU zeros tie at every position of document 0
    rows[[5, 8], 1] = 7.0  # a positive tie inside document 2
    want = ad.max_over_time_batch(leaf(ad.Tape(), rows), lengths)
    tape = ad.NoGradTape()
    out = _forward_only_maxima(tape, rows, lengths)
    assert np.array_equal(out.data, want.data)
    assert out.tape is tape and tape._steps == []


@pytest.mark.parametrize("lengths", [
    [3, 1, 6, 2, 6, 6, 2],  # shuffled, with runs of equal lengths
    [1, 2, 2, 3, 3, 3, 6],  # sorted
    [4, 4, 4, 4],           # all equal
    [5],                    # a single document
], ids=["shuffled", "sorted", "all-equal", "single"])
def test_forward_only_pooling_by_runs_equals_a_per_document_max(lengths):
    h = 5
    lengths = np.array(lengths)
    starts = np.cumsum(lengths) - lengths
    rows = np.random.default_rng(len(lengths)).normal(size=(int(lengths.sum()), h))
    rows[-1] = np.nan  # the last document's last row
    want = np.stack([rows[s : s + n].max(axis=0) for s, n in zip(starts, lengths)])
    out = _forward_only_maxima(ad.NoGradTape(), rows, lengths)
    assert np.array_equal(out.data, want, equal_nan=True)
    assert np.isnan(out.data[-1, 3]) and not np.isnan(np.delete(out.data, -1, axis=0)).any()


@pytest.mark.parametrize("tape_cls", [ad.Tape, ad.NoGradTape])
def test_max_over_time_batch_rejects_an_empty_batch(tape_cls):
    H = leaf(tape_cls(), np.zeros((0, 3)))
    with pytest.raises(ShapeError, match="bad lengths"):
        ad.max_over_time_batch(H, np.zeros(0, dtype=np.int64))


def test_softmax_rejects_anything_but_a_logit_batch():
    tape = ad.Tape()
    for bad in ([1.0, 2.0], [[[1.0, 2.0]]]):  # a vector is not a one-row batch
        with pytest.raises(ShapeError, match="logits must be"):
            ad.softmax(leaf(tape, bad))


def test_add_of_a_tensor_with_itself_and_unshared_buffers():
    tape = ad.Tape()
    x = leaf(tape, [1.0, -2.0])
    tape.backward(vsum(ad.add(x, x)))
    assert np.array_equal(x.grad, [2.0, 2.0])
    tape = ad.Tape()
    a, b = leaf(tape, [1.0, 2.0]), leaf(tape, [3.0, 4.0])
    s = ad.add(a, b)
    tape.backward(vsum(s))
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, s.grad) and not np.shares_memory(b.grad, s.grad)
    assert np.array_equal(a.grad, [1.0, 1.0]) and np.array_equal(b.grad, [1.0, 1.0])


def test_consumed_tape_is_freed_by_reference_counting():
    import gc
    import weakref

    gc.disable()
    try:
        tape = ad.Tape()
        x = leaf(tape, [[0.5, -1.0], [2.0, 0.3]])
        W = leaf(tape, [[1.0, 2.0], [-1.0, 0.5]])
        b = leaf(tape, [0.1, -0.1])
        hidden = ad.relu(ad.affine(x, W, b))
        probe = weakref.ref(hidden)
        tape.backward(vsum(ad.softmax(hidden)))
        del tape, x, W, b, hidden
        assert probe() is None
    finally:
        gc.enable()


def test_no_grad_tape_cannot_run_backward():
    tape = ad.NoGradTape()
    x = leaf(tape, [1.0, 2.0])
    y = vsum(ad.scale(x, 3.0))
    assert y.data == 9.0
    with pytest.raises(NumericalError):
        tape.backward(y)


CONV_CASES = {
    # token 1 three times in one window and in three of the four windows
    "repeated-tokens": (5, np.array([[1, 1, 1], [1, 2, 1], [2, 1, 1], [3, 3, 2]])),
    # document [4, 2, 3] with "same" padding: PAD (0) past both edges
    "pad-at-both-edges": (5, np.array([[0, 4, 2], [4, 2, 3], [2, 3, 0]])),
    "single-row": (5, np.array([[2, 0, 3]])),
    "width-1": (5, np.array([[1], [3], [1], [0]])),
    "width-5": (5, np.array([[0, 0, 3, 1, 3], [0, 3, 1, 3, 2], [3, 1, 3, 2, 0], [1, 3, 2, 0, 0]])),
    "batch-axes": (6, np.array([[[0, 5, 1], [5, 1, 0]], [[0, 2, 2], [2, 2, 0]]])),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_windows_matches_affine_of_embed_windows(case):
    V, idx = CONV_CASES[case]
    d, h, l = 4, 3, idx.shape[-1]
    rng = np.random.default_rng(5)
    params = [rng.normal(size=(V, d)), rng.normal(size=(h, l * d)), rng.normal(size=h)]
    w = rng.normal(size=(idx.size // l, h))
    results = []
    for conv in (lambda E, W, b: ad.affine(ad.embed_windows(E, idx), W, b),
                 lambda E, W, b: conv_windows(E, W, b, idx)):
        tape = ad.Tape()
        E, W, b = (tape.leaf(p.copy()) for p in params)
        out = conv(E, W, b)
        tape.backward(vsum(mul(out, leaf(tape, w))))
        results.append((out.data, E.grad, W.grad, b.grad))
    for ref, got in zip(*results):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12


def test_conv_windows_passes_grad_check():
    idx = np.array([[0, 3, 1], [3, 1, 3], [1, 3, 2], [3, 2, 0]])
    rng = np.random.default_rng(6)

    def loss(tape, leaves):
        H = ad.relu(conv_windows(leaves["E"], leaves["W"], leaves["b"], idx))
        return vsum(mul(H, H))

    params = {"E": rng.normal(size=(5, 2)), "W": rng.normal(size=(3, 6)), "b": rng.normal(size=3)}
    report = ad.grad_check(loss, params, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_conv_windows_rejects_bad_ids_and_shapes():
    tape = ad.Tape()
    E, W, b = leaf(tape, np.ones((4, 2))), leaf(tape, np.ones((3, 6))), leaf(tape, np.zeros(3))
    for bad in ([[0, 1, 4]], [[-1, 1, 2]]):
        with pytest.raises(NumericalError):
            conv_windows(E, W, b, np.array(bad))
    with pytest.raises(ShapeError):
        conv_windows(E, W, b, np.array([[0, 1]]))  # W fits windows of 3, not 2
    with pytest.raises(ShapeError):
        conv_windows(E, leaf(tape, np.ones((3, 5))), b, np.array([[0, 1, 2]]))
    with pytest.raises(ShapeError):
        conv_windows(E, W, leaf(tape, np.zeros(2)), np.array([[0, 1, 2]]))
    with pytest.raises(ShapeError):
        conv_windows(E, W, b, np.array([0, 1, 2]))


def test_conv_windows_on_a_no_grad_tape_records_nothing():
    idx = np.array([[0, 1, 2], [1, 2, 0]])
    tape = ad.NoGradTape()
    E, W, b = leaf(tape, np.eye(3)), leaf(tape, np.ones((2, 9))), leaf(tape, [0.5, -0.5])
    out = conv_windows(E, W, b, idx)
    assert tape._steps == []
    assert np.array_equal(out.data, [[3.5, 2.5], [3.5, 2.5]])  # three ones per window, plus b
