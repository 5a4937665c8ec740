"""Self-ensemble accumulator algebra and batched prediction."""

import numpy as np
import pytest

from textda.ensemble import EnsembleState, predict_all
from textda.errors import ConfigError, NumericalError, ShapeError
from textda.model import forward_eval, init_params
from textda.rng import named_rng


def test_zeros_layout_and_alpha_validation():
    state = EnsembleState.zeros(4, 3, alpha=0.5)
    assert state.Z.shape == (4, 3)
    assert np.all(state.Z == 0.0)
    EnsembleState.zeros(1, 3, alpha=0.0)
    with pytest.raises(ConfigError):
        EnsembleState.zeros(1, 3, alpha=1.0)
    with pytest.raises(ConfigError):
        EnsembleState.zeros(1, 3, alpha=-0.1)


def test_update_geometric_series_oracle():
    # k updates with constant predictions P give Z = (1 - alpha^k) P
    rng = np.random.default_rng(0)
    P = rng.random((6, 3))
    P /= P.sum(axis=1, keepdims=True)
    alpha = 0.6
    state = EnsembleState.zeros(6, 3, alpha=alpha)
    for k in range(1, 8):
        state.update(P)
        want = (1.0 - alpha**k) * P
        assert np.max(np.abs(state.Z - want)) < 1e-12


def test_update_alpha_zero_tracks_latest_exactly():
    state = EnsembleState.zeros(2, 3, alpha=0.0)
    P1 = np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4]])
    P2 = np.array([[0.9, 0.05, 0.05], [0.2, 0.5, 0.3]])
    state.update(P1)
    assert np.array_equal(state.Z, P1)
    state.update(P2)
    assert np.array_equal(state.Z, P2)


def test_update_rejects_shape_mismatch():
    state = EnsembleState.zeros(2, 3, alpha=0.5)
    with pytest.raises(ShapeError):
        state.update(np.zeros((3, 3)))


def test_to_targets_onehot_with_low_class_ties():
    state = EnsembleState.zeros(3, 3, alpha=0.5)
    state.Z = np.array([
        [0.2, 0.5, 0.3],   # clear winner: class 1
        [0.4, 0.4, 0.2],   # tie 0 vs 1 -> class 0
        [0.0, 0.0, 0.0],   # all zero -> class 0
    ])
    targets = state.to_targets()
    assert np.array_equal(targets, [[0, 1, 0], [1, 0, 0], [1, 0, 0]])
    assert targets.dtype == np.float64


def test_first_update_targets_equal_model_argmax():
    # from Z = 0, one update scales predictions by (1 - alpha): same argmax
    rng = np.random.default_rng(3)
    P = rng.random((10, 3))
    P /= P.sum(axis=1, keepdims=True)
    state = EnsembleState.zeros(10, 3, alpha=0.5)
    state.update(P)
    assert np.array_equal(state.to_targets().argmax(axis=1), P.argmax(axis=1))


def test_predict_all_chunking_matches_single_pass():
    rng = named_rng(7, "embeddings")
    params = init_params(rng.uniform(-0.25, 0.25, size=(15, 4)),
                         window=3, hidden=6, n_classes=3, rng=named_rng(7, "init"))
    docs = [
        np.array([2, 3, 4, 5, 6, 7]),
        np.array([8, 9]),
        np.array([10, 11, 12]),
        np.array([13, 14, 2, 3, 4]),
        np.array([5]),
    ]
    chunked = predict_all(params, docs, eval_batch=2)
    assert chunked.shape == (5, 3)
    # per-chunk padding must not change any document's prediction
    for i, doc in enumerate(docs):
        single, _ = forward_eval(params, doc[None, :], np.array([len(doc)]))
        assert np.max(np.abs(chunked[i] - single[0])) < 1e-12
    with pytest.raises(ConfigError):
        predict_all(params, docs, eval_batch=0)


def test_predict_all_rejects_non_finite_probabilities():
    # finite but huge parameters: the convolution overflows to inf and
    # softmax turns the rows to NaN
    params = init_params(np.full((15, 4), 1e308), window=3, hidden=6, n_classes=3,
                         rng=named_rng(7, "init"))
    params.W[:] = 1.0
    docs = [np.array([2, 3, 4]), np.array([5, 6])]
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="batch row 0 are not finite"):
        predict_all(params, docs, eval_batch=2)
