"""Self-ensemble accumulator algebra and batched prediction."""

import numpy as np
import pytest

import textda.ensemble
from reference_ops import pack, pad_docs
from textda import autodiff as ad
from textda.data import LABELS, PAD_INDEX
from textda.ensemble import EnsembleState, predict_all
from textda.errors import ConfigError, NumericalError, ShapeError
from textda.model import ScoringPass, forward_eval, init_params
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


def test_predict_all_chunking_matches_single_pass(monkeypatch):
    rng = named_rng(7, "embeddings")
    params = init_params(rng.uniform(-0.25, 0.25, size=(15, 4)),
                         window=3, hidden=6, rng=named_rng(7, "init"))
    docs = [
        np.array([2, 3, 4, 5, 6, 7]),
        np.array([8, 9]),
        np.array([10, 11, 12]),
        np.array([13, 14, 2, 3, 4]),
        np.array([5]),
    ]
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", 2)
    chunked = predict_all(params, *pack(docs))
    assert chunked.shape == (5, 3)
    # per-chunk padding must not change any document's prediction
    for i, doc in enumerate(docs):
        single, _ = forward_eval(params, doc[None, :], np.array([len(doc)]))
        assert np.max(np.abs(chunked[i] - single[0])) < 1e-12


def test_predict_all_sorts_each_batch_by_length_and_restores_corpus_order(monkeypatch):
    rng = named_rng(11, "docs")
    params = init_params(rng.uniform(-0.25, 0.25, size=(15, 4)),
                         window=3, hidden=6, rng=named_rng(11, "init"))
    # batches of 20 with many ties: numpy's default sort is not stable at that size
    lengths = rng.integers(1, 6, size=45).tolist()
    docs = [rng.integers(1, 15, size=n) for n in lengths]
    eval_batch = 20
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", eval_batch)
    calls = []

    def spy(*args, **kwargs):
        assert len(args) == 3 and not kwargs  # forward_eval(params, mat, lengths)
        calls.append(args[1:])
        return forward_eval(*args)

    monkeypatch.setattr(textda.ensemble, "forward_eval", spy)
    probs = predict_all(params, *pack(docs))
    assert len(calls) == 3
    for start, (mat, batch_lengths) in zip(range(0, len(docs), eval_batch), calls):
        idx = np.arange(start, min(start + eval_batch, len(docs)))
        # the same members as the contiguous slice, by non-decreasing length, stable on ties
        order = idx[sorted(range(len(idx)), key=lambda k: lengths[idx[k]])]
        want_mat, want_lengths = pad_docs(docs, order)
        assert np.array_equal(mat, want_mat) and np.array_equal(batch_lengths, want_lengths)
        assert np.all(np.diff(batch_lengths) >= 0)
        # each row back at its corpus position, bit-equal to the unsorted slice
        unsorted, _ = forward_eval(params, *pad_docs(docs, idx))
        assert np.array_equal(probs[idx], unsorted)


def test_predict_all_rejects_non_finite_probabilities(monkeypatch):
    # finite but huge parameters: the convolution overflows to inf and
    # softmax turns the rows to NaN
    params = init_params(np.full((15, 4), 1e308), window=3, hidden=6,
                         rng=named_rng(7, "init"))
    params.W[:] = 1.0
    docs = [np.array([2, 3, 4]), np.array([5, 6])]
    # sorted by length, document 1 is scored first; the error names document 0
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", 2)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="document 0 are not finite"):
        predict_all(params, *pack(docs))


def test_predict_all_names_a_non_finite_document_by_its_corpus_index(monkeypatch):
    # token 9's huge embedding overflows only the windows that hold it
    E = named_rng(7, "docs").uniform(-0.25, 0.25, size=(15, 4))
    E[9] = 1e308
    params = init_params(E, window=3, hidden=6, rng=named_rng(7, "init"))
    params.W[:] = 1.0
    docs = [np.array([1, 2]), np.array([3]), np.array([4, 5, 6]),
            np.array([9, 2, 3, 4, 5]), np.array([1, 2]), np.array([3])]
    # document 3 is row 0 of the second batch, and row 2 once sorted by length
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", 3)
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match=r"document 3 are not finite \(1 of the 3 in its batch"):
        predict_all(params, *pack(docs))


def _scoring_case(width: int, n_docs: int, seed: int):
    rng = named_rng(seed, "docs")
    params = init_params(rng.uniform(-0.25, 0.25, size=(400, width)), window=3, hidden=width,
                         rng=named_rng(seed, "init"))
    docs = [rng.integers(1, 400, size=n) for n in rng.integers(1, 30, size=n_docs)]
    return params, docs


def test_predict_all_projects_the_pass_once(monkeypatch):
    params, docs = _scoring_case(4, 45, seed=5)
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", 20)
    projections, batches = [], []
    real_project, real_forward_eval = ad.project, textda.ensemble.forward_eval
    monkeypatch.setattr(ad, "project", lambda *a: projections.append(a) or real_project(*a))
    monkeypatch.setattr(textda.ensemble, "forward_eval", lambda *a: batches.append(a) or real_forward_eval(*a))
    predict_all(params, *pack(docs))
    assert len(batches) == 3 and len(projections) == 1
    # the pass's distinct tokens and the padding id, each once
    assert np.array_equal(batches[0][0].projection.tokens, np.unique(np.concatenate([[PAD_INDEX], *docs])))


def test_predict_all_at_paper_width_matches_per_batch_scoring_and_repeats_its_bytes(monkeypatch):
    # at d = h = 300 a GEMM's rounding can depend on the set of rows it multiplies
    params, docs = _scoring_case(300, 60, seed=6)
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", 25)
    probs = predict_all(params, *pack(docs))
    for start in range(0, len(docs), 25):
        idx = np.arange(start, min(start + 25, len(docs)))
        per_batch, _ = forward_eval(params, *pad_docs(docs, idx))
        assert np.all(np.abs(probs[idx] - per_batch) <= 1e-12 * np.abs(per_batch))
    assert predict_all(params, *pack(docs)).tobytes() == probs.tobytes()


@pytest.mark.parametrize("width, n_docs", [(4, 45), (300, 60), (4, 0)])
def test_predict_all_of_packed_ids_gives_the_bytes_of_per_batch_scoring(monkeypatch, width, n_docs):
    params, docs = _scoring_case(width, n_docs, seed=9)
    monkeypatch.setattr(textda.ensemble, "EVAL_BATCH", 20)
    ids, lengths = pack(docs)
    probs = predict_all(params, ids, lengths)
    assert probs.shape == (n_docs, len(LABELS)) and probs.dtype == np.float64
    # each contiguous batch of per-document arrays, unsorted, scored from the
    # projection of the pass's tokens and the padding id
    model = ScoringPass(params, ad.project(params.E, params.W, np.concatenate([[PAD_INDEX], *docs]))[0])
    for start in range(0, n_docs, 20):
        idx = np.arange(start, min(start + 20, n_docs))
        per_batch, _ = forward_eval(model, *pad_docs(docs, idx))
        assert probs[idx].tobytes() == per_batch.tobytes()


def test_predict_all_of_no_documents_is_empty():
    params, _ = _scoring_case(4, 1, seed=7)
    assert predict_all(params, *pack([])).shape == (0, len(LABELS))


def test_a_projection_missing_a_windows_token_is_refused():
    params, docs = _scoring_case(4, 3, seed=8)
    mat, lengths = pad_docs(docs, np.arange(3))
    tokens = np.concatenate([[PAD_INDEX], *docs])
    absent = int(docs[1][0])
    projection = ad.project(params.E, params.W, tokens[tokens != absent])[0]
    with pytest.raises(NumericalError, match=f"conv_max_pool: token {absent} has no row in the projection"):
        forward_eval(ScoringPass(params, projection), mat, lengths)
    # a recording tape projects its own windows' tokens
    tape = ad.Tape()
    leaves = params.leaves(tape)
    windows = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(NumericalError, match="recording tape"):
        ad.conv_max_pool(leaves["E"], leaves["W"], leaves["b"], windows, np.array([2]),
                         ad.project(params.E, params.W, windows)[0])
