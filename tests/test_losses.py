"""Loss oracles: closed-form reference values, validation, and gradients."""

import math

import numpy as np
import pytest
from scipy.special import log_softmax, rel_entr

import textda.autodiff as ad
from textda.errors import ConfigError, NumericalError, ShapeError
from textda.losses import (
    LossBreakdown,
    LossWeights,
    VARIANTS,
    bootstrap_loss,
    compose_total,
    entropy_min_loss,
    feature_adaptation_loss,
    median_heuristic_sigma,
    mmd_rbf,
    rampup_weight,
    source_cross_entropy,
    symmetric_kl,
    total_loss,
)


def _vec(tape, values):
    return tape.leaf(np.asarray(values, dtype=np.float64))


# ---------------------------------------------------------------- symmetric KL


def test_symmetric_kl_reference_value():
    tape = ad.Tape()
    out = symmetric_kl(_vec(tape, [0.5, 0.5]), _vec(tape, [0.25, 0.75]))
    # frozen: 0.5 ln 2 + 0.5 ln(2/3) + 0.25 ln(1/2) + 0.75 ln(3/2)
    assert abs(out.data.item() - 0.27465307216702745) < 1e-12
    assert abs(out.data.item() - 0.2747) < 1e-4


def test_symmetric_kl_matches_scipy_rel_entr():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = rng.random(6) + 0.1
        q = rng.random(6) + 0.1
        p, q = p / p.sum(), q / q.sum()
        tape = ad.Tape()
        out = symmetric_kl(_vec(tape, p), _vec(tape, q))
        want = rel_entr(p, q).sum() + rel_entr(q, p).sum()
        assert abs(out.data.item() - want) < 1e-12


def test_symmetric_kl_zero_on_equal_and_symmetric():
    p = np.array([0.2, 0.3, 0.5])
    tape = ad.Tape()
    assert symmetric_kl(_vec(tape, p), _vec(tape, p.copy())).data.item() == 0.0
    q = np.array([0.6, 0.1, 0.3])
    t1, t2 = ad.Tape(), ad.Tape()
    a = symmetric_kl(_vec(t1, p), _vec(t1, q)).data.item()
    b = symmetric_kl(_vec(t2, q), _vec(t2, p)).data.item()
    assert a == b


def test_symmetric_kl_validates_inputs():
    tape = ad.Tape()
    with pytest.raises(ShapeError):
        symmetric_kl(_vec(tape, [0.5, 0.5]), _vec(tape, [0.2, 0.3, 0.5]))
    with pytest.raises(NumericalError):
        symmetric_kl(_vec(tape, [1.0, 0.0]), _vec(tape, [0.5, 0.5]))
    with pytest.raises(NumericalError):
        symmetric_kl(_vec(tape, [0.4, 0.4]), _vec(tape, [0.5, 0.5]))


def test_feature_adaptation_loss_zero_for_identical_batches():
    xi = np.array([[0.5, 1.5, 0.0], [2.0, 0.5, 1.0]])
    tape = ad.Tape()
    out = feature_adaptation_loss(tape.leaf(xi), tape.leaf(xi.copy()))
    assert out.data.item() == 0.0


def test_feature_adaptation_gradient_matches_finite_differences():
    def loss(tape, leaves):
        return feature_adaptation_loss(leaves["xi_s"], leaves["xi_t"])

    rng = np.random.default_rng(3)
    params = {"xi_s": rng.random((4, 5)) + 0.1, "xi_t": rng.random((3, 5)) + 0.1}
    report = ad.grad_check(loss, params)
    assert report.passed, report.summary()


# -------------------------------------------------------------- cross-entropy


def test_cross_entropy_uniform_is_log_nclasses():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((2, 3)))
    y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    out = source_cross_entropy(y, logits)
    assert abs(out.data.item() - math.log(3.0)) < 1e-12


def test_cross_entropy_fused_gradient_hand_value():
    # logits 0 -> p = 1/3 each; d/dx = (p - y) / B
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((1, 3)))
    out = source_cross_entropy(np.array([[1.0, 0.0, 0.0]]), logits)
    tape.backward(out)
    assert np.allclose(logits.grad, [[-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_cross_entropy_fallback_matches_fused_value():
    # the fused log-sum-exp value is the mean of -log_softmax at the labeled class
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3))
    y = np.eye(3)[[0, 2, 1, 2]]
    tape = ad.Tape()
    fused = source_cross_entropy(y, tape.leaf(x)).data.item()
    reference = -(y * log_softmax(x, axis=1)).sum() / 4
    assert abs(fused - reference) < 1e-12


def test_cross_entropy_clamps_zero_probability():
    # the labeled class has probability exp(-2000) = 0.0 in float64; the loss
    # is still its exact -log, with no clamp, and the gradient stays finite
    tape = ad.Tape()
    logits = tape.leaf(np.array([[-1000.0, 1000.0]]))
    out = source_cross_entropy(np.array([[1.0, 0.0]]), logits)
    assert out.data.item() == 2000.0
    tape.backward(out)
    assert np.array_equal(logits.grad, [[-1.0, 1.0]])


def test_cross_entropy_rejects_bad_labels():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((2, 3)))
    with pytest.raises(NumericalError):
        source_cross_entropy(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]), logits)
    with pytest.raises(ShapeError):
        source_cross_entropy(np.array([[1.0, 0.0]]), logits)


def test_bootstrap_loss_is_stop_gradient_in_targets():
    tape = ad.Tape()
    logits = tape.leaf(np.array([[0.2, -0.1, 0.4]]))
    z = tape.leaf(np.array([[0.0, 0.0, 1.0]]))
    out = bootstrap_loss(z, logits)
    tape.backward(out)
    assert np.all(z.grad == 0.0)
    assert np.any(logits.grad != 0.0)


# -------------------------------------------------------------------- entropy


def test_entropy_uniform_reference_value():
    tape = ad.Tape()
    out = entropy_min_loss(tape.leaf(np.zeros((5, 3))))
    assert abs(out.data.item() - math.log(3.0)) < 1e-12
    assert abs(out.data.item() - 1.0986) < 1e-4


def test_entropy_hand_value_and_fallback_agreement():
    # logits log p give softmax p back
    tape = ad.Tape()
    out = entropy_min_loss(tape.leaf(np.log([[0.5, 0.25, 0.25]])))
    assert abs(out.data.item() - 1.5 * math.log(2.0)) < 1e-12


def test_entropy_zero_for_point_mass():
    tape = ad.Tape()
    out = entropy_min_loss(tape.leaf(np.array([[0.0, -1000.0, -1000.0]])))
    assert out.data.item() == 0.0


def test_entropy_fused_gradient_matches_finite_differences():
    def loss(tape, leaves):
        return entropy_min_loss(leaves["x"])

    rng = np.random.default_rng(5)
    report = ad.grad_check(loss, {"x": rng.normal(size=(3, 4))})
    assert report.passed, report.summary()


def test_prediction_losses_reject_a_vector():
    # logits are [B, C] rows; a single row is not silently promoted
    tape = ad.Tape()
    p = tape.leaf(np.array([0.2, -0.1, 0.4]))
    y = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ShapeError, match=r"\[B, C\]"):
        source_cross_entropy(y, p)
    with pytest.raises(ShapeError, match=r"\[B, C\]"):
        bootstrap_loss(y, p)
    with pytest.raises(ShapeError, match=r"\[B, C\]"):
        entropy_min_loss(p)


# ------------------------------------------------------------------------ MMD


def test_mmd_reference_value_unit_points():
    tape = ad.Tape()
    out = mmd_rbf(tape.leaf(np.array([[0.0]])), tape.leaf(np.array([[1.0]])), sigma=1.0)
    # frozen: 2 - 2 exp(-1/2)
    assert abs(out.data.item() - 0.7869386805747332) < 1e-12
    assert abs(out.data.item() - 0.7869) < 1e-4


def test_mmd_two_point_closed_form():
    tape = ad.Tape()
    out = mmd_rbf(tape.leaf(np.array([[0.0], [2.0]])), tape.leaf(np.array([[1.0]])), sigma=1.0)
    want = (1.0 + math.exp(-2.0)) / 2.0 + 1.0 - 2.0 * math.exp(-0.5)
    assert abs(out.data.item() - want) < 1e-12


def test_mmd_zero_for_identical_batches():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(6, 4))
    tape = ad.Tape()
    out = mmd_rbf(tape.leaf(X), tape.leaf(X.copy()), sigma=1.3)
    assert abs(out.data.item()) < 1e-12


def test_mmd_gradient_matches_finite_differences():
    def loss(tape, leaves):
        return mmd_rbf(leaves["xs"], leaves["xt"], sigma=1.0)

    rng = np.random.default_rng(9)
    params = {"xs": rng.normal(size=(4, 3)), "xt": rng.normal(size=(5, 3))}
    report = ad.grad_check(loss, params)
    assert report.passed, report.summary()


def test_mmd_validates_sigma_and_shapes():
    tape = ad.Tape()
    xs, xt = tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((2, 3)))
    with pytest.raises(NumericalError):
        mmd_rbf(xs, xt, sigma=0.0)
    with pytest.raises(ShapeError):
        mmd_rbf(xs, tape.leaf(np.zeros((2, 4))), sigma=1.0)


def test_median_heuristic_hand_value_and_degenerate_fallback():
    xs = np.array([[0.0], [0.0]])
    xt = np.array([[3.0], [4.0]])
    # pooled pairwise distances sorted: 0, 1, 3, 3, 4, 4 -> median 3
    assert median_heuristic_sigma(xs, xt) == 3.0
    same = np.zeros((3, 2))
    assert median_heuristic_sigma(same, same) == 1.0


# -------------------------------------------------------------------- ramp-up


def test_rampup_is_lambda3_exactly_at_t_max():
    assert rampup_weight(30, 30, 3.0) == 3.0
    assert rampup_weight(7, 7, 0.25) == 0.25


def test_rampup_limit_toward_ratio_zero():
    # t/t_max -> 0 gives lambda3 * exp(-5)
    assert abs(rampup_weight(1, 10**9, 3.0) - 3.0 * math.exp(-5.0)) < 1e-9


def test_rampup_monotone_in_t():
    values = [rampup_weight(t, 20, 2.0) for t in range(1, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rampup_validates_arguments():
    with pytest.raises(ConfigError):
        rampup_weight(0, 10, 1.0)
    with pytest.raises(ConfigError):
        rampup_weight(11, 10, 1.0)
    with pytest.raises(ConfigError):
        rampup_weight(1, 10, -1.0)


# ------------------------------------------------------- variants and totals


def test_variant_zero_forcing_table():
    w = LossWeights.for_variant("NaiveNN", 200.0, 1.0, 3.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (0.0, 0.0, 0.0)
    w = LossWeights.for_variant("FANN", 200.0, 1.0, 3.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (200.0, 0.0, 0.0)
    w = LossWeights.for_variant("MMD-baseline", 200.0, 1.0, 3.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (200.0, 0.0, 0.0)
    w = LossWeights.for_variant("DAS-EM", 200.0, 1.0, 3.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (200.0, 1.0, 0.0)
    w = LossWeights.for_variant("DAS-SE", 200.0, 1.0, 3.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (200.0, 0.0, 3.0)
    w = LossWeights.for_variant("DAS", 200.0, 1.0, 3.0)
    assert (w.lambda1, w.lambda2, w.lambda3) == (200.0, 1.0, 3.0)
    assert set(VARIANTS) == {"NaiveNN", "FANN", "MMD-baseline", "DAS-EM", "DAS-SE", "DAS"}
    with pytest.raises(ConfigError):
        LossWeights.for_variant("DAS-XL", 1.0, 1.0, 1.0)


def test_loss_weights_reject_negative_or_nonfinite():
    with pytest.raises(ConfigError):
        LossWeights(-1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        LossWeights(0.0, float("nan"), 0.0)


def test_total_loss_composition_order_and_values():
    w = LossWeights(200.0, 1.0, 3.0)
    bd = total_loss(0.7, 0.01, 1.05, 0.9, w, w_t=2.5)
    assert isinstance(bd, LossBreakdown)
    assert bd.total == ((0.7 + 200.0 * 0.01) + 1.0 * 1.05) + 2.5 * 0.9
    assert (bd.L, bd.J, bd.Gamma, bd.Omega, bd.w_t) == (0.7, 0.01, 1.05, 0.9, 2.5)


def test_total_loss_names_nonfinite_component():
    w = LossWeights(1.0, 1.0, 1.0)
    with pytest.raises(NumericalError, match="Gamma"):
        total_loss(0.1, 0.1, float("nan"), 0.1, w, w_t=1.0)


def test_compose_total_matches_scalar_total_bitwise():
    w = LossWeights(200.0, 1.0, 3.0)
    vals = (0.7123456789, 0.0123456789, 1.0512345678, 0.8987654321)
    w_t = 2.3456
    tape = ad.Tape()
    leaves = [tape.leaf(np.float64(v)) for v in vals]
    out, logged = compose_total(leaves[0], leaves[1], leaves[2], leaves[3], w, w_t)
    bd = total_loss(*vals, w, w_t=w_t)
    assert logged == bd
    assert out.data.item() == logged.total


def test_compose_total_skipped_terms_equal_zero_weight_scalars():
    # tape side omits a term entirely; scalar side multiplies by 0: same bits
    w = LossWeights(0.0, 0.0, 0.0)
    tape = ad.Tape()
    L = tape.leaf(np.float64(0.7123456789))
    out, logged = compose_total(L, None, None, None, w, w_t=0.0)
    bd = total_loss(0.7123456789, 0.25, 0.5, 0.75, w, w_t=0.0)
    assert out.data.item() == logged.total == bd.total == 0.7123456789
    assert (logged.J, logged.Gamma, logged.Omega) == (0.0, 0.0, 0.0)


def test_compose_total_names_a_nonfinite_term():
    tape = ad.Tape()
    L, J = tape.leaf(np.float64(0.5)), tape.leaf(np.float64(np.inf))
    with pytest.raises(NumericalError, match="component J"):
        compose_total(L, J, None, None, LossWeights(1.0, 1.0, 1.0), w_t=1.0)
