"""Training objectives.

Four scalar losses over a minibatch triple, combined as

    total = L + lambda1 * J + lambda2 * Gamma + w_t * Omega

where L is labeled-source cross-entropy, J pulls the source and target mean
feature vectors together (symmetric KL of their L1 normalizations, or an RBF
MMD for the baseline), Gamma is the entropy of target predictions, and Omega
is cross-entropy against the self-ensemble's one-hot targets with no gradient
into the targets. w_t follows a Gaussian ramp from near 0 to lambda3.

L, Gamma and Omega take the classifier's [B, C] logits (any other shape
raises ShapeError) and differentiate through log-sum-exp straight into them;
no loss sees a probability tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _softmax_parts, accumulate, add, batch_mean, l1_normalize, scale
from .errors import ConfigError, NumericalError, ShapeError

__all__ = [
    "VARIANTS",
    "LossWeights",
    "LossBreakdown",
    "source_cross_entropy",
    "entropy_min_loss",
    "bootstrap_loss",
    "symmetric_kl",
    "feature_adaptation_loss",
    "mmd_rbf",
    "median_heuristic_sigma",
    "rampup_weight",
    "total_loss",
    "compose_total",
]

# variant name -> which of (lambda1, lambda2, lambda3) are forced to zero
VARIANTS = {
    "NaiveNN": (True, True, True),
    "FANN": (False, True, True),
    "MMD-baseline": (False, True, True),
    "DAS-EM": (False, False, True),
    "DAS-SE": (False, True, False),
    "DAS": (False, False, False),
}


@dataclass(frozen=True)
class LossWeights:
    lambda1: float
    lambda2: float
    lambda3: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"LossWeights: {name} must be finite and >= 0, got {v}")

    @classmethod
    def for_variant(cls, variant: str, lambda1: float, lambda2: float, lambda3: float) -> "LossWeights":
        """Apply the variant's zero-forcing to the configured weights."""
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
        z1, z2, z3 = VARIANTS[variant]
        return cls(
            0.0 if z1 else float(lambda1),
            0.0 if z2 else float(lambda2),
            0.0 if z3 else float(lambda3),
        )


@dataclass(frozen=True)
class LossBreakdown:
    """One iteration's (or epoch's) components plus the composed total."""

    L: float
    J: float
    Gamma: float
    Omega: float
    w_t: float
    total: float


def _as_const(y) -> np.ndarray:
    # accept a Tensor for convenience; it is treated as constant (stop-gradient)
    return y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)


def _cross_entropy(name: str, y: np.ndarray, logits: Tensor) -> Tensor:
    """-(1/B) sum_i sum_c y[i,c] log softmax(logits)[i,c], one-hot y."""
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"{name}: expected [B, C] logits, got shape {x.shape}")
    if y.shape != x.shape:
        raise ShapeError(f"{name}: labels {y.shape} and logits {x.shape} differ")
    is01 = np.all((y == 0.0) | (y == 1.0))
    if not is01 or not np.all(y.sum(axis=1) == 1.0):
        raise NumericalError(f"{name}: rows must be exactly one-hot")
    B = x.shape[0]
    lse, _, p = _softmax_parts(x)
    tape = logits.tape
    out = tape.leaf(float((y * (lse - x)).sum() / B))

    def back():
        accumulate(logits, (p - y) * (out.grad / B))

    tape.record(back)
    return out


def source_cross_entropy(y_true, logits: Tensor) -> Tensor:
    """Mean cross-entropy of labeled source predictions. y_true is constant
    (one-hot rows); gradient flows only into the logits."""
    return _cross_entropy("source_cross_entropy", _as_const(y_true), logits)


def bootstrap_loss(z_tilde, logits: Tensor) -> Tensor:
    """Cross-entropy against the ensemble's one-hot targets. z_tilde is
    stop-gradient by construction: it enters as data, never as a tape op."""
    return _cross_entropy("bootstrap_loss", _as_const(z_tilde), logits)


def entropy_min_loss(logits: Tensor) -> Tensor:
    """Mean Shannon entropy (natural log) of the softmax of logit rows."""
    if logits.data.ndim != 2:
        raise ShapeError(f"entropy_min_loss: expected [B, C] logits, got shape {logits.data.shape}")
    B = logits.data.shape[0]
    _, s, p = _softmax_parts(logits.data)
    row_h = -(p * s).sum(axis=1)
    tape = logits.tape
    out = tape.leaf(float(row_h.mean()))

    def back():
        accumulate(logits, -p * (s + row_h[:, None]) * (out.grad / B))

    tape.record(back)
    return out


def symmetric_kl(p: Tensor, q: Tensor) -> Tensor:
    """KL(p || q) + KL(q || p) for strictly positive vectors summing to 1."""
    if p.data.ndim != 1 or q.data.ndim != 1 or p.data.shape != q.data.shape:
        raise ShapeError(f"symmetric_kl: shapes {p.data.shape} and {q.data.shape} must be equal vectors")
    if p.data.min() <= 0.0 or q.data.min() <= 0.0:
        raise NumericalError("symmetric_kl: entries must be strictly positive")
    if abs(p.data.sum() - 1.0) > 1e-6 or abs(q.data.sum() - 1.0) > 1e-6:
        raise NumericalError("symmetric_kl: inputs must sum to 1 (L1-normalize first)")
    tape = p.tape
    ratio = np.log(p.data / q.data)
    out = tape.leaf(float((p.data * ratio).sum() + (q.data * -ratio).sum()))

    def back():
        g = out.grad
        accumulate(p, g * (ratio + 1.0 - q.data / p.data))
        accumulate(q, g * (-ratio + 1.0 - p.data / q.data))

    tape.record(back)
    return out


def feature_adaptation_loss(xi_s: Tensor, xi_t: Tensor, eps: float = 1e-6) -> Tensor:
    """Symmetric KL between the L1-normalized mean feature vectors of the
    source and target minibatches (computed on the same post-dropout features
    the classifier consumes)."""
    g_s = l1_normalize(batch_mean(xi_s), eps)
    g_t = l1_normalize(batch_mean(xi_t), eps)
    return symmetric_kl(g_s, g_t)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances [len(A), len(B)] between rows, clipped at 0."""
    a2 = (A * A).sum(axis=1)[:, None]
    b2 = (B * B).sum(axis=1)[None, :]
    return np.maximum(a2 + b2 - 2.0 * A @ B.T, 0.0)


def median_heuristic_sigma(xs: np.ndarray, xt: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled rows (1.0 when the
    median degenerates to 0)."""
    pooled = np.vstack([np.asarray(xs, dtype=np.float64), np.asarray(xt, dtype=np.float64)])
    d2 = _sq_dists(pooled, pooled)
    iu = np.triu_indices(pooled.shape[0], k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    return med if med > 0.0 else 1.0


def mmd_rbf(xs: Tensor, xt: Tensor, sigma: float) -> Tensor:
    """Biased-estimator squared MMD with a Gaussian RBF kernel:

        mean k(s, s') + mean k(t, t') - 2 mean k(s, t),
        k(x, y) = exp(-||x - y||^2 / (2 sigma^2)).
    """
    if xs.data.ndim != 2 or xt.data.ndim != 2 or xs.data.shape[1] != xt.data.shape[1]:
        raise ShapeError(f"mmd_rbf: incompatible shapes {xs.data.shape} and {xt.data.shape}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise NumericalError(f"mmd_rbf: sigma must be positive, got {sigma}")
    X, Y = xs.data, xt.data
    m, n = X.shape[0], Y.shape[0]
    c = 1.0 / (sigma * sigma)

    K_ss = np.exp(-0.5 * c * _sq_dists(X, X))
    K_tt = np.exp(-0.5 * c * _sq_dists(Y, Y))
    K_st = np.exp(-0.5 * c * _sq_dists(X, Y))
    tape = xs.tape
    out = tape.leaf(float(K_ss.mean() + K_tt.mean() - 2.0 * K_st.mean()))

    def back():
        g = float(out.grad)
        # d mean K_ss / dX_i = (2c/m^2) * sum_j k_ij (x_j - x_i)
        accumulate(xs, g * (2.0 * c / (m * m)) * (K_ss @ X - K_ss.sum(axis=1)[:, None] * X))
        accumulate(xt, g * (2.0 * c / (n * n)) * (K_tt @ Y - K_tt.sum(axis=1)[:, None] * Y))
        # -2 mean K_st couples both sides
        accumulate(xs, g * (-2.0 * c / (m * n)) * (K_st @ Y - K_st.sum(axis=1)[:, None] * X))
        accumulate(xt, g * (-2.0 * c / (m * n)) * (K_st.T @ X - K_st.sum(axis=0)[:, None] * Y))

    tape.record(back)
    return out


def rampup_weight(t: int, t_max: int, lambda3: float) -> float:
    """w(t) = exp(-5 (1 - t/t_max)^2) * lambda3 for epoch t in [1, t_max].

    Exactly lambda3 at t = t_max; approaches lambda3 * e^-5 as t/t_max -> 0.
    """
    if t_max < 1 or not (1 <= t <= t_max):
        raise ConfigError(f"rampup_weight: need 1 <= t <= t_max, got t={t}, t_max={t_max}")
    if not (math.isfinite(lambda3) and lambda3 >= 0.0):
        raise ConfigError(f"rampup_weight: lambda3 must be finite and >= 0, got {lambda3}")
    ratio = 1.0 - t / t_max
    return math.exp(-5.0 * ratio * ratio) * lambda3


def total_loss(L: float, J: float, Gamma: float, Omega: float, weights: LossWeights, w_t: float) -> LossBreakdown:
    """Compose the scalar components; raises naming any non-finite one."""
    parts = {"L": L, "J": J, "Gamma": Gamma, "Omega": Omega, "w_t": w_t}
    for name, v in parts.items():
        if not math.isfinite(v):
            raise NumericalError(f"total_loss: component {name} is not finite ({v!r})")
    total = ((L + weights.lambda1 * J) + weights.lambda2 * Gamma) + w_t * Omega
    return LossBreakdown(L=L, J=J, Gamma=Gamma, Omega=Omega, w_t=w_t, total=total)


def compose_total(
    L: Tensor,
    J: Tensor | None,
    Gamma: Tensor | None,
    Omega: Tensor | None,
    weights: LossWeights,
    w_t: float,
) -> tuple[Tensor, LossBreakdown]:
    """The objective on the tape plus its logged breakdown. The tape adds the
    terms in total_loss's order, so both totals match bit for bit; a skipped
    (None) term logs exactly 0.0."""
    out = L
    if J is not None:
        out = add(out, scale(J, weights.lambda1))
    if Gamma is not None:
        out = add(out, scale(Gamma, weights.lambda2))
    if Omega is not None:
        out = add(out, scale(Omega, w_t))
    values = (0.0 if x is None else float(x.data) for x in (L, J, Gamma, Omega))
    return out, total_loss(*values, weights, w_t)
