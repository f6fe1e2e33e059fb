"""The safety verdict, margins, and the measurement schedule.

Membership of x in the safety set (all constraints satisfied for every
parameter in the confidence ellipsoids) has two equivalent forms: the scalar
Fact-2 test through the sample mean and centered-scatter inverse, which
fact2_check applies to every iterate, and the second-order-cone form through
the full covariance factor, which RO's cutting planes linearize through
cone_terms and unsafe_ahead evaluates over a forecast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import ConstraintEstimator, Forecast, phi_inverse
from .problem import GeometryConstants


@dataclass(frozen=True)
class SafetyConfig:
    T: int                # iteration budget
    omega0: float         # probe radius
    phi_delta: float      # sigma * phi_inverse(d, delta / T / m)
    cn: float             # schedule constant

    def __post_init__(self):
        if self.T < 3:
            raise ValueError("iteration budget must be at least 3 (ln ln T must be positive)")
        if self.phi_delta < 0.0 or self.omega0 <= 0.0:
            raise ValueError("phi_delta must be >= 0 and omega0 > 0")


def make_safety_config(delta: float, T: int, m: int, d: int, sigma: float, omega0: float) -> SafetyConfig:
    """Split the confidence budget delta over T iterations and m constraints:
    the radius sigma * phi_inverse(d, delta / T / m), with cn = 0."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    phi_delta = sigma * phi_inverse(d, delta / T / m)
    return SafetyConfig(T=T, omega0=omega0, phi_delta=phi_delta, cn=0.0)


@dataclass
class SafetyVerdict:
    safe: bool
    lhs: float                   # uncertainty radius at the test point
    min_margin: float


def margins(est: ConstraintEstimator, x: np.ndarray) -> np.ndarray:
    """Estimated slacks b_hat_i - <a_hat_i, x>, one per constraint."""
    if est.beta_hat is None:
        raise ValueError("no estimate available yet")
    x = np.asarray(x, dtype=float)
    return est.b_hat() - x @ est.a_hat()


def fact2_check(est: ConstraintEstimator, cfg: SafetyConfig, x: np.ndarray) -> SafetyVerdict:
    """Scalar safety test: phi * sqrt(1/N + (x-xbar)^T R (x-xbar)) <= min margin; ties count as safe."""
    x = np.asarray(x, dtype=float)
    xbar, R = est.block_quantities()
    diff = x - xbar
    lhs = cfg.phi_delta * math.sqrt(1.0 / est.N + float(diff @ R @ diff))
    min_margin = float(margins(est, x).min())
    return SafetyVerdict(safe=lhs <= min_margin, lhs=lhs, min_margin=min_margin)


def cone_terms(est: ConstraintEstimator, x: np.ndarray) -> tuple[np.ndarray, float]:
    """P z and ||Sigma^(1/2) z|| / sigma = sqrt(z^T P z) for z = [x; -1]."""
    if est.P is None:
        raise ValueError("design does not yet span R^(d+1)")
    z = np.append(x, -1.0)
    pz = est.P @ z
    return pz, math.sqrt(max(float(z @ pz), 0.0))


def unsafe_ahead(ahead: Forecast, cfg: SafetyConfig, X: np.ndarray, band: float) -> np.ndarray:
    """For each future count k, whether X[k-1] fails the cone-form safety test
    under the forecast estimate by more than `band` relative to the terms
    compared; ties and near ties read as not unsafe."""
    d = X.shape[1]
    Z = np.hstack([X, -np.ones((X.shape[0], 1))])
    lhs = cfg.phi_delta * np.sqrt(ahead.quadratic(Z))[:, None]
    b = ahead.beta[:, d, :]
    ax = np.matmul(X[:, None, :], ahead.beta[:, :d, :])[:, 0, :]
    return np.any(lhs - (b - ax) > band * (lhs + np.abs(b) + np.abs(ax)), axis=1)


def c_delta_constant(geo: GeometryConstants, cfg: SafetyConfig, d: int) -> float:
    """Vertex-estimation error constant: 2 phi d (Gamma0+1) / rho_min * sqrt((Gamma0^2+1)/omega0^2 + 1)."""
    return (
        2.0
        * cfg.phi_delta
        * d
        * (geo.gamma0 + 1.0)
        / geo.rho_min
        * math.sqrt((geo.gamma0 * geo.gamma0 + 1.0) / (cfg.omega0 * cfg.omega0) + 1.0)
    )


def cn_lower_bound(geo: GeometryConstants, cfg: SafetyConfig, d: int) -> float:
    """Schedule constant lower bound guaranteeing per-iterate safety."""
    c_delta = c_delta_constant(geo, cfg, d)
    lnln = math.log(math.log(cfg.T))
    return c_delta * c_delta * max(
        4.0 * lnln * lnln * geo.l_a * geo.l_a / (geo.eps0 * geo.eps0),
        1.0 / ((geo.gamma0 + 1.0) ** 2),
    )


def nt_schedule(cn: float, t: int) -> int:
    """Prescribed per-iteration measurement count ceil(4 cn (t+2) ln(t+2)^2)."""
    if t < 0:
        raise ValueError("iteration index must be >= 0")
    if cn < 0.0:
        raise ValueError("cn must be non-negative")
    log_term = math.log(t + 2)
    return math.ceil(4.0 * cn * (t + 2) * log_term * log_term)


def prescribed_count(cn: float, t: int, d: int) -> int:
    """The prescribed variant's count at iteration t: n_t, but one cross (2d) at least."""
    return max(nt_schedule(cn, t), 2 * d)
