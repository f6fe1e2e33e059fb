"""Incremental least-squares estimation of the constraint parameters.

Each probe point x with measurement row y (one value per constraint)
contributes an extended regressor v = [x, -1], so the i-th column of the
estimate stacks [a_i; b_i]. The normal-equation inverse P = (VtV)^-1 is the
only inverse kept. Absorbing a stack of n points (rows of V) measured `count`
times each, a whole cross at once, applies one Woodbury update
P -= P Vt (I/count + V P Vt)^-1 V P, evaluated through a Cholesky factor of
the capacitance matrix; a single point is the case n = 1.

Until the design spans R^(d+1), rows are taken one at a time and estimates
fall back to a pseudo-inverse solve: P is formed by a dense inverse at the row
where the design first spans, and the later rows of that call by rank-one
updates, so a fresh estimator's first cross yields the same P, bit for bit, as
absorbing its points one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import chi_squared_upper_quantile


class ScatterSingularError(RuntimeError):
    """Centered probe scatter is singular (all points collinear)."""


def phi_inverse(d: int, delta_bar: float) -> float:
    """Confidence-ellipsoid radius for the parameter estimate of one constraint:
    the sqrt of the chi-squared quantile with d+1 degrees of freedom whose
    upper tail is delta_bar (Gaussian noise, deterministic design)."""
    if not 0.0 < delta_bar < 1.0:
        raise ValueError("delta_bar must lie strictly between 0 and 1")
    return math.sqrt(chi_squared_upper_quantile(delta_bar, d + 1))


@dataclass
class Forecast:
    """Estimates after k = 1..K more crosses: beta[k-1], and P_k = F diag(shrink[k-1]) F^T."""

    beta: np.ndarray    # (K, d+1, m)
    F: np.ndarray       # (d+1, d+1)
    shrink: np.ndarray  # (K, d+1), 1 / (1 + k mu)

    def quadratic(self, Z: np.ndarray) -> np.ndarray:
        """z_k^T P_k z_k for each row z_k of the (K, d+1) stack Z."""
        return ((Z @ self.F) ** 2 * self.shrink).sum(axis=1)


class ConstraintEstimator:
    """Running least squares for m affine constraints in d variables.

    Absorbing n probe points costs O(n d^2 + n^2 d + n^3 + n d m) once the
    design spans R^(d+1). Repeated measurements at one point are absorbed in
    aggregate: summing the measurement rows leaves the normal equations
    unchanged.
    """

    def __init__(self, d: int, m: int):
        if d < 1 or m < 1:
            raise ValueError("need d >= 1 and m >= 1")
        self.d = d
        self.m = m
        k = d + 1
        self.N = 0
        self.sum_x = np.zeros(d)
        self.sum_outer = np.zeros((d, d))
        self.G = np.zeros((k, m))
        self.P: np.ndarray | None = None
        self.beta_hat: np.ndarray | None = None

    def xtx(self) -> np.ndarray:
        """Extended normal matrix VtV assembled from the running sums."""
        k = self.d + 1
        out = np.empty((k, k))
        out[: self.d, : self.d] = self.sum_outer
        out[: self.d, self.d] = -self.sum_x
        out[self.d, : self.d] = -self.sum_x
        out[self.d, self.d] = self.N
        return out

    def a_hat(self) -> np.ndarray:
        """Estimated constraint normals, one per column."""
        return self.beta_hat[: self.d, :]

    def b_hat(self) -> np.ndarray:
        return self.beta_hat[self.d, :]

    def absorb_repeated(self, point: np.ndarray, value_sum: np.ndarray, count: int) -> None:
        """Absorb `count` identical probe rows at each point, whose measurements
        sum to value_sum: one point (d,) with sums (m,), or a stack (n, d) with
        sums (n, m)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        X = np.asarray(point, dtype=float)
        Y = np.asarray(value_sum, dtype=float)
        if X.shape[-1:] != (self.d,) or X.ndim > 2:
            raise ValueError(f"point must have length {self.d} or be a stack of such rows")
        if Y.shape != X.shape[:-1] + (self.m,):
            raise ValueError(f"value sum must have length {self.m} per point")
        X, Y = np.atleast_2d(X), np.atleast_2d(Y)
        V = np.hstack([X, -np.ones((X.shape[0], 1))])
        if self.P is None:
            # Row by row, so the first cross gives the same P bit for bit as
            # per-point absorbs: the RO baseline rests on that one cross, and
            # its cutting planes turn a one-ulp change of P into another answer.
            for i in range(X.shape[0]):
                self._add_sums(X[i : i + 1], V[i : i + 1], Y[i : i + 1], count)
                if self.P is not None:
                    pv = self.P @ V[i]
                    self.P -= (count / (1.0 + count * float(V[i] @ pv))) * np.outer(pv, pv)
                elif np.linalg.matrix_rank(self.xtx()) == self.d + 1:
                    self.P = np.linalg.inv(self.xtx())
                else:
                    continue
                self.P = 0.5 * (self.P + self.P.T)
            if self.P is None:
                self.beta_hat = np.linalg.lstsq(self.xtx(), self.G, rcond=None)[0]
                return
        else:
            self._add_sums(X, V, Y, count)
            # Woodbury with W = sqrt(count) V: P -= P W^T (I + W P W^T)^-1 W P,
            # the capacitance matrix factored as L L^T and the correction
            # formed as U^T U with U = L^-1 W P
            W = math.sqrt(count) * V
            WP = W @ self.P
            L = np.linalg.cholesky(np.eye(W.shape[0]) + WP @ W.T)
            U = np.linalg.solve(L, WP)
            self.P -= U.T @ U
            self.P = 0.5 * (self.P + self.P.T)
        self.beta_hat = self.P @ self.G

    def forecast(self, points: np.ndarray, values: np.ndarray) -> Forecast | None:
        """The estimates after each of K crosses of single measurements `values`
        (K, n, m) at the points (n, d), not absorbed; None without a positive
        definite P. With P = L L^T and L^T V^T V L = Z diag(mu) Z^T, P_k is
        F diag(1/(1 + k mu)) F^T for F = L Z, and beta_k = beta_hat +
        P_k V^T sum_{j<=k} (Y_j - V beta_hat): sums of positive terms and of
        innovations, so no accuracy is lost as k grows."""
        if self.P is None:
            return None
        X = np.asarray(points, dtype=float)
        V = np.hstack([X, -np.ones((X.shape[0], 1))])
        try:
            L = np.linalg.cholesky(self.P)
        except np.linalg.LinAlgError:
            return None
        mu, Z = np.linalg.eigh(L.T @ (V.T @ V) @ L)
        F = L @ Z
        k = np.arange(1, values.shape[0] + 1, dtype=float)[:, None]
        shrink = 1.0 / (1.0 + k * np.maximum(mu, 0.0))  # mu >= 0 but for rounding
        innovations = np.cumsum(np.matmul((V @ F).T, values - V @ self.beta_hat), axis=0)
        beta = self.beta_hat + np.matmul(F, shrink[:, :, None] * innovations)
        return Forecast(beta, F, shrink)

    def _add_sums(self, X: np.ndarray, V: np.ndarray, Y: np.ndarray, count: int) -> None:
        self.N += count * X.shape[0]
        self.sum_x += count * X.sum(axis=0)
        self.sum_outer += count * (X.T @ X)
        self.G += V.T @ Y

    def block_quantities(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample mean xbar and R = (sum (x_j - xbar)(x_j - xbar)^T)^-1, a copy of P's
        leading d x d block (Schur complement; absorbs update P in place). P exists
        exactly when the centered scatter is nonsingular."""
        if self.P is None:
            raise ScatterSingularError("centered probe scatter is singular")
        return self.sum_x / self.N, self.P[: self.d, : self.d].copy()


def confidence_membership_arrays(
    beta_hat: np.ndarray,
    xtx: np.ndarray,
    sigma: float,
    phi: float,
    beta_true: np.ndarray,
) -> np.ndarray:
    """Per-constraint flags: true parameters inside the confidence ellipsoid.

    Diagnostic only; uses ground truth. With sigma = 0 the ellipsoid degenerates
    and membership means exact recovery.
    """
    beta_true = np.asarray(beta_true, dtype=float)
    diff = np.asarray(beta_hat, dtype=float) - beta_true
    if sigma == 0.0:
        scale = 1.0 + np.abs(beta_true).max(axis=0)
        return np.max(np.abs(diff), axis=0) <= 1e-9 * scale
    mahal = np.einsum("ki,kl,li->i", diff, xtx, diff) / (sigma * sigma)
    return mahal <= phi * phi + 1e-12
