"""Incremental least-squares estimation of the constraint parameters.

Each probe point x with measurement row y (one value per constraint)
contributes an extended regressor v = [x, -1], so the i-th column of the
estimate stacks [a_i; b_i]. The normal-equation inverse P = (VtV)^-1 is the
only inverse kept. Once the design spans R^(d+1), one eigen-form step does
every update: an absorb of a stack of points (a whole cross, or one point)
measured k times each, and a forecast of K more crosses, the step at
k = 1..K. It adds positive terms only, so no accuracy is lost as counts
grow, and a block absorb lands on the forecast's state bit for bit.

Until the design spans, rows are taken one at a time and estimates fall back
to a pseudo-inverse solve: P is formed by a dense inverse at the row where
the design first spans, and the later rows of that call by rank-one updates,
so a fresh estimator's first cross yields the same P, bit for bit, as
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

    Absorbing n probe points costs O(d^3 + n d^2 + (n + d) d m) once the
    design spans R^(d+1): one Cholesky factor and one eigendecomposition of
    (d+1) x (d+1) matrices. Repeated measurements at one point are absorbed
    in aggregate: summing the measurement rows leaves the normal equations
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
        self.G = np.zeros((k, m))  # V^T Y, summed only until the design spans
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
        if self.P is not None:
            self._add_counts(X, count)
            beta, F, shrink = self._step(V, np.array([count], dtype=float), Y[None])
            self.beta_hat, self.P = beta[0], (F * shrink[0]) @ F.T
            return
        # Row by row, so the first cross gives the same P bit for bit as
        # per-point absorbs: the RO baseline rests on that one cross, and
        # its cutting planes turn a one-ulp change of P into another answer.
        for i in range(X.shape[0]):
            self._add_counts(X[i : i + 1], count)
            self.G += V[i : i + 1].T @ Y[i : i + 1]
            if self.P is not None:
                pv = self.P @ V[i]
                self.P -= (count / (1.0 + count * float(V[i] @ pv))) * np.outer(pv, pv)
            elif np.linalg.matrix_rank(self.xtx()) == self.d + 1:
                P = np.linalg.inv(self.xtx())
                self.P = 0.5 * (P + P.T)  # the rank-one updates keep it exactly symmetric
        if self.P is None:
            self.beta_hat = np.linalg.lstsq(self.xtx(), self.G, rcond=None)[0]
        else:
            self.beta_hat = self.P @ self.G

    def forecast(self, points: np.ndarray, values: np.ndarray) -> Forecast:
        """The estimates after each of K crosses of single measurements `values`
        (K, n, m) at the points (n, d), not absorbed: the absorb step at
        k = 1..K with the running sums of `values`."""
        if self.P is None:
            raise ScatterSingularError("centered probe scatter is singular")
        X = np.asarray(points, dtype=float)
        V = np.hstack([X, -np.ones((X.shape[0], 1))])
        k = np.arange(1, values.shape[0] + 1, dtype=float)
        return Forecast(*self._step(V, k, np.cumsum(values, axis=0)))

    def _step(self, V: np.ndarray, k: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The posterior after measuring the rows of V k times each, for each
        count in k (K,) with measurement sums (K, n, m): beta (K, d+1, m), and F
        and shrink (K, d+1) with P_k = F diag(shrink[i]) F^T for k = k[i]. With
        P = L L^T and L^T V^T V L = Z diag(mu) Z^T, F = L Z and shrink =
        1 / (1 + k mu), and beta_k = beta_hat + P_k V^T (sums_k - k V beta_hat)."""
        L = np.linalg.cholesky(self.P)
        mu, Z = np.linalg.eigh(L.T @ (V.T @ V) @ L)
        F = L @ Z
        shrink = 1.0 / (1.0 + k[:, None] * np.maximum(mu, 0.0))  # mu >= 0 but for rounding
        W = (V @ F).T
        innovations = np.matmul(W, sums) - k[:, None, None] * (W @ (V @ self.beta_hat))
        return self.beta_hat + np.matmul(F, shrink[:, :, None] * innovations), F, shrink

    def _add_counts(self, X: np.ndarray, count: int) -> None:
        self.N += count * X.shape[0]
        self.sum_x += count * X.sum(axis=0)
        self.sum_outer += count * (X.T @ X)

    def block_quantities(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample mean xbar and R = (sum (x_j - xbar)(x_j - xbar)^T)^-1, P's leading
        d x d block (Schur complement; once P exists, an absorb replaces it rather
        than writing into it). P exists exactly when the centered scatter is
        nonsingular."""
        if self.P is None:
            raise ScatterSingularError("centered probe scatter is singular")
        return self.sum_x / self.N, self.P[: self.d, : self.d]


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
