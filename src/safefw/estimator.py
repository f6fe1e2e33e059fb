"""Incremental least-squares estimation of the constraint parameters.

Each probe point x with measurement row y (one value per constraint)
contributes an extended regressor v = [x, -1], so the i-th column of the
estimate stacks [a_i; b_i]. The normal-equation inverse P = (VtV)^-1 is the
only inverse kept.

Once the design spans R^(d+1), each probe stack (a whole cross, or one
point) is factored once, where it is first absorbed: with that state's
P0 = L L^T and beta0, L^T V^T V L = Z diag(mu) Z^T, F = L Z and W = (V F)^T,
the state after k more measurements of each row of V, whose values sum to
SY, is

    P_k = F diag(1 / (1 + k mu)) F^T,
    beta_k = beta0 + F diag(1 / (1 + k mu)) (W SY - k W V beta0).

Every later absorb at the same points (equal bit for bit) and a forecast of
K more crosses (k = 1..K) advance only k and W SY. The form adds positive
terms only, so no accuracy is lost as counts grow; a block absorb of the
first k forecast crosses' summed values lands on the forecast's state at k
bit for bit; and every P adopted must have a positive smallest eigenvalue,
else the design is beyond double precision and ScatterSingularError is
raised. `absorb_repeated` is the one update: a forecast changes no estimate.

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

from .problem import FEAS_TOL
from .special import chi_squared_upper_quantile

# Values per cross from which the forecast's running sums are added one cross
# at a time: numpy's cumsum along the leading axis is faster below it.
LOOP_SUM_MIN = 256


class ScatterSingularError(RuntimeError):
    """Centered probe scatter is singular (all points collinear), or so
    ill-conditioned that P is no longer positive definite in floating point."""


def phi_inverse(d: int, delta_bar: float) -> float:
    """Confidence-ellipsoid radius for the parameter estimate of one constraint:
    the sqrt of the chi-squared quantile with d+1 degrees of freedom whose
    upper tail is delta_bar (Gaussian noise, deterministic design)."""
    if not 0.0 < delta_bar < 1.0:
        raise ValueError("delta_bar must lie strictly between 0 and 1")
    return math.sqrt(chi_squared_upper_quantile(delta_bar, d + 1))


@dataclass
class Forecast:
    """Estimates after k = 1..K more crosses: beta[k-1], and P_k = F diag(shrink[k-1]) F^T,
    reached by absorbing sums[k-1], the first k crosses' values summed."""

    beta: np.ndarray    # (K, d+1, m)
    F: np.ndarray       # (d+1, d+1)
    shrink: np.ndarray  # (K, d+1), 1 / (1 + k mu)
    sums: np.ndarray    # (K, n, m), the running sums of the crosses' values

    def quadratic(self, Z: np.ndarray) -> np.ndarray:
        """z_k^T P_k z_k for each row z_k of the (K, d+1) stack Z."""
        return ((Z @ self.F) ** 2 * self.shrink).sum(axis=1)


SINGULAR_DESIGN = (
    "probe design became numerically singular: the probe points' magnitude |x| is too large "
    "relative to the probe radius omega0 for double precision"
)


class _Anchor:
    """One factorization of a probe stack X (n, d), made at the state (P0, beta0)
    where the stack was first absorbed: P0 = L L^T, L^T V^T V L = Z diag(mu) Z^T,
    F = L Z, W = (V F)^T and W V beta0. k counts the measurements of each row
    absorbed since, and wsum is W times their sums."""

    __slots__ = ("shape", "key", "sum_x", "outer", "beta0", "F", "mu", "W", "wvb", "k", "wsum")

    def __init__(self, X: np.ndarray, P0: np.ndarray, beta0: np.ndarray):
        try:
            L = np.linalg.cholesky(P0)
        except np.linalg.LinAlgError as exc:
            raise ScatterSingularError(SINGULAR_DESIGN) from exc
        V = np.hstack([X, -np.ones((X.shape[0], 1))])
        mu, Z = np.linalg.eigh(L.T @ (V.T @ V) @ L)
        self.shape, self.key = X.shape, X.tobytes()  # equal points, bit for bit, reuse the anchor
        self.sum_x, self.outer = X.sum(axis=0), X.T @ X
        self.beta0, self.F, self.mu = beta0, L @ Z, np.maximum(mu, 0.0)  # mu >= 0 but for rounding
        self.W = (V @ self.F).T
        self.wvb = self.W @ (V @ beta0)
        self.k, self.wsum = 0, np.zeros_like(self.wvb)

    def holds(self, X: np.ndarray) -> bool:
        return X.shape == self.shape and X.tobytes() == self.key

    def closed_form(self, k: np.ndarray, wsums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """beta (K, d+1, m) and shrink (K, d+1) after k[i] measurements of each
        row since the anchor, whose values sum to SY with W SY = wsums[i]."""
        shrink = 1.0 / (1.0 + k[:, None] * self.mu)
        innovations = k[:, None, None] * self.wvb
        np.subtract(wsums, innovations, out=innovations)
        innovations *= shrink[:, :, None]
        beta = np.matmul(self.F, innovations)
        beta += self.beta0
        return beta, shrink


class ConstraintEstimator:
    """Running least squares for m affine constraints in d variables.

    Once the design spans R^(d+1), the first absorb of a probe stack of n
    points costs O(d^3 + n d^2 + (n + d) d m): one Cholesky factor and one
    eigendecomposition of (d+1) x (d+1) matrices. A later absorb at the same
    points costs O(d^3 + n d m), its d^3 the product that forms P and the
    eigenvalue test of P. Repeated measurements at one point are absorbed in
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
        self.G = np.zeros((k, m))  # V^T Y, summed only until the design spans
        self.P: np.ndarray | None = None
        self.beta_hat: np.ndarray | None = None
        self._anchor: _Anchor | None = None

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
        if self.P is not None:
            a = self._anchor_on(X)
            wsum = a.wsum + np.matmul(a.W, Y[None])  # stacked as in `forecast`, so a block absorb matches it bit for bit
            beta, shrink = a.closed_form(np.array([a.k + count], dtype=float), wsum)
            P = (a.F * shrink[0]) @ a.F.T
            if np.linalg.eigvalsh(P)[0] <= 0.0:
                raise ScatterSingularError(SINGULAR_DESIGN)
            self._add_counts(a.sum_x, a.outer, a.shape[0], count)
            self.beta_hat, self.P = beta[0], P
            a.k, a.wsum = a.k + count, wsum[0]
            return
        # Row by row, so the first cross gives the same P bit for bit as
        # per-point absorbs: the RO baseline rests on that one cross, and
        # its cutting planes turn a one-ulp change of P into another answer.
        V = np.hstack([X, -np.ones((X.shape[0], 1))])
        for i in range(X.shape[0]):
            self._add_counts(X[i], X[i : i + 1].T @ X[i : i + 1], 1, count)
            self.G += V[i : i + 1].T @ Y[i : i + 1]
            if self.P is not None:
                pv = self.P @ V[i]
                self.P -= (count / (1.0 + count * float(V[i] @ pv))) * np.outer(pv, pv)
            elif self._spans():
                P = np.linalg.inv(self.xtx())
                self.P = 0.5 * (P + P.T)  # the rank-one updates keep it exactly symmetric
        if self.P is None:
            self.beta_hat = np.linalg.lstsq(self.xtx(), self.G, rcond=None)[0]
        else:
            self.beta_hat = self.P @ self.G

    def forecast(self, points: np.ndarray, values: np.ndarray) -> Forecast:
        """The estimates after each of K crosses of single measurements `values`
        (K, n, m) at the points (n, d), not absorbed: the closed form at k = 1..K
        more crosses with the running sums of `values`, which it keeps."""
        if self.P is None:
            raise ScatterSingularError("centered probe scatter is singular")
        a = self._anchor_on(np.asarray(points, dtype=float))
        k = a.k + np.arange(1, values.shape[0] + 1, dtype=float)
        sums = _running_sums(values)
        wsums = np.matmul(a.W, sums)
        wsums += a.wsum
        beta, shrink = a.closed_form(k, wsums)
        return Forecast(beta, a.F, shrink, sums)

    def _anchor_on(self, X: np.ndarray) -> _Anchor:
        """The anchor at the stack X (n, d): the current one if it holds these
        points, else a new one factored at the current state."""
        if self._anchor is None or not self._anchor.holds(X):
            self._anchor = _Anchor(X, self.P, self.beta_hat)
        return self._anchor

    def _add_counts(self, sum_x: np.ndarray, outer: np.ndarray, n: int, count: int) -> None:
        """Add `count` measurements at each of n points with coordinate sums
        sum_x and outer-product sum `outer`."""
        self.N += count * n
        self.sum_x += count * sum_x
        self.sum_outer += count * outer

    def _spans(self) -> bool:
        """The rank test that forms P: the design spans R^(d+1)."""
        return np.linalg.matrix_rank(self.xtx()) == self.d + 1

    def block_quantities(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample mean xbar and R = (sum (x_j - xbar)(x_j - xbar)^T)^-1, P's leading
        d x d block (Schur complement; once P exists, an absorb replaces it rather
        than writing into it). P exists exactly when the centered scatter is
        nonsingular."""
        if self.P is None:
            raise ScatterSingularError("centered probe scatter is singular")
        return self.sum_x / self.N, self.P[: self.d, : self.d]


def _running_sums(values: np.ndarray) -> np.ndarray:
    """np.cumsum(values, axis=0) bit for bit: the same additions in the same
    order, one cross at a time once a cross (values[k]) holds LOOP_SUM_MIN
    values, where the strided cumsum is the slower."""
    if math.prod(values.shape[1:]) < LOOP_SUM_MIN:
        return np.cumsum(values, axis=0)
    sums = np.array(values, dtype=float)
    for k in range(1, sums.shape[0]):
        sums[k] += sums[k - 1]
    return sums


def spans(points: np.ndarray) -> bool:
    """Whether one probe row at each of the points (n, d) spans R^(d+1) under
    the rank test with which an estimator forms P."""
    est = ConstraintEstimator(points.shape[1], 1)
    est._add_counts(points.sum(axis=0), points.T @ points, points.shape[0], 1)
    return est._spans()


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
        return np.max(np.abs(diff), axis=0) <= FEAS_TOL * scale
    mahal = np.einsum("ki,kl,li->i", diff, xtx, diff) / (sigma * sigma)
    return mahal <= phi * phi * (1.0 + FEAS_TOL)
