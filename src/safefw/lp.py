"""Dense linear programming over inequality systems A x <= b with free variables.

Two-phase primal simplex on the split-variable standard form (x = u - v plus
slacks), Bland's rule for anti-cycling, and a post-solve push to a vertex of
the optimal face. A solve may be warm-started from a guessed basis (d rows,
typically the active set of a previous solve of a nearby LP): the basis vertex
is accepted only when it is verified to be the unique optimum, so a warm
solve returns the vertex the simplex would, and any other basis falls back to
the simplex. `feasible_bases` sweeps every d-subset of the rows, for the
exact vertex sweeps of small polytopes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-10
PIVOT_TOL = 1e-11
ACTIVE_TOL = 1e-8  # a row is active when its residual is within this share of its scale
MAX_PIVOTS = 20000


class PivotLimitError(RuntimeError):
    """Simplex exceeded its pivot budget without reaching a verdict."""


class EnumerationCapError(ValueError):
    """Vertex enumeration would exceed the combinatorial cap."""


@dataclass
class LpProblem:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, d = self.A.shape
        if self.c.shape != (d,) or self.b.shape != (m,):
            raise ValueError(
                f"inconsistent LP dimensions: A is {m}x{d}, "
                f"c has shape {self.c.shape}, b has shape {self.b.shape}"
            )


@dataclass
class LpSolution:
    point: np.ndarray | None
    status: str  # optimal | infeasible | unbounded
    active_set: list[int] = field(default_factory=list)


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    coeffs = T[:, col].copy()
    coeffs[row] = 0.0
    T -= np.outer(coeffs, T[row])
    basis[row] = col


def _simplex(T: np.ndarray, basis: list[int], allowed: list[int]) -> str:
    """Minimize the bottom-row objective. Bland's rule on entering and leaving."""
    m = T.shape[0] - 1
    for _ in range(MAX_PIVOTS):
        enter = -1
        for j in allowed:
            if T[-1, j] < -COST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = math.inf
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - 1e-12:
                    best, leave = ratio, i
                elif abs(ratio - best) <= 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)
    raise PivotLimitError(f"simplex made no verdict within {MAX_PIVOTS} pivots")


def _null_direction(rows: np.ndarray, d: int) -> np.ndarray | None:
    """A unit vector in the nullspace of the stacked rows, None if empty."""
    if rows.size == 0:
        w = np.zeros(d)
        w[0] = 1.0
        return w
    u, s, vt = np.linalg.svd(rows)
    if s.size < d or s[-1] <= 1e-10 * max(1.0, s[0]):
        return vt[-1]
    return None


def _push_to_vertex(p: LpProblem, x: np.ndarray) -> np.ndarray:
    """Slide along the optimal face (constant objective) until d active rows.

    Requires the face to be bounded in the chosen directions; otherwise the
    incoming point is returned unchanged.
    """
    m, d = p.A.shape
    for _ in range(m + d + 2):
        resid, scale = _slack(p.A, p.b, x)
        active = resid <= ACTIVE_TOL * scale
        rows = p.A[active]
        if rows.shape[0] >= d and np.linalg.matrix_rank(rows, tol=1e-10) >= d:
            break
        w = _null_direction(np.vstack([rows, p.c[None, :]]), d)
        if w is None:
            break
        step = math.inf
        direction = None
        for cand in (w, -w):
            aw = p.A @ cand
            movable = (~active) & (aw > 1e-12)
            if np.any(movable):
                t = np.min(resid[movable] / aw[movable])
                if t < step:
                    step, direction = t, cand
        if direction is None or not math.isfinite(step):
            break
        x = x + step * direction
    return x


def _slack(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals b - A x and their scales 1 + |b| + |A| |x|, for one LP or a
    stack (K, rows, d) of them."""
    resid = b - np.matmul(A, x[..., None])[..., 0]
    return resid, 1.0 + np.abs(b) + np.matmul(np.abs(A), np.abs(x)[..., None])[..., 0]


def _active_rows(p: LpProblem, x: np.ndarray) -> list[int]:
    resid, scale = _slack(p.A, p.b, x)
    return [int(i) for i in np.flatnonzero(resid <= ACTIVE_TOL * scale)]


def verified_vertices(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int], band: float = 0.0):
    """For a stack of LPs min <c, x> over A[k] x <= b[k], the vertex of `basis`
    in each (K, d) and whether it is provably the unique optimum (K,): the
    basis has d rows, its system is nonsingular and well conditioned, every
    multiplier is positive, and exactly the basis rows are active at a
    feasible vertex. A positive `band` tightens each test by that share of
    the size of the terms compared.
    """
    K, rows, d = A.shape
    unverified = np.full((K, d), math.nan), np.zeros(K, dtype=bool)
    if len(basis) != d:
        return unverified
    B = A[:, basis]
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return unverified
    abs_inv = np.abs(B_inv)
    # infinity-norm condition number: leave ill-conditioned bases to the simplex
    cond = np.abs(B).sum(axis=2).max(axis=1) * abs_inv.sum(axis=2).max(axis=1)
    multipliers = -(np.swapaxes(B_inv, 1, 2) @ c)
    multiplier_scale = abs_inv.sum(axis=1).max(axis=1) * np.abs(c).max()  # bounds |B^-T| |c|
    x = np.matmul(B_inv, b[:, basis, None])[..., 0]
    resid, scale = _slack(A, b, x)
    active = resid <= (ACTIVE_TOL - band) * scale
    inactive = resid > (ACTIVE_TOL + band) * scale  # a row between the two is neither
    ok = (
        (cond * (1.0 + band) <= 1e8)
        & np.all(multipliers > COST_TOL + band * multiplier_scale[:, None], axis=1)
        & np.all(active[:, basis], axis=1)
        & (np.count_nonzero(inactive, axis=1) == rows - d)
    )
    return x, ok


def solve(p: LpProblem, basis: list[int] | None = None) -> LpSolution:
    """Minimize <c, x> over {x : A x <= b}.

    Returns a vertex of the optimal face when the feasible set is bounded
    around the optimum. Status reports infeasibility and unboundedness. A
    given basis is tried first and used only if its vertex is verified to be
    the unique optimum; otherwise the simplex solves from scratch.
    """
    if basis is not None:
        x, ok = verified_vertices(p.A[None], p.b[None], p.c, basis)
        if ok[0]:
            return LpSolution(x[0], "optimal", sorted(basis))
    m, d = p.A.shape
    A = p.A.copy()
    b = p.b.copy()
    flip = b < -0.0
    A[flip] *= -1.0
    b[flip] *= -1.0
    slack_sign = np.where(flip, -1.0, 1.0)
    art_rows = np.flatnonzero(flip)
    n_struct = 2 * d
    n_art = art_rows.size
    ncols = n_struct + m + n_art

    T = np.zeros((m + 1, ncols + 1))
    T[:m, :d] = A
    T[:m, d:n_struct] = -A
    for i in range(m):
        T[i, n_struct + i] = slack_sign[i]
    for k, i in enumerate(art_rows):
        T[i, n_struct + m + k] = 1.0
    T[:m, -1] = b

    basic = [0] * m
    art_iter = iter(range(n_art))
    for i in range(m):
        basic[i] = n_struct + m + next(art_iter) if flip[i] else n_struct + i

    if n_art:
        T[-1, :] = 0.0
        T[-1, n_struct + m:ncols] = 1.0
        for i, bc in enumerate(basic):
            if bc >= n_struct + m:
                T[-1] -= T[i]
        _simplex(T, basic, list(range(ncols)))
        if -T[-1, -1] > 1e-7 * (1.0 + float(np.abs(b).sum())):
            return LpSolution(None, "infeasible")
        # drive surviving artificials out of the basis where possible
        for i in range(m):
            if basic[i] >= n_struct + m:
                piv = next(
                    (j for j in range(n_struct + m) if abs(T[i, j]) > 1e-9), None
                )
                if piv is not None:
                    _pivot(T, basic, i, piv)

    T[-1, :] = 0.0
    T[-1, :d] = p.c
    T[-1, d:n_struct] = -p.c
    for i, bc in enumerate(basic):
        if T[-1, bc] != 0.0:
            T[-1] -= T[-1, bc] * T[i]
    status = _simplex(T, basic, list(range(n_struct + m)))
    if status == "unbounded":
        return LpSolution(None, "unbounded")

    vals = np.zeros(ncols)
    for i, bc in enumerate(basic):
        vals[bc] = T[i, -1]
    x = vals[:d] - vals[d:n_struct]
    x = _push_to_vertex(p, x)
    return LpSolution(x, "optimal", _active_rows(p, x))


def feasible_bases(A: np.ndarray, b: np.ndarray):
    """Sweep every d-subset of the rows of A x <= b.

    Yields (point, sigma_min) for each nonsingular subset whose intersection
    point is feasible; a degenerate vertex appears once per basis.
    """
    m, d = A.shape
    for subset in itertools.combinations(range(m), d):
        sub = A[list(subset)]
        svals = np.linalg.svd(sub, compute_uv=False)
        if svals[-1] <= 1e-10 * max(1.0, svals[0]):
            continue
        v = np.linalg.solve(sub, b[list(subset)])
        if np.all(A @ v - b <= FEAS_TOL):
            yield v, float(svals[-1])
