"""Ground-truth problem description: the polytope, the smooth objective, and
the geometric constants the measurement schedule and convergence bounds consume."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lp

SUBSET_CAP = 10**6  # most constraint subsets an exact enumeration may sweep


class EnumerationCapError(ValueError):
    """Vertex enumeration would exceed the combinatorial cap."""


@dataclass
class Polytope:
    """Linear inequality system A x <= b, assumed compact with interior for use."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, d = self.A.shape
        if self.b.shape != (m,):
            raise ValueError(f"A is {m}x{d} but b has shape {self.b.shape}")
        if not np.all(self.A.any(axis=1)):
            raise ValueError("constraint matrix contains an all-zero row")
        with np.errstate(over="ignore", under="ignore"):
            squares = np.einsum("ij,ij->i", self.A, self.A)
        # KKT systems (A_s A_s^T) and row norms square the rows: each square must be a normal float
        # (rows with a non-finite entry are left to the caller's finiteness check)
        normal = (np.finfo(float).tiny <= squares) & (squares <= np.finfo(float).max)
        bad = np.flatnonzero(np.isfinite(self.A).all(axis=1) & ~normal)
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"row {i} of A has norm {math.hypot(*self.A[i].tolist()):.6g}, whose square "
                             f"{'overflows' if squares[i] > 1.0 else 'underflows'}")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def margins(self, x: np.ndarray) -> np.ndarray:
        return self.b - self.A @ np.asarray(x, dtype=float)

    def max_violation(self, x: np.ndarray) -> float:
        return float(np.max(self.A @ np.asarray(x, dtype=float) - self.b))

    def contains(self, x: np.ndarray) -> bool:
        return self.max_violation(x) <= lp.FEAS_TOL


@dataclass
class Objective:
    """The smooth convex objective f(x) = 0.5 ||x - x'||^2, gradient x - x'.

    M bounds the gradient norm over the feasible set (Lipschitz constant of
    the values).
    """

    x_prime: np.ndarray
    M: float

    def __post_init__(self):
        self.x_prime = np.asarray(self.x_prime, dtype=float)
        self.M = float(self.M)

    def value(self, x: np.ndarray) -> float:
        diff = np.asarray(x, dtype=float) - self.x_prime
        return 0.5 * float(diff @ diff)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.x_prime


@dataclass
class GeometryConstants:
    gamma: float      # diameter of the feasible set
    gamma0: float     # max norm over the feasible set
    eps0: float       # initial margin min_i (b_i - <a_i, x0>)
    l_a: float        # max row norm of A
    rho_min: float    # min over vertices of the active submatrix's smallest singular value


def box_polytope(d: int, half_width: float = 1.0) -> Polytope:
    """The box -half_width <= x_i <= half_width, rows interleaved (+e_i, -e_i)."""
    if d < 1 or half_width <= 0:
        raise ValueError("box needs d >= 1 and a positive half width")
    A = np.zeros((2 * d, d))
    for i in range(d):
        A[2 * i, i] = 1.0
        A[2 * i + 1, i] = -1.0
    return Polytope(A, np.full(2 * d, float(half_width)))


def box_quadratic_lipschitz(d: int, half_width: float, x_prime: np.ndarray) -> float:
    """Max gradient norm of the quadratic over the box: distance to the far corner."""
    target = np.asarray(x_prime, dtype=float)
    far = np.maximum(np.abs(-half_width - target), np.abs(half_width - target))
    return float(np.linalg.norm(far))


def validate(p: Polytope) -> str:
    """"bounded", "unbounded" or "infeasible", from the 2d support LPs min/max x_i."""
    for i in range(p.d):
        for sign in (1.0, -1.0):
            c = np.zeros(p.d)
            c[i] = sign
            status = lp.solve(lp.LpProblem(c, p.A, p.b)).status
            if status != "optimal":
                return status
    return "bounded"


def _independent_subsets(p: Polytope, sizes: range):
    """One sweep of the row subsets of the given sizes: (A_S, b_S, sigma_min(A_S))
    for each subset whose rows are independent, sigma_min > 1e-10 max(1, sigma_max)."""
    total = sum(math.comb(p.m, k) for k in sizes)
    if total > SUBSET_CAP:
        raise EnumerationCapError(f"{total} constraint subsets exceed the cap {SUBSET_CAP}; "
                                  "supply analytic geometry for this instance")
    for k in sizes:
        for rows in map(list, itertools.combinations(range(p.m), k)):
            A_s = p.A[rows]
            svals = np.linalg.svd(A_s, compute_uv=False)
            if svals[-1] > 1e-10 * max(1.0, svals[0]):
                yield A_s, p.b[rows], float(svals[-1])


def vertex_sweep(p: Polytope) -> tuple[np.ndarray, float]:
    """The vertices of p, one row per distinct vertex (a basis whose point lies
    within lp.FEAS_TOL of a kept vertex adds none), and rho_min, the smallest
    singular value over every feasible basis."""
    V, rho_min = np.empty((0, p.d)), math.inf
    for A_s, b_s, s_min in _independent_subsets(p, range(p.d, p.d + 1)):
        v = np.linalg.solve(A_s, b_s)
        if np.all(p.A @ v - p.b <= lp.FEAS_TOL):
            rho_min = min(rho_min, s_min)
            if np.all(np.linalg.norm(V - v, axis=1) > lp.FEAS_TOL):
                V = np.vstack([V, v])
    if not len(V):
        raise ValueError("no vertices found; polytope is unbounded or empty")
    return V, rho_min


def geometry_constants(p: Polytope, x0: np.ndarray, sweep: tuple[np.ndarray, float]) -> GeometryConstants:
    """Exact geometric constants from the vertex sweep of p (small instances)."""
    x0 = np.asarray(x0, dtype=float)
    eps0 = float(np.min(p.margins(x0)))
    if eps0 <= 0.0:
        raise ValueError("x0 must be strictly feasible")
    V, rho_min = sweep
    gamma0 = float(np.max(np.linalg.norm(V, axis=1)))
    diffs = V[:, None, :] - V[None, :, :]
    gamma = float(np.max(np.linalg.norm(diffs, axis=2)))
    return GeometryConstants(
        gamma=gamma,
        gamma0=gamma0,
        eps0=eps0,
        l_a=float(np.max(np.linalg.norm(p.A, axis=1))),
        rho_min=rho_min,
    )


def box_geometry_constants(d: int, half_width: float, x0: np.ndarray) -> GeometryConstants:
    """Closed-form constants for the box, valid for any dimension."""
    p = box_polytope(d, half_width)
    eps0 = float(np.min(p.margins(np.asarray(x0, dtype=float))))
    if eps0 <= 0.0:
        raise ValueError("x0 must be strictly feasible")
    gamma0 = half_width * math.sqrt(d)
    return GeometryConstants(
        gamma=2.0 * gamma0,
        gamma0=gamma0,
        eps0=eps0,
        l_a=1.0,
        rho_min=1.0,
    )


def minimize_quadratic(p: Polytope, x_prime: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of 0.5 ||x - x'||^2 over the polytope.

    Active-set enumeration over the independent row subsets of sizes 1..d with
    KKT sign checks; exact on instances small enough to enumerate.
    """
    target = np.asarray(x_prime, dtype=float)
    if p.contains(target):
        return target.copy(), 0.0
    best_x = None
    best_f = math.inf
    for A_s, b_s, _ in _independent_subsets(p, range(1, p.d + 1)):
        lam = np.linalg.solve(A_s @ A_s.T, A_s @ target - b_s)
        if np.any(lam < -1e-9):
            continue
        x = target - A_s.T @ lam
        if not p.contains(x):
            continue
        f = 0.5 * float((x - target) @ (x - target))
        if f < best_f:
            best_f, best_x = f, x
    if best_x is None:
        raise ValueError("no KKT point found; polytope may be empty")
    return best_x, best_f
