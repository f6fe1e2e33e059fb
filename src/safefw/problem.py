"""Ground-truth problem description: the polytope, the smooth objective, and
the geometric constants the measurement schedule and convergence bounds consume."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9  # the one relative tolerance: a share of the largest term a test compares
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
        self.row_norms = np.linalg.norm(self.A, axis=1)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def margins(self, x: np.ndarray) -> np.ndarray:
        return self.b - self.A @ np.asarray(x, dtype=float)

    def contains(self, x: np.ndarray) -> bool:
        """Every row holds at x to a share FEAS_TOL of its larger term:
        a_i x - b_i <= FEAS_TOL max(|a_i| |x|, |b_i|)."""
        terms = np.maximum(self.row_norms * np.linalg.norm(x), np.abs(self.b))
        return bool(np.all(self.A @ np.asarray(x, dtype=float) - self.b <= FEAS_TOL * terms))


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
    """Constants of the polytope and start, read by the schedule, e_t and the DFS guard."""

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


@dataclass
class Sweep:
    """The vertices, rho_min and minimizer x* that `sweep` reads in one pass."""

    vertices: np.ndarray  # one row per distinct vertex
    rho_min: float        # min over the feasible bases of their smallest singular value
    x_star: np.ndarray    # the exact minimizer of 0.5 ||x - x'||^2


def sweep(p: Polytope, x_prime: np.ndarray) -> Sweep:
    """Decide p, and read its vertices, rho_min and the minimizer of 0.5 ||x - x'||^2, from
    one pass over the row subsets S whose rows are independent, sigma_min(A_S) > FEAS_TOL
    sigma_max(A_S): of size d alone when x' lies in p (then x' is the minimizer), else of
    sizes 1..d. At size d a feasible (p.contains) v = A_S^-1 b_S is a vertex, one row per
    vertex (u within FEAS_TOL max(|u|, |v|) of v is v), and sigma_min(A_S) enters rho_min;
    each of its edges, a column y of -A_S^-1, is a recession ray when A y is nowhere above
    FEAS_TOL |a_i| |y|. At sizes below d, and at size d with lam = A_S^-T (x' - v), the
    face's KKT point x is a candidate when feasible with lam_i |a_i| >= -FEAS_TOL
    max(|x'|, |x|). Every test is relative to the terms it compares, so p scaled by s is
    decided as at scale 1. With d independent rows p is empty when no vertex is feasible
    and unbounded when a vertex has a ray (a pointed unbounded polyhedron has an unbounded
    edge from a vertex); without them it is empty when neither x' nor a KKT point is
    feasible and otherwise holds a line (Schrijver 1986, section 8)."""
    A, b, d, target = p.A, p.b, p.d, np.asarray(x_prime, dtype=float)
    inside = p.contains(target)
    sizes = [d] if inside else range(1, d + 1)
    total = sum(math.comb(p.m, k) for k in sizes)
    if total > SUBSET_CAP:
        raise EnumerationCapError(f"{total} constraint subsets exceed the cap {SUBSET_CAP}; "
                                  "supply analytic geometry for this instance")
    V, rho_min, pointed, feasible = np.empty((0, d)), math.inf, False, []
    x_star, f_star = (target.copy(), 0.0) if inside else (None, math.inf)
    for k in sizes:
        for rows in map(list, itertools.combinations(range(p.m), k)):
            A_s, b_s = A[rows], b[rows]
            svals = np.linalg.svd(A_s, compute_uv=False)
            if not svals[-1] > FEAS_TOL * svals[0]:
                continue
            if k == d:
                pointed = True
                x = np.linalg.solve(A_s, b_s)
            else:
                lam = np.linalg.solve(A_s @ A_s.T, A_s @ target - b_s)
                x = target - A_s.T @ lam
            if not p.contains(x):
                continue
            if k == d:
                rho_min = min(rho_min, float(svals[-1]))
                terms = np.maximum(np.linalg.norm(V, axis=1), np.linalg.norm(x))
                if np.all(np.linalg.norm(V - x, axis=1) > FEAS_TOL * terms):
                    V = np.vstack([V, x])
                feasible.extend(rows)
                if inside:
                    continue
                lam = np.linalg.solve(A_s.T, target - x)
            f = 0.5 * float((x - target) @ (x - target))
            floor = -FEAS_TOL * max(np.linalg.norm(target), np.linalg.norm(x))
            if f < f_star and np.all(lam * p.row_norms[rows] >= floor):
                x_star, f_star = x, f
    if not pointed:
        raise ValueError("polytope is empty" if x_star is None else "polytope is unbounded")
    if not len(V):
        raise ValueError("polytope is empty")
    bases, unit_rows = np.array(feasible, dtype=np.intp).reshape(-1, d), A / p.row_norms[:, None]
    for lo in range(0, len(bases), 4096):  # the edges of 4096 feasible bases at a time, one per column
        edges = -np.linalg.inv(A[bases[lo:lo + 4096]]).transpose(1, 0, 2).reshape(d, -1)
        if np.any(np.all(unit_rows @ edges <= FEAS_TOL * np.linalg.norm(edges, axis=0), axis=0)):
            raise ValueError("polytope is unbounded")
    if x_star is None:
        raise ValueError("no KKT point passes the tolerances")
    return Sweep(V, rho_min, x_star)


def geometry_constants(p: Polytope, x0: np.ndarray, found: Sweep) -> GeometryConstants:
    """Exact geometric constants from the sweep of p (small instances)."""
    x0 = np.asarray(x0, dtype=float)
    eps0 = float(np.min(p.margins(x0)))
    if eps0 <= 0.0:
        raise ValueError("x0 must be strictly feasible")
    V = found.vertices
    gamma0 = float(np.max(np.linalg.norm(V, axis=1)))
    diffs = V[:, None, :] - V[None, :, :]
    gamma = float(np.max(np.linalg.norm(diffs, axis=2)))
    return GeometryConstants(
        gamma=gamma,
        gamma0=gamma0,
        eps0=eps0,
        l_a=float(np.max(p.row_norms)),
        rho_min=found.rho_min,
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
