"""Polytope validation, geometric constants, and the exact quadratic minimizer."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from safefw import lp, problem
from safefw.harness import ExperimentConfig, resolve
from safefw.problem import (
    Objective,
    Polytope,
    box_geometry_constants,
    box_polytope,
    box_quadratic_lipschitz,
    geometry_constants,
    minimize_quadratic,
    validate,
    vertex_sweep,
)

from helpers import check_gradient, random_bounded_polytope


def quadratic_d2():
    x_prime = np.array([2.0, 0.5])
    return Objective(x_prime, box_quadratic_lipschitz(2, 1.0, x_prime))


def geometry(p, x0):
    return geometry_constants(p, x0, vertex_sweep(p))


def test_validate_unit_box():
    assert validate(box_polytope(2)) == "bounded"


def test_validate_half_space_unbounded():
    assert validate(Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))) == "unbounded"


def test_validate_degenerate_box():
    # a single point is bounded; interiority is x0's strict-feasibility check
    assert validate(Polytope(box_polytope(2).A, np.zeros(4))) == "bounded"


def test_validate_empty_polytope():
    # x1 <= -1 and x1 >= 1 cannot both hold
    p = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([-1.0, -1.0, 1.0, 1.0]))
    assert validate(p) == "infeasible"


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2))


def test_geometry_unit_box_exact():
    geo = geometry(box_polytope(2), np.zeros(2))
    assert geo.eps0 == 1.0
    assert geo.l_a == 1.0
    assert geo.rho_min == 1.0
    assert geo.gamma0 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert geo.gamma == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_geometry_scaled_box_eps0():
    p = Polytope(box_polytope(2).A, 2.0 * np.ones(4))
    geo = geometry(p, np.zeros(2))
    assert geo.eps0 == 2.0


def test_geometry_matches_box_closed_form():
    enumerated = geometry(box_polytope(2), np.zeros(2))
    analytic = box_geometry_constants(2, 1.0, np.zeros(2))
    for name in ("gamma", "gamma0", "eps0", "l_a", "rho_min"):
        assert getattr(enumerated, name) == pytest.approx(getattr(analytic, name), abs=1e-12)


def test_geometry_random_polytope_vs_brute_force():
    rng = np.random.default_rng(5)
    p = random_bounded_polytope(rng, 2, 5)
    geo = geometry(p, np.zeros(2))

    # brute force over every pair of constraints
    verts, sig = [], []
    for i, j in itertools.combinations(range(5), 2):
        sub = p.A[[i, j]]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, p.b[[i, j]])
        if np.all(p.A @ v - p.b <= 1e-9):
            verts.append(v)
            sig.append(np.linalg.svd(sub, compute_uv=False)[-1])
    assert verts
    gamma = max(np.linalg.norm(u - v) for u in verts for v in verts)
    gamma0 = max(np.linalg.norm(v) for v in verts)
    assert geo.gamma == pytest.approx(gamma, abs=1e-10)
    assert geo.gamma0 == pytest.approx(gamma0, abs=1e-10)
    assert geo.rho_min == pytest.approx(min(sig), abs=1e-12)
    assert geo.rho_min > 0
    assert geo.eps0 == pytest.approx(float(np.min(p.margins(np.zeros(2)))), abs=1e-12)
    assert geo.l_a == pytest.approx(float(np.max(np.linalg.norm(p.A, axis=1))), abs=1e-12)


def test_geometry_deterministic():
    rng = np.random.default_rng(6)
    p = random_bounded_polytope(rng, 2, 6)
    a = geometry(p, np.zeros(2))
    b = geometry(p, np.zeros(2))
    assert all(getattr(a, f) == getattr(b, f) for f in ("gamma", "gamma0", "eps0", "l_a", "rho_min"))


def test_geometry_requires_strict_feasibility():
    with pytest.raises(ValueError):
        geometry(box_polytope(2), np.array([1.0, 0.0]))


def test_geometry_subset_cap(monkeypatch):
    monkeypatch.setattr(problem, "SUBSET_CAP", 5)  # the box has C(4, 2) = 6 bases
    with pytest.raises(problem.EnumerationCapError):
        vertex_sweep(box_polytope(2))
    with pytest.raises(problem.EnumerationCapError):
        minimize_quadratic(box_polytope(2), np.array([2.0, 0.5]))


def regular_17gon() -> Polytope:
    angles = 2.0 * np.pi * np.arange(17) / 17
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(17))


def test_vertex_sweep_regular_17gon_vs_brute_force():
    # 136 bases: beyond enumerate_vertices' m <= 16 cap, well inside SUBSET_CAP
    p = regular_17gon()
    V, rho_min = vertex_sweep(p)
    verts, sig = [], []
    for i, j in itertools.combinations(range(17), 2):
        v = np.linalg.solve(p.A[[i, j]], p.b[[i, j]])
        if np.all(p.A @ v - p.b <= 1e-9):
            verts.append(v)
            sig.append(np.linalg.svd(p.A[[i, j]], compute_uv=False)[-1])
    assert len(V) == len(verts) == 17
    assert all(np.min(np.linalg.norm(V - v, axis=1)) <= 1e-12 for v in verts)
    # adjacent unit normals 2 pi / 17 apart: sigma_min = sqrt(2) sin(pi / 17)
    assert rho_min == pytest.approx(min(sig), abs=1e-12)
    assert rho_min == pytest.approx(math.sqrt(2.0) * math.sin(math.pi / 17), abs=1e-12)
    geo = geometry_constants(p, np.zeros(2), (V, rho_min))
    radius = 1.0 / math.cos(math.pi / 17)
    assert geo.gamma0 == pytest.approx(max(np.linalg.norm(v) for v in verts), abs=1e-12)
    assert geo.gamma0 == pytest.approx(radius, abs=1e-12)
    # odd polygon: the diameter joins vertices 8 steps apart
    assert geo.gamma == pytest.approx(max(np.linalg.norm(u - v) for u in verts for v in verts), abs=1e-12)
    assert geo.gamma == pytest.approx(2.0 * radius * math.sin(8 * math.pi / 17), abs=1e-12)


def pyramid(n: int) -> Polytope:
    """Side facets (cos 2 pi i/n, sin 2 pi i/n, 1) x <= 1 meeting at the apex
    (0, 0, 1), over the base z >= -1."""
    angles = 2.0 * np.pi * np.arange(n) / n
    A = np.vstack([np.column_stack([np.cos(angles), np.sin(angles), np.ones(n)]), [0.0, 0.0, -1.0]])
    return Polytope(A, np.ones(n + 1))


def test_degenerate_vertex_costs_one_row():
    # C(20, 3) = 1,140 bases meet at the apex; the sweep keeps one row for it
    p = pyramid(20)
    V, rho_min = vertex_sweep(p)
    verts = []
    for rows in map(list, itertools.combinations(range(p.m), 3)):
        if abs(np.linalg.det(p.A[rows])) > 1e-12:
            v = np.linalg.solve(p.A[rows], p.b[rows])
            if np.all(p.A @ v - p.b <= 1e-9) and all(np.linalg.norm(v - u) > 1e-9 for u in verts):
                verts.append(v)
    assert len(V) == len(verts) == 21
    assert all(np.min(np.linalg.norm(V - v, axis=1)) <= 1e-12 for v in verts)
    assert rho_min.hex() == "0x1.d68dc8e8e8bf7p-6"
    cfg = ExperimentConfig.from_dict({
        "problem": {"type": "polytope", "A": p.A.tolist(), "b": p.b.tolist()},
        "x0": [0.0, 0.0, 0.0],
        "objective": {"x_prime": [2.0, 0.5, 0.5]},
    })
    tracemalloc.start()
    try:
        resolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_gradient_consistency():
    rng = np.random.default_rng(8)
    obj = quadratic_d2()
    points = rng.uniform(-0.9, 0.9, size=(10, 2))
    assert check_gradient(obj, points)

    broken = Objective(np.array([2.0, 0.5]), M=1.0)
    broken.gradient = lambda x: np.asarray(x) * 0.5  # wrong on purpose
    assert not check_gradient(broken, points)


def test_minimize_quadratic_box_projection():
    x_star, f_star = minimize_quadratic(box_polytope(2), np.array([2.0, 0.5]))
    assert np.allclose(x_star, [1.0, 0.5], atol=1e-12)
    assert f_star == pytest.approx(0.5, abs=1e-12)


def test_minimize_quadratic_interior_target():
    x_star, f_star = minimize_quadratic(box_polytope(2), np.array([0.2, -0.3]))
    assert np.allclose(x_star, [0.2, -0.3])
    assert f_star == 0.0


def test_minimize_quadratic_gap_certificate():
    # the Frank-Wolfe gap at the reported optimum certifies optimality
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_bounded_polytope(rng, 3, 8)
        target = rng.uniform(1.0, 2.5, 3)
        x_star, f_star = minimize_quadratic(p, target)
        assert p.max_violation(x_star) <= 1e-9
        grad = x_star - target
        sol = lp.solve(lp.LpProblem(grad, p.A, p.b))
        assert float(grad @ (x_star - sol.point)) <= 1e-8
        assert 0.5 * float((x_star - target) @ (x_star - target)) == pytest.approx(f_star, abs=1e-12)


def test_box_quadratic_lipschitz_value():
    # farthest unit-box corner from [2, 0.5] is (-1, -1)
    assert box_quadratic_lipschitz(2, 1.0, np.array([2.0, 0.5])) == pytest.approx(math.sqrt(11.25), abs=1e-12)
