"""The polytope sweep's verdicts, geometric constants, and exact quadratic minimizer."""

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
    sweep,
)

from helpers import check_gradient, random_bounded_polytope


def quadratic_d2():
    x_prime = np.array([2.0, 0.5])
    return Objective(x_prime, box_quadratic_lipschitz(2, 1.0, x_prime))


def geometry(p, x0):
    return geometry_constants(p, x0, sweep(p, x0))


def validate(p):
    """The sweep's verdict: "bounded", or the message it raises."""
    try:
        sweep(p, np.zeros(p.d))
    except ValueError as exc:
        return str(exc)
    return "bounded"


def test_validate_unit_box():
    assert validate(box_polytope(2)) == "bounded"
    assert validate(box_polytope(1)) == "bounded"


def test_validate_half_space_unbounded():
    # rank 1 < d and nonempty: the half-plane holds a line
    assert validate(Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))) == "polytope is unbounded"
    # the quadrant is pointed (a vertex at the origin) and has the rays e1 and e2
    assert validate(Polytope(-np.eye(2), np.zeros(2))) == "polytope is unbounded"
    # d = 1: the half-line's vertex x = 1 has the edge y = -1, a ray
    assert validate(Polytope(np.array([[1.0]]), np.array([1.0]))) == "polytope is unbounded"
    # the half-strip 0 <= x2 <= 1, x1 >= 0: each of its two vertices has the ray e1
    strip = Polytope(np.array([[0.0, -1.0], [0.0, 1.0], [-1.0, 0.0]]), np.array([0.0, 1.0, 0.0]))
    assert validate(strip) == "polytope is unbounded"
    # the 20-facet pyramid without its base: a cone whose only vertex, the apex, lies on
    # all 20 rows; a ray appears only among the edges of some of its C(20, 3) bases
    cone = pyramid(20)
    assert validate(Polytope(cone.A[:-1], cone.b[:-1])) == "polytope is unbounded"
    assert validate(cone) == "bounded"


def test_validate_degenerate_box():
    # a single point is bounded; interiority is x0's strict-feasibility check
    assert validate(Polytope(box_polytope(2).A, np.zeros(4))) == "bounded"


def test_validate_empty_polytope():
    # x1 <= -1 and x1 >= 1 cannot both hold
    p = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([-1.0, -1.0, 1.0, 1.0]))
    assert validate(p) == "polytope is empty"
    # the same two rows alone in R^2: no two rows are independent, and no KKT point is feasible
    assert validate(Polytope(p.A[:2], p.b[:2])) == "polytope is empty"


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
    # the box has C(4, 2) = 6 bases, and C(4, 1) = 4 more subsets when x' lies outside it
    monkeypatch.setattr(problem, "SUBSET_CAP", 6)
    assert sweep(box_polytope(2), np.array([0.2, -0.3])).x_star.tolist() == [0.2, -0.3]
    with pytest.raises(problem.EnumerationCapError, match="10 constraint subsets exceed the cap 6"):
        sweep(box_polytope(2), np.array([2.0, 0.5]))


def regular_17gon() -> Polytope:
    angles = 2.0 * np.pi * np.arange(17) / 17
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]), np.ones(17))


def test_vertex_sweep_regular_17gon_vs_brute_force():
    # 136 bases: beyond enumerate_vertices' m <= 16 cap, well inside SUBSET_CAP
    p = regular_17gon()
    found = sweep(p, np.zeros(2))
    V, rho_min = found.vertices, found.rho_min
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
    geo = geometry_constants(p, np.zeros(2), found)
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
    found = sweep(p, np.zeros(3))
    V, rho_min = found.vertices, found.rho_min
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


def heptagon(seed: int) -> tuple[Polytope, np.ndarray]:
    """Seven unit rows at jittered angles with offsets in [0.5, 1.5], and a target in [-3, 3]^2."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * (np.arange(7) + rng.uniform(-0.3, 0.3, 7)) / 7
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]), rng.uniform(0.5, 1.5, 7)), rng.uniform(-3, 3, 2)


@pytest.mark.parametrize("scale", [1e-12, 1e8, 1e12])
def test_sweep_decides_a_polytope_at_its_own_scale(scale):
    """Scaling b and x' by s scales the polytope and its minimizer by s: the
    sweep finds as many vertices, the same rho_min and s x* within 1e-9
    relative on each of 30 heptagons, as each test is relative to its terms."""
    for seed in range(30):
        p, target = heptagon(seed)
        ref, found = sweep(p, target), sweep(Polytope(p.A, scale * p.b), scale * target)
        assert (len(found.vertices), found.rho_min) == (len(ref.vertices), ref.rho_min), seed
        assert np.linalg.norm(found.x_star - scale * ref.x_star) <= 1e-9 * scale * np.linalg.norm(ref.x_star), seed


def test_polytope_tolerance_is_relative_to_the_terms_compared():
    """A row holds up to FEAS_TOL max(|a_i| |x|, |b_i|): 5 |x| = 11.18 at x = (2, 1)."""
    p = Polytope(np.array([[3.0, 4.0], [-1.0, 0.0]]), np.array([10.0, 1.0]))
    assert p.contains([2.0, 1.0 + 2.7e-9]) and not p.contains([2.0, 1.0 + 2.9e-9])  # 4 (y - 1) against 1.118e-8
    tiny = Polytope(p.A, 1e-12 * p.b)
    assert tiny.contains([2e-12, 1e-12 + 2.7e-21]) and not tiny.contains([2e-12, 1e-12 + 2.9e-21])


@pytest.mark.parametrize("far", [1e6, 1e9, 1e10])
def test_a_redundant_far_row_leaves_the_unit_box_decided(far):
    """The row x_1 <= far lies outside the unit box and changes nothing: its
    large b widens no other row's tolerance, so a point 1e-3 outside the box
    is outside, the four corners stay apart and x* = (1, 0.5) with f* = 0.5."""
    box = box_polytope(2)
    p = Polytope(np.vstack([box.A, [1.0, 0.0]]), np.append(box.b, far))
    assert p.contains([1.0, 0.5]) and not p.contains([1.001, 0.5]) and not p.contains([2.0, 0.5])
    found = sweep(p, np.array([2.0, 0.5]))
    assert len(found.vertices) == 4 and found.rho_min == 1.0
    assert np.array_equal(found.x_star, [1.0, 0.5]) and quadratic_d2().value(found.x_star) == 0.5
    assert geometry_constants(p, np.zeros(2), found).gamma == 2.0 * math.sqrt(2.0)


def test_gradient_consistency():
    rng = np.random.default_rng(8)
    obj = quadratic_d2()
    points = rng.uniform(-0.9, 0.9, size=(10, 2))
    assert check_gradient(obj, points)

    broken = Objective(np.array([2.0, 0.5]), M=1.0)
    broken.gradient = lambda x: np.asarray(x) * 0.5  # wrong on purpose
    assert not check_gradient(broken, points)


def test_minimize_quadratic_box_projection():
    x_star = sweep(box_polytope(2), np.array([2.0, 0.5])).x_star
    assert np.allclose(x_star, [1.0, 0.5], atol=1e-12)
    assert quadratic_d2().value(x_star) == pytest.approx(0.5, abs=1e-12)


def test_minimize_quadratic_interior_target():
    # the empty row subset's KKT point is the target itself
    x_star = sweep(box_polytope(2), np.array([0.2, -0.3])).x_star
    assert np.array_equal(x_star, [0.2, -0.3])


def test_minimize_quadratic_gap_certificate():
    # the Frank-Wolfe gap at the reported optimum certifies optimality
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_bounded_polytope(rng, 3, 8)
        target = rng.uniform(1.0, 2.5, 3)
        x_star = sweep(p, target).x_star
        assert p.contains(x_star)
        grad = x_star - target
        sol = lp.solve(lp.LpProblem(grad, p.A, p.b))
        assert float(grad @ (x_star - sol.point)) <= 1e-8


def test_box_quadratic_lipschitz_value():
    # farthest unit-box corner from [2, 0.5] is (-1, -1)
    assert box_quadratic_lipschitz(2, 1.0, np.array([2.0, 0.5])) == pytest.approx(math.sqrt(11.25), abs=1e-12)
