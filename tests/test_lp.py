"""Simplex solver against exhaustive vertex enumeration, scipy's HiGHS,
hand cases and the scalar-read Bland kernel; the pivot loop over its start
bases (a verified warm start, primal and dual pivots from it, clipped dual
pivots from a basis that is neither primal nor dual feasible, the hand-over
to the next start, its own infeasible and unbounded verdicts and its pivot
budget) against the cold solve and HiGHS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefw import lp
from safefw.problem import EnumerationCapError, box_polytope
from safefw.sfw import _guard_start, _guarded_rows

from helpers import bland_simplex_reference, enumerate_vertices, neither_feasible, random_bounded_polytope


def box_problem(c):
    p = box_polytope(len(c))
    return lp.LpProblem(np.asarray(c, dtype=float), p.A, p.b)


def test_box_dfs_example():
    # gradient at the origin for the target [2, 0.5]
    sol = lp.solve(box_problem([-2.0, -0.5]))
    assert sol.status == "optimal"
    # oracle: minimum over the four box vertices
    vertices = [np.array(v, dtype=float) for v in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    best = min(float(np.array([-2.0, -0.5]) @ v) for v in vertices)
    assert best == -2.5
    assert np.array([-2.0, -0.5]) @ sol.point == pytest.approx(-2.5, abs=1e-10)
    assert np.allclose(sol.point, [1.0, 1.0], atol=1e-9)


def test_zero_objective_returns_a_vertex():
    sol = lp.solve(box_problem([0.0, 0.0]))
    assert sol.status == "optimal"
    assert np.allclose(np.abs(sol.point), 1.0, atol=1e-9)


def test_infeasible_system(monkeypatch):
    # x <= -1 and x >= 1 in one dimension
    prob = lp.LpProblem(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert lp.solve(prob).status == "infeasible"
    # from the dual-feasible vertex x = 1 the violated row has no dual ratio: a dual ray
    simplex_runs = counting_simplex(monkeypatch)
    assert lp.solve(prob, starts=([1],)).status == "infeasible" and not simplex_runs


def test_unbounded_direction(monkeypatch):
    # minimize -x2 subject only to x1 <= 1
    prob = lp.LpProblem(np.array([0.0, -1.0]), np.array([[1.0, 0.0]]), np.array([1.0]))
    assert lp.solve(prob).status == "unbounded"
    # with x2 >= 0 too, the edge from the vertex (1, 0) along +x2 meets no row: a primal ray
    prob = lp.LpProblem(prob.c, np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0]))
    simplex_runs = counting_simplex(monkeypatch)
    assert lp.solve(prob, starts=([0, 1],)).status == "unbounded" and not simplex_runs


def test_enumerate_box_vertices():
    p2 = box_polytope(2)
    verts2 = enumerate_vertices(lp.LpProblem(np.zeros(2), p2.A, p2.b))
    assert len(verts2) == 4
    p3 = box_polytope(3)
    verts3 = enumerate_vertices(lp.LpProblem(np.zeros(3), p3.A, p3.b))
    assert len(verts3) == 8
    for v in verts3:
        assert np.allclose(np.abs(v), 1.0, atol=1e-12)


def test_enumeration_cap():
    A = np.vstack([np.eye(17)[:, :2], -np.eye(2)])
    with pytest.raises(EnumerationCapError):
        enumerate_vertices(lp.LpProblem(np.zeros(2), A[:17], np.ones(17)))


def test_random_small_polytope_matches_enumeration():
    rng = np.random.default_rng(0)
    p = random_bounded_polytope(rng, 2, 6)
    c = rng.normal(0.0, 1.0, 2)
    prob = lp.LpProblem(c, p.A, p.b)
    sol = lp.solve(prob)
    verts = enumerate_vertices(prob)
    assert sol.status == "optimal"
    assert c @ sol.point == pytest.approx(min(float(c @ v) for v in verts), abs=1e-8)


def test_simplex_vs_enumeration_sweep():
    rng = np.random.default_rng(42)
    for trial in range(30):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2 * d, 13))
        p = random_bounded_polytope(rng, d, m)
        c = rng.normal(0.0, 1.0, d)
        prob = lp.LpProblem(c, p.A, p.b)
        sol = lp.solve(prob)
        assert sol.status == "optimal"
        assert np.all(p.A @ sol.point - p.b <= 1e-9)
        best = min(float(c @ v) for v in enumerate_vertices(prob))
        assert c @ sol.point <= best + 1e-8
        assert c @ sol.point >= best - 1e-8


def test_objective_scaling():
    rng = np.random.default_rng(3)
    p = random_bounded_polytope(rng, 3, 8)
    c = rng.normal(0.0, 1.0, 3)
    base = lp.solve(lp.LpProblem(c, p.A, p.b))
    scaled = lp.solve(lp.LpProblem(5.0 * c, p.A, p.b))
    assert 5.0 * c @ scaled.point == pytest.approx(5.0 * (c @ base.point), rel=1e-10)
    assert np.allclose(scaled.point, base.point, atol=1e-9)


def test_deterministic_vertex():
    rng = np.random.default_rng(9)
    p = random_bounded_polytope(rng, 3, 9)
    c = rng.normal(0.0, 1.0, 3)
    a = lp.solve(lp.LpProblem(c, p.A, p.b))
    b = lp.solve(lp.LpProblem(c, p.A, p.b))
    assert np.array_equal(a.point, b.point)
    assert a.active_set == b.active_set


def test_active_set_defines_solution():
    sol = lp.solve(box_problem([-2.0, -0.5]))
    assert sorted(sol.active_set) == [0, 2]  # +x1 and +x2 facets of the box


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        lp.LpProblem(np.zeros(3), np.eye(2), np.ones(2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_warm_start_from_cold_basis_matches_cold(d, extra_rows, seed):
    rng = np.random.default_rng(seed)
    p = random_bounded_polytope(rng, d, 2 * d + extra_rows)
    prob = lp.LpProblem(rng.normal(0.0, 1.0, d), p.A, p.b)
    cold = lp.solve(prob)
    warm = lp.solve(prob, starts=(cold.active_set,))
    assert cold.status == warm.status == "optimal"
    assert np.abs(warm.point - cold.point).max() <= 1e-12
    assert abs(prob.c @ warm.point - prob.c @ cold.point) <= 1e-12
    assert warm.active_set == cold.active_set


def test_verified_basis_skips_the_simplex(monkeypatch):
    cold = lp.solve(box_problem([-2.0, -0.5]))

    def no_simplex(*args):
        raise AssertionError("simplex called for a verified basis")

    monkeypatch.setattr(lp, "_simplex", no_simplex)
    warm = lp.solve(box_problem([-2.0, -0.5]), starts=(cold.active_set,))
    assert np.array_equal(warm.point, cold.point) and warm.active_set == cold.active_set


def with_row(c, extra_row):
    """The unit box of R^2, with one more row (a, b) when given, and objective c."""
    p = box_polytope(2)
    A, b = p.A, p.b
    if extra_row is not None:
        A, b = np.vstack([A, extra_row[0]]), np.append(b, extra_row[1])
    return lp.LpProblem(np.array(c), A, b)


def counting_simplex(monkeypatch):
    runs = []
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: runs.append(1) or simplex(*args))
    return runs


def corner(c):
    """The start of the unit box of R^2 (rows x1 <= 1, -x1 <= 1, x2 <= 1,
    -x2 <= 1) at the corner against the sign of c, as `_guard_start` picks
    it: every multiplier there is |c_i| >= 0."""
    return [2 * i + (c_i >= 0.0) for i, c_i in enumerate(c)]


@pytest.mark.parametrize(
    "c, extra_row, basis",
    [
        ([-2.0, -0.5], None, [1, 3]),  # feasible vertex, negative multipliers: two primal pivots
        ([-2.0, -0.5], ([1.0, 1.0], 1.5), [0, 2]),  # positive multipliers, vertex cut off: one dual pivot
        ([2.0, -0.5], ([1.0, 1.0], 1.5), [0, 2]),  # vertex cut off and a negative multiplier: clipped dual pivots
    ],
    ids=["wrong", "infeasible-vertex", "neither"],
)
def test_rejected_basis_restarts_to_the_cold_vertex(c, extra_row, basis, monkeypatch):
    """A start pivots to the cold vertex on its own, without the simplex,
    whether it is primal feasible, dual feasible or neither."""
    prob = with_row(c, extra_row)
    cold = lp.solve(prob)
    simplex_runs = counting_simplex(monkeypatch)
    warm = lp.solve(prob, starts=(basis,))
    assert not simplex_runs
    assert warm.status == cold.status == "optimal"
    assert np.array_equal(warm.point, cold.point) and warm.active_set == cold.active_set


@pytest.mark.parametrize(
    "c, extra_row, basis, tied",
    [
        ([-2.0, -0.5], None, [0, 1], False),  # parallel rows: singular
        ([-2.0, -0.5], None, [0], False),  # too few rows
        ([-1.0, 0.0], None, [0, 2], True),  # zero multiplier: optimal face is an edge
        ([-2.0, -0.5], ([1.0, 1.0], 2.0), [0, 2], True),  # a third row through the vertex: degenerate
        ([-1.0, -5e-10], ([1.0, 1e-9], 1.0 + 3e-10), [0, 4], True),  # nearly parallel rows: condition ~4e9
    ],
    ids=["singular", "short", "zero-multiplier", "degenerate", "ill-conditioned"],
)
def test_rejected_basis_falls_back_to_cold(c, extra_row, basis, tied, monkeypatch):
    """A start with no vertex hands over to the next one, the corner, which
    verifies without the simplex. Only an optimum the loop cannot prove
    unique, tied or too ill-conditioned to verify, reaches the simplex."""
    prob = with_row(c, extra_row)
    cold = lp.solve(prob)
    simplex_runs = counting_simplex(monkeypatch)
    warm = lp.solve(prob, starts=(basis, corner(c)))
    assert len(simplex_runs) == tied
    assert warm.status == cold.status == "optimal"
    assert np.array_equal(warm.point, cold.point) and warm.active_set == cold.active_set


def test_each_start_has_its_own_pivot_budget(monkeypatch):
    """A start before the last has one pivot per row and then hands over to
    the next; the last start has MAX_PIVOTS, and once out of them raises
    PivotLimitError. The LP is a guarded one whose random start needs more
    pivots than rows."""
    rng = np.random.default_rng(13)
    prob, m = random_guarded_lp(rng, int(rng.integers(8, 30)))
    rows = prob.A.shape[0]
    start = sorted(rng.choice(rows, size=prob.c.size, replace=False).tolist())
    cold = lp.solve(prob)
    events = []  # "terms" per fresh basis, "pivot" per rank-one update
    terms, replace_row = lp._basis_terms, lp._replace_row
    monkeypatch.setattr(lp, "_basis_terms", lambda *args: events.append("terms") or terms(*args))
    monkeypatch.setattr(lp, "_replace_row", lambda *args: events.append("pivot") or replace_row(*args))
    simplex_runs = counting_simplex(monkeypatch)
    for starts in ((start,), (start, _guard_start(prob.c, m))):
        events.clear()
        sol = lp.solve(prob, starts)
        assert not simplex_runs and sol.active_set == cold.active_set
        assert np.abs(sol.point - cold.point).max() <= 1e-9 * max(1.0, np.abs(cold.point).max())
        pivots = events[:events.index("terms", 1)].count("pivot")  # the first start's
        if len(starts) == 1:
            assert pivots > rows
        else:
            assert pivots == rows and events.count("terms") > 2  # then the guard start
    monkeypatch.setattr(lp, "MAX_PIVOTS", rows)
    with pytest.raises(lp.PivotLimitError):
        lp.solve(prob, (start,))


def random_lp(rng, d, extra_rows):
    """A random bounded polytope moved by a random shift, so that some
    right-hand sides are negative (phase 1), with some rows on a half grid or
    repeated (ratio ties), a sparse objective now and then (an optimal face),
    and now and then a row that empties the polytope."""
    p = random_bounded_polytope(rng, d, 2 * d + extra_rows)
    A, b = p.A, p.b + p.A @ rng.uniform(-2.0, 2.0, d)
    if rng.random() < 0.5:
        b = np.round(2.0 * b) / 2.0  # vertices on a half grid: ratio ties
    if rng.random() < 0.5:
        dup = rng.integers(0, A.shape[0], size=2)
        A, b = np.vstack([A, A[dup]]), np.append(b, b[dup])  # repeated rows: degenerate vertices
    c = rng.normal(0.0, 1.0, d)
    if rng.random() < 0.3:
        c[rng.random(d) < 0.5] = 0.0
    if rng.random() < 0.1:
        A, b = np.vstack([A, -A[0]]), np.append(b, -b[0] - 1.0)
    return lp.LpProblem(c, A, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_simplex_kernel_matches_scalar_bland_reference(d, extra_rows, seed):
    """The Python-float kernel pivots exactly as the numpy-scalar one: the same
    status, point bytes and active set from a cold solve."""
    prob = random_lp(np.random.default_rng(seed), d, extra_rows)
    fast = lp.solve(prob)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_simplex", lambda T, basis, allowed, steps=None: bland_simplex_reference(T, basis, range(allowed)))
        ref = lp.solve(prob)
    assert fast.status == ref.status
    assert (fast.point is None and ref.point is None) or fast.point.tobytes() == ref.point.tobytes()
    assert fast.active_set == ref.active_set


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_restart_from_any_basis_lands_on_the_cold_vertex(d, extra_rows, seed):
    """From a random d-subset of the rows (feasible or not, dual feasible or
    not, singular or not) a warm solve gives the cold status, active set and
    point."""
    rng = np.random.default_rng(seed)
    p = random_bounded_polytope(rng, d, 2 * d + extra_rows)
    prob = lp.LpProblem(rng.normal(0.0, 1.0, d), p.A, p.b)
    cold = lp.solve(prob)
    warm = lp.solve(prob, starts=(sorted(rng.choice(p.m, size=d, replace=False).tolist()),))
    assert warm.status == cold.status == "optimal"
    assert warm.active_set == cold.active_set
    assert np.abs(warm.point - cold.point).max() <= 1e-12


@pytest.mark.parametrize(
    "c, A, b, vertex, active",
    [
        # the simplex stops at (1, 0) with x2 nonbasic; pivoting x2 in slides along
        # the face until x2 <= 2 becomes active, where a ratio test over every row
        # would stop at (0, 1), at x1's sign change
        ([-1.0, -1.0], np.vstack([box_polytope(2, 2.0).A, [1.0, 1.0]]), [2.0] * 4 + [1.0], [-1.0, 2.0], [2, 4]),
        # the face x2 = 0 is unbounded in +x1, so x1 enters by its v column
        ([0.0, 1.0], [[0.0, -1.0], [-1.0, 0.0]], [0.0, 1.0], [-1.0, 0.0], [0, 1]),
    ],
    ids=["u-column", "v-column"],
)
def test_optimal_face_ends_at_a_vertex(c, A, b, vertex, active):
    sol = lp.solve(lp.LpProblem(np.array(c), np.array(A), np.array(b)))
    assert sol.status == "optimal"
    assert sol.point.tolist() == vertex
    assert sol.active_set == active


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_facet_objective_ends_at_a_vertex(d, extra_rows, seed):
    """With c the outward normal of a row, the optimal face is that row's facet
    (or a face of it, if the row is redundant), so the simplex stops with free
    variables nonbasic. The point returned is a feasible vertex, d independent
    active rows, with scipy's optimal value. A random shift puts the origin
    outside the polytope now and then, so phase 1 runs too."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    p = random_bounded_polytope(rng, d, 2 * d + extra_rows)
    A, b = p.A, p.b + p.A @ rng.uniform(-2.0, 2.0, d)
    c = -A[rng.integers(0, A.shape[0])]
    sol = lp.solve(lp.LpProblem(c, A, b))
    ref = optimize.linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
    assert sol.status == "optimal" and ref.status == 0
    assert np.all(A @ sol.point - b <= 1e-9 * (1.0 + np.abs(b)))
    assert np.linalg.matrix_rank(A[sol.active_set]) == d
    assert abs(c @ sol.point - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))


def test_matches_scipy_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(40):
        d = int(rng.integers(1, 6))
        p = random_bounded_polytope(rng, d, int(rng.integers(2 * d, 2 * d + 9)))
        cases.append((rng.normal(0.0, 1.0, d), p.A, p.b))
    box = box_polytope(3)
    cases.append((np.array([-1.0, 0.0, 0.0]), box.A, box.b))  # degenerate: an optimal face
    cases.append((np.array([-1.0, -1.0, 0.0]), np.vstack([box.A, [1.0, 1.0, 0.0]]), np.append(box.b, 2.0)))
    for c, A, b in cases:
        sol = lp.solve(lp.LpProblem(c, A, b))
        ref = optimize.linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * len(c), method="highs")
        assert sol.status == "optimal" and ref.status == 0
        assert c @ sol.point == pytest.approx(ref.fun, abs=1e-8)
        assert np.all(A @ sol.point - b <= 1e-9)
    infeasible = optimize.linprog([1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0], bounds=[(None, None)], method="highs")
    unbounded = optimize.linprog([0.0, -1.0], A_ub=[[1.0, 0.0]], b_ub=[1.0], bounds=[(None, None)] * 2, method="highs")
    assert infeasible.status == 2 and unbounded.status == 3  # as lp.solve reports in the hand cases above


def test_verified_vertices_decides_each_lp_of_a_stack():
    p = box_polytope(2)
    A = np.stack([np.vstack([p.A, [1.0, 1.0]])] * 2)
    b = np.stack([np.append(p.b, 3.0), np.append(p.b, 1.5)])  # the second cuts off the vertex (1, 1)
    c = np.array([-2.0, -0.5])
    points, ok = lp.verified_vertices(A, b, c, [0, 2])
    assert ok.tolist() == [True, False]
    assert np.array_equal(points[0], lp.solve(lp.LpProblem(c, A[0], b[0]), starts=([0, 2],)).point)


@pytest.mark.parametrize(
    "c, extra_row",
    [
        ([-1.0, -5e-10], None),  # multipliers 1 and 5e-10: above COST_TOL by less than the band
        ([-2.0, -0.5], ([1.0, 1.0], 2.0 + 5.2e-8)),  # a third row 5.2e-8 from the vertex, its scale 5
    ],
    ids=["small-multiplier", "nearly-active-row"],
)
def test_guard_band_rejects_narrow_passes(c, extra_row):
    """A basis that passes a rule only narrowly is accepted at band 0, as the
    warm start accepts it, and rejected under a 1e-9 relative band."""
    p = box_polytope(2)
    A, b = p.A, p.b
    if extra_row is not None:
        A, b = np.vstack([A, extra_row[0]]), np.append(b, extra_row[1])
    c = np.array(c)
    assert lp.verified_vertices(A[None], b[None], c, [0, 2])[1][0]
    assert not lp.verified_vertices(A[None], b[None], c, [0, 2], band=1e-9)[1][0]


def test_overflowing_multiplier_scale_rejects_the_basis():
    """At band 0 the multiplier rule reads lambda > COST_TOL + 0 |B^-T| |c|,
    which fails where that scale overflows: the stack and the warm start both
    reject such a basis, so a single LP decides as its stack entry does."""
    p = box_polytope(2)
    prob = lp.LpProblem(np.array([-1e308, -1e308]), 0.5 * p.A, p.b)  # B^-1 = 2 I: the scale is 2e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert not lp.verified_vertices(prob.A[None], prob.b[None], prob.c, [0, 2])[1][0]
        assert lp._pivot_from(prob, ([0, 2],)) is None


def random_guarded_lp(rng, d):
    """A DFS-shaped LP: rows [a_hat^T; I; -I] as `_guarded_rows` lays them out,
    the estimated rows around a random interior point (some on a half grid,
    some repeated), and now and then a pair of rows that contradict each
    other, so that the LP is infeasible."""
    m = int(rng.integers(1, 2 * d + 5))
    A_hat = rng.normal(0.0, 1.0, (m, d))
    b_hat = A_hat @ rng.uniform(-1.0, 1.0, d) + rng.uniform(0.05, 2.0, m)
    if rng.random() < 0.3:
        b_hat = np.round(2.0 * b_hat) / 2.0 + 0.5  # ratio ties
    if rng.random() < 0.2:
        dup = rng.integers(0, m, size=2)
        A_hat, b_hat = np.vstack([A_hat, A_hat[dup]]), np.append(b_hat, b_hat[dup])
    if rng.random() < 0.2:
        row = rng.normal(0.0, 1.0, d)
        A_hat, b_hat = np.vstack([A_hat, row, -row]), np.append(b_hat, [0.3, -0.3 - rng.uniform(0.01, 1.0)])
    beta = np.vstack([A_hat.T, b_hat[None, :]])
    A, b = _guarded_rows(beta, float(rng.uniform(2.0, 20.0)))
    return lp.LpProblem(rng.normal(0.0, 1.0, d), A, b), A_hat.shape[0]


def test_pivot_loop_matches_scipy_on_guarded_lps():
    """Over 300 random guarded LPs, from a random d-subset of the rows and then
    the guard start, as a DFS solve starts, and, as a separate solve, from the
    guard start alone, a solve gives HiGHS's status. The loop proves every
    infeasible LP so by a dual ray, with no simplex. On a vertex the loop
    verified, a solve gives HiGHS's objective within 1e-9 relative
    and the cold tableau's point and active set, and the loop's rank-one
    B^-1 matches a fresh inverse of its final basis within 1e-10 relative.
    Most random starts that are neither primal nor dual feasible reach a
    verdict on their own, by the clipped dual ratio test. Some random starts
    give none (singular, or stopped at a vertex that does not verify), and
    most of those restart from the guard start to a verdict."""
    optimize = pytest.importorskip("scipy.optimize")
    neither = []  # per random start that is neither primal nor dual feasible: whether it gave a verdict alone
    restarts = []  # per random start with no verdict of its own: whether the guard start gave one
    infeasible = []  # per infeasible solve: whether the loop proved it

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def check(d, seed):
        rng = np.random.default_rng(seed)
        prob, m = random_guarded_lp(rng, d)
        ref = optimize.linprog(prob.c, A_ub=prob.A, b_ub=prob.b, bounds=[(None, None)] * d, method="highs")
        assert ref.status in (0, 2)
        cold = lp.solve(prob)
        assert cold.status == ("optimal" if ref.status == 0 else "infeasible")
        random_start, guard = sorted(rng.choice(prob.A.shape[0], size=d, replace=False).tolist()), _guard_start(prob.c, m)
        alone = lp._pivot_from(prob, (random_start,))
        if neither_feasible(prob, random_start):
            neither.append(alone is not None)
        for starts in ((random_start, guard), (guard,)):
            events, simplex_runs = [], []  # events: None per fresh basis, B^-1 per rank-one update
            with pytest.MonkeyPatch.context() as mp:
                terms, replace_row, simplex = lp._basis_terms, lp._replace_row, lp._simplex
                mp.setattr(lp, "_basis_terms", lambda *args: events.append(None) or terms(*args))
                mp.setattr(lp, "_replace_row", lambda *args: events.append(replace_row(*args)) or events[-1])
                mp.setattr(lp, "_simplex", lambda *args: simplex_runs.append(1) or simplex(*args))
                sol = lp.solve(prob, starts)
            assert sol.status == cold.status
            if alone is None and len(starts) == 2:
                restarts.append(not simplex_runs)
            if sol.status == "infeasible":
                infeasible.append(not simplex_runs)
            if simplex_runs or sol.status != "optimal":
                continue
            assert abs(prob.c @ sol.point - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            assert sol.active_set == cold.active_set
            assert np.abs(sol.point - cold.point).max() <= 1e-9 * max(1.0, np.abs(cold.point).max())
            if len(events) > 1 and events[-2] is not None:  # the verified start pivoted: its last update
                # the loop's columns follow its pivot order: match them to the sorted basis
                fresh = np.linalg.inv(prob.A[sol.active_set])
                order = np.argmax(np.abs(prob.A[sol.active_set] @ events[-2]), axis=0)
                assert sorted(order.tolist()) == list(range(d))
                assert np.abs(events[-2] - fresh[:, order]).max() <= 1e-10 * np.abs(fresh).max()

    check()
    assert 2 * sum(neither) > len(neither) > 0 and 2 * sum(restarts) > len(restarts) > 0
    assert all(infeasible) and infeasible


def guarded_stack(rng, d, K):
    """K DFS-shaped LPs that share c, as a forecast stacks them: a
    `random_guarded_lp` and K - 1 copies whose estimated rows move by
    relative steps from 1e-14 to 1e-1."""
    prob, m = random_guarded_lp(rng, d)
    A, b = np.repeat(prob.A[None], K, axis=0), np.repeat(prob.b[None], K, axis=0)
    steps = 10.0 ** rng.uniform(-14.0, -1.0, (K - 1, 1))
    A[1:, :m] += steps[:, :, None] * rng.normal(0.0, 1.0, (K - 1, m, d))
    b[1:, :m] += steps * rng.normal(0.0, 1.0, (K - 1, m))
    return prob.c, A, b, m


def test_stack_verdicts_match_single_solves():
    """For each LP k of a guarded stack and each start basis (the cold active
    set of the first LP, a random d-subset of the rows, the guard start),
    entry k of `verified_vertices` at band 0 holds exactly when `lp.solve`
    from that basis returns it with no pivot and no simplex, at the stack's
    point bit for bit; and every entry verified under the 1e-9 band is
    verified at band 0. This is what keeps a committed forecast exact."""
    counts = {"verified": 0, "rejected": 0, "band-only": 0}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def check(d, seed):
        rng = np.random.default_rng(seed)
        c, A, b, m = guarded_stack(rng, d, 6)
        cold = lp.solve(lp.LpProblem(c, A[0], b[0]))
        starts = [sorted(rng.choice(A.shape[1], size=d, replace=False).tolist()), _guard_start(c, m)]
        if cold.status == "optimal":
            starts.append(cold.active_set)
            # the last LP: the first with an estimated row off the cold basis moved to
            # about ACTIVE_TOL of its scale from the cold vertex, where the band decides
            off = [i for i in range(m) if i not in cold.active_set]
            if off:
                i, x = off[0], cold.point
                A[-1], b[-1] = A[0], b[0]
                scale = 1.0 + abs(b[0, i]) + np.abs(A[0, i]) @ np.abs(x)
                b[-1, i] = A[0, i] @ x + 10.0 ** rng.uniform(-8.3, -7.7) * scale
        for basis in starts:
            points, verified = lp.verified_vertices(A, b, c, basis)
            banded = lp.verified_vertices(A, b, c, basis, band=1e-9)[1]
            assert not np.any(banded & ~verified)
            for k in range(A.shape[0]):
                calls = []
                with pytest.MonkeyPatch.context() as mp:
                    for name in ("_replace_row", "_simplex"):
                        mp.setattr(lp, name, lambda *args, name=name, run=getattr(lp, name): calls.append(name) or run(*args))
                    sol = lp.solve(lp.LpProblem(c, A[k], b[k]), (basis,))
                first_try = (not calls and sol.active_set == sorted(basis)
                             and sol.point.tobytes() == points[k].tobytes())
                assert first_try == verified[k], (basis, k, calls)
                counts["verified" if verified[k] else "rejected"] += 1
                counts["band-only"] += bool(verified[k] and not banded[k])

    check()
    assert min(counts.values()) > 0, counts


def test_rank_one_update_matches_a_fresh_inverse():
    rng = np.random.default_rng(11)
    A = rng.normal(0.0, 1.0, (12, 4))
    basis = [0, 1, 2, 3]
    B_inv = np.linalg.inv(A[basis])
    for enter in range(4, 12):
        shift = A[enter] @ B_inv
        pos = int(np.argmax(np.abs(shift)))
        B_inv = lp._replace_row(B_inv, pos, shift)
        basis[pos] = enter
        fresh = np.linalg.inv(A[basis])
        assert np.abs(B_inv - fresh).max() <= 1e-12 * np.abs(fresh).max()


def grow_against_cold(c, A, b, rows, count=None):
    """Grow an `lp.Tableau` from min <c, x> over A x <= b by one row at a
    time, and check each solve against `lp.solve` of the stacked LP: the
    status, the point's bits and the signs of its zeros. `rows` is a list of
    (a, b), or a function of the last solution that gives the next row,
    called `count` times. Returns the tableau and the solutions."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A, b))
    tableau = lp.Tableau(lp.LpProblem(c, A, b))
    solutions = []
    for k in range((len(rows) if count is None else count) + 1):
        if k:
            a_k, b_k = rows[k - 1] if count is None else rows(solutions[-1])
            tableau.add_row(np.asarray(a_k, dtype=float), b_k)
            A, b = np.vstack([A, a_k]), np.append(b, b_k)
        grown, cold = tableau.solve(), lp.solve(lp.LpProblem(c, A, b))
        assert grown.status == cold.status, k
        if cold.point is None:
            assert grown.point is None, k
        else:
            assert grown.point.tobytes() == cold.point.tobytes(), k
            assert np.array_equal(np.signbit(grown.point), np.signbit(cold.point)), k
        solutions.append(grown)
    return tableau, solutions


def cutter(rng, A, b):
    """The rows a cutting-plane loop might add, as a function of the last
    solution: mostly a cut that separates its point from the inside (a x <= b
    with b > 0 just below a times that point); now and then a scaled copy of a row
    with its rhs moved by less than the 1e-12 tie band or just more, or a
    random row."""
    rows = [(a_i, b_i) for a_i, b_i in zip(A, b)]

    def next_row(sol):
        kind = rng.random()
        if kind < 0.2:
            a_i, b_i = rows[int(rng.integers(0, len(rows)))]
            scale = rng.choice([1.0, 2.0, 0.5])
            row = scale * a_i, scale * b_i + rng.choice([-2e-12, -5e-13, 0.0, 5e-13, 2e-12])
        elif kind < 0.3 or sol.point is None or not sol.point.any():
            a = rng.normal(0.0, 1.0, A.shape[1])
            row = a, float(rng.uniform(0.1, 1.0))
        else:
            point = sol.point
            a = point + rng.normal(0.0, 0.3, point.size) * np.abs(point).max()
            a /= np.linalg.norm(a)
            row = a, float(a @ point) * rng.uniform(0.7, 0.999)
        rows.append(row)
        return row

    return next_row


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 10]), st.integers(0, 2**32 - 1))
def test_grown_tableau_matches_cold_solves(d, seed):
    """Each row added to an `lp.Tableau` replays the previous solve's pivots:
    at every step it gives the status and point bits of `lp.solve` on the
    stacked LP, over cuts of the last point, near-duplicate rows within the
    tie band and sparse objectives."""
    rng = np.random.default_rng(seed)
    p = random_bounded_polytope(rng, d, 2 * d + int(rng.integers(0, 4)))
    c = rng.normal(0.0, 1.0, d)
    if rng.random() < 0.3:
        c[rng.random(d) < 0.5] = 0.0
    grow_against_cold(c, p.A, p.b, cutter(rng, p.A, p.b), count=12 if d == 10 else 20)


@pytest.mark.parametrize("shift", [0.0, 5e-13, -5e-13, 1e-12, -2e-12, 2e-12])
def test_added_row_in_a_ratio_tie(shift):
    """A row whose ratio lies within 1e-12 of the best one ties, and the older
    row stays, as the new slack has the highest index; below the band the
    new row wins the ratio test and the solve turns there."""
    box = box_polytope(2)
    for scale in (1.0, 2.0):
        rows = [(scale * np.array([1.0, 0.0]), scale * (1.0 + shift)), ([0.3, 1.0], 1.2)]
        _, solutions = grow_against_cold([-1.0, -0.5], box.A, box.b, rows)
        assert solutions[1].point[0] == (1.0 if shift >= -1e-12 else scale * (1.0 + shift) / scale)


def test_free_variable_pivots_replayed():
    """Rows that leave free variables nonbasic at the simplex's end, so the
    free-variable pivots run and are replayed, and rows that turn the solve
    among them."""
    box = box_polytope(2, 2.0)
    grow_against_cold([-1.0, -1.0], box.A, box.b, [([1.0, 1.0], 1.0), ([-1.0, 3.0], 5.0), ([0.0, 1.0], 1.5)])
    tableau, _ = grow_against_cold([0.0, 1.0], [[0.0, -1.0], [-1.0, 0.0]], [0.0, 1.0], [([1.0, -1.0], 1.0), ([1.0, 1.0], 0.5)])
    assert any(step.free is not None for step in tableau._steps)


def test_unbounded_lp_bounded_by_a_later_row():
    _, solutions = grow_against_cold(
        [-1.0, 0.0], [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0],
        [([0.0, 1.0], 0.5), ([1.0, 0.5], 2.0), ([1.0, -1.0], 1.0)],
    )
    assert [sol.status for sol in solutions] == ["unbounded", "unbounded", "optimal", "optimal"]


def test_negative_rhs_raises():
    """A Tableau starts from the all-slack basis, so a negative right-hand
    side raises, in the first LP and in an added row; a zero one does not."""
    box = box_polytope(2)
    with pytest.raises(ValueError, match="right-hand side >= 0"):
        lp.Tableau(lp.LpProblem([1.0, 0.3], box.A, np.append(box.b[:-1], -0.5)))
    tableau, _ = grow_against_cold([1.0, 0.3], box.A, box.b, [([0.5, 1.0], 1.0), ([-1.0, -1.0], 0.0)])
    with pytest.raises(ValueError, match="right-hand side >= 0"):
        tableau.add_row(np.array([-1.0, 0.0]), -0.5)


def test_long_run_outgrows_the_first_room():
    """Forty cuts on a six-row LP at d = 3: the kept tableaux and pivot rows
    grow their arrays several times over."""
    rng = np.random.default_rng(5)
    p = random_bounded_polytope(rng, 3, 6)
    _, solutions = grow_against_cold(-np.ones(3), p.A, p.b, cutter(rng, p.A, p.b), count=40)
    assert all(sol.status == "optimal" for sol in solutions)


def test_rows_added_between_solves():
    """Several rows added before a solve, after a row that turned the solve
    and before any solve at all."""
    rng = np.random.default_rng(9)
    p = random_bounded_polytope(rng, 3, 8)
    c = rng.normal(0.0, 1.0, 3)
    next_row = cutter(rng, p.A, p.b)
    tableau = lp.Tableau(lp.LpProblem(c, p.A, p.b))
    A, b, sol = p.A, p.b, lp.solve(lp.LpProblem(c, p.A, p.b))
    for batch in (2, 1, 3, 1):
        for _ in range(batch):
            a_k, b_k = next_row(sol)
            tableau.add_row(a_k, b_k)
            A, b = np.vstack([A, a_k]), np.append(b, b_k)
        sol, cold = tableau.solve(), lp.solve(lp.LpProblem(c, A, b))
        assert (sol.status, sol.point.tobytes()) == (cold.status, cold.point.tobytes())
