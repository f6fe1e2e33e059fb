"""Driver behavior: gap arithmetic, schedules, zero-noise equivalence with
classical Frank-Wolfe, margin decay, stopping, and the adaptive loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from safefw import lp
from safefw.estimator import ConstraintEstimator
from safefw.oracle import NOISE_KINDS, ConstraintOracle, NoiseModel
from safefw.problem import (
    Objective,
    box_geometry_constants,
    box_polytope,
    box_quadratic_lipschitz,
)
from safefw.safety import make_safety_config, nt_schedule
from safefw.sfw import (
    ProblemSetup,
    SfwConfig,
    _guard_start,
    et_bound,
    run,
    run_fw_reference,
    surrogate_gap,
)

from helpers import neither_feasible, run_adaptive_reference


def box_setup(d=2, x_prime=None, sigma=0.01, seed=0, omega0=0.01, T=15, cn=0.0, kind="gaussian"):
    p = box_polytope(d)
    xp = np.array([2.0] + [0.5] * (d - 1)) if x_prime is None else np.asarray(x_prime, float)
    obj = Objective(xp, box_quadratic_lipschitz(d, 1.0, xp))
    x0 = np.zeros(d)
    geo = box_geometry_constants(d, 1.0, x0)
    scfg = replace(make_safety_config(delta=0.1, T=T, m=2 * d, d=d, sigma=sigma, omega0=omega0), cn=cn)
    oracle = ConstraintOracle(p, NoiseModel(kind, sigma, seed), omega0)
    est = ConstraintEstimator(d, 2 * d)
    return p, ProblemSetup(obj, x0, geo), oracle, est, scfg


def test_surrogate_gap_basics():
    assert surrogate_gap(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 0.0
    # gradient at the origin for target [2, 0.5], direction vertex (1, 1)
    assert surrogate_gap(np.array([-2.0, -0.5]), np.zeros(2), np.array([1.0, 1.0])) == pytest.approx(2.5)


def test_gap_upper_bounds_suboptimality_zero_noise():
    p, setup, oracle, est, scfg = box_setup(sigma=0.0)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive"))
    f_star = 0.5
    for row in rec.rows[: rec.steps()]:
        grad = setup.objective.gradient(row.x)
        true_sol = lp.solve(lp.LpProblem(grad, p.A, p.b))
        true_gap = surrogate_gap(grad, row.x, true_sol.point)
        assert row.f - f_star <= true_gap + 1e-9


def test_et_bound_scalings():
    _, setup, _, _, scfg = box_setup(sigma=0.01)
    geo = setup.geometry
    n0 = 10**6
    b1 = et_bound(scfg, geo, M=2.0, N=n0, d=2)
    b2 = et_bound(scfg, geo, M=2.0, N=4 * n0, d=2)
    assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)
    # below the validity threshold the bound degenerates to +inf
    assert et_bound(scfg, geo, M=2.0, N=10, d=2) == math.inf


def test_et_bound_zero_uncertainty():
    _, setup, _, _, scfg = box_setup(sigma=0.0)
    assert scfg.phi_delta == 0.0
    assert et_bound(scfg, setup.geometry, M=2.0, N=5, d=2) == 0.0


def test_zero_noise_matches_classical_fw():
    # off-axis target so the direction LP has no ties
    for variant, cn in (("adaptive", 0.0), ("prescribed", 1.0)):
        p, setup, oracle, est, scfg = box_setup(sigma=0.0, x_prime=[2.0, 0.37], cn=cn)
        rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant=variant))
        ref = run_fw_reference(p, setup.objective, setup.x0, 15)
        assert rec.status == "completed"
        assert len(rec.rows) == len(ref.rows)
        for a, b in zip(rec.rows, ref.rows):
            assert np.linalg.norm(a.x - b.x) <= 1e-9


def test_zero_noise_margin_decay():
    p, setup, oracle, est, scfg = box_setup(sigma=0.0)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive"))
    for t, row in enumerate(rec.rows):
        assert float(np.min(p.margins(row.x))) >= 1.0 / (t + 2) - 1e-9


def test_stop_immediately_with_infinite_target():
    for variant, cn in (("adaptive", 0.0), ("prescribed", 96.0)):
        _, setup, oracle, est, scfg = box_setup(sigma=0.01, cn=cn)
        rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=math.inf, variant=variant))
        assert rec.status == "stopped-early"
        assert len(rec.rows) == 1


def test_prescribed_total_matches_schedule_arithmetic():
    d = 2
    _, setup, oracle, est, scfg = box_setup(sigma=0.01, cn=96.0)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="prescribed"))
    expected = sum(
        2 * d * math.ceil(max(nt_schedule(96.0, t), 2 * d) / (2 * d)) for t in range(15)
    )
    assert rec.total_measurements == expected
    assert rec.rows[-1].N_t == expected
    assert rec.status == "completed"


def test_prescribed_requires_positive_cn():
    _, setup, oracle, est, scfg = box_setup(sigma=0.01, cn=0.0)
    with pytest.raises(ValueError):
        run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="prescribed"))


def test_step_recurrence_exact():
    _, setup, oracle, est, scfg = box_setup(sigma=0.01, seed=5)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive"))
    for t, (row, nxt) in enumerate(zip(rec.rows, rec.rows[1:])):
        gamma = 1.0 / (t + 2)
        drift = nxt.x - row.x - gamma * (row.s_hat - row.x)
        assert np.linalg.norm(drift) <= 1e-12


def test_adaptive_zero_noise_needs_no_extras():
    _, setup, oracle, est, scfg = box_setup(sigma=0.0)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive"))
    assert sum(rec.extra_batches) == 0


def test_adaptive_budget_exhaustion():
    _, setup, oracle, est, scfg = box_setup(sigma=0.01, seed=2)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive", max_total_measurements=20))
    assert rec.status == "budget-exhausted"
    assert rec.total_measurements <= 20 + 2 * 2  # at most one cross past the line


def test_measurement_counts_strictly_increase():
    _, setup, oracle, est, scfg = box_setup(sigma=0.01, seed=9)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive"))
    stepped = rec.rows[: rec.steps()]
    assert all(a.N_t < b.N_t for a, b in zip(stepped, stepped[1:]))
    assert all(row.n_t > 0 for row in stepped)


def test_safety_verdicts_recorded_per_iterate():
    _, setup, oracle, est, scfg = box_setup(sigma=0.01, seed=11)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-9, variant="adaptive"))
    assert all(row.verdict.safe is True for row in rec.rows)
    assert all(row.verdict.lhs <= row.verdict.min_margin for row in rec.rows)


def test_config_validation():
    with pytest.raises(ValueError):
        SfwConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SfwConfig(epsilon=1.0, variant="bogus")


# (d, sigma, noise kind, seed, measurement budget): a few hundred extra
# batches per run, and the budget runs end with "budget-exhausted"
EQUIVALENCE_RUNS = [
    (d, sigma, kind, seed, 10_000_000) for d, sigma in ((2, 0.05), (5, 0.015)) for kind in NOISE_KINDS for seed in range(10)
] + [(2, 0.1, kind, seed, 3000) for kind in NOISE_KINDS for seed in range(5)]


def test_fast_forward_matches_one_cross_per_pass(monkeypatch):
    """The adaptive driver, which absorbs runs of certainly-unsafe passes in
    one block, gives the totals, per-row extras, status, DFS statuses and
    out-of-reach count of the reference that absorbs one cross per pass, and
    every f within 1e-9, over 50 runs: d = 2 and 5, both noise kinds, and a
    budget of 3000 measurements that runs out."""
    peeks = []
    lookahead = ConstraintOracle.lookahead
    monkeypatch.setattr(ConstraintOracle, "lookahead", lambda self, pts, count: peeks.append(count) or lookahead(self, pts, count))
    statuses = set()
    for d, sigma, kind, seed, budget in EQUIVALENCE_RUNS:
        cfg = SfwConfig(epsilon=1e-6, variant="adaptive", max_total_measurements=budget)
        _, setup, oracle, est, scfg = box_setup(d=d, sigma=sigma, seed=seed, kind=kind)
        fast = run(setup, oracle, est, scfg, cfg)
        _, setup, ref_oracle, ref_est, scfg = box_setup(d=d, sigma=sigma, seed=seed, kind=kind)
        ref = run_adaptive_reference(setup, ref_oracle, ref_est, scfg, cfg)
        case = (d, sigma, kind, seed, budget)
        assert fast.total_measurements == ref.total_measurements, case
        assert fast.extra_batches == ref.extra_batches, case
        assert (fast.status, fast.dfs_status) == (ref.status, ref.dfs_status), case
        assert oracle.out_of_reach_events == ref_oracle.out_of_reach_events, case
        assert len(fast.rows) == len(ref.rows), case
        assert max(abs(a.f - b.f) for a, b in zip(fast.rows, ref.rows)) <= 1e-9, case
        statuses.add(fast.status)
    assert "budget-exhausted" in statuses and "completed" in statuses
    assert sum(peeks) >= 10 * len(peeks) > 0  # blocks were predicted, most of them long


def test_committed_blocks_are_not_measured_again(monkeypatch):
    """A committed block calls measure_repeated no times and absorb_repeated
    once: over adaptive runs at d = 5, measure_repeated is called once per
    warm-up and once per pass that is not part of a committed block, and
    absorb_repeated once more per committed block."""
    calls = {"measure": 0, "absorb": 0}
    committed = []
    measure, absorb, commit = ConstraintOracle.measure_repeated, ConstraintEstimator.absorb_repeated, ConstraintOracle.commit

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ConstraintOracle, "measure_repeated", counted("measure", measure))
    monkeypatch.setattr(ConstraintEstimator, "absorb_repeated", counted("absorb", absorb))
    monkeypatch.setattr(ConstraintOracle, "commit", lambda self, pts, count: committed.append(count) or commit(self, pts, count))
    warm_ups = extras = 0
    for seed in range(3):
        _, setup, oracle, est, scfg = box_setup(d=5, sigma=0.015, seed=seed)
        rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-6, variant="adaptive"))
        warm_ups += rec.steps()
        extras += sum(rec.extra_batches)
    assert 2 * sum(committed) > extras  # most extra crosses were committed in blocks
    assert calls["measure"] == warm_ups + extras - sum(committed)
    assert calls["absorb"] == calls["measure"] + len(committed)


def test_dfs_restart_is_invisible_to_the_driver(monkeypatch):
    """The DFS pivot loop (rank-one restarts from the previous basis, then
    from the guard vertex where that basis gives no verdict, and a dual
    simplex from the guard vertex for the first solve) gives the adaptive
    runs of the rule it replaced (a verified first start, else a cold
    solve): the same totals, per-row extras, statuses, DFS statuses and
    out-of-reach count, and every f within 1e-9, over 32 runs at d = 2 and 5
    with both noise kinds, while the simplex serves no DFS solve."""
    simplex_runs = []
    simplex, solve = lp._simplex, lp.solve
    monkeypatch.setattr(lp, "_simplex", lambda *args: simplex_runs.append(1) or simplex(*args))

    def verified_or_cold(p, starts=()):
        if starts:
            x, ok = lp.verified_vertices(p.A[None], p.b[None], p.c, starts[0])
            if ok[0]:
                return lp.LpSolution(x[0], "optimal", sorted(starts[0]))
        return solve(p)

    cfg = SfwConfig(epsilon=1e-6, variant="adaptive")
    simplex_in_ref = simplex_in_restarted = 0
    for d, sigma in ((2, 0.05), (5, 0.015)):
        for kind in NOISE_KINDS:
            for seed in range(8):
                before = len(simplex_runs)
                _, setup, oracle, est, scfg = box_setup(d=d, sigma=sigma, seed=seed, kind=kind)
                restarted = run(setup, oracle, est, scfg, cfg)
                simplex_in_restarted += len(simplex_runs) - before
                with monkeypatch.context() as patch:
                    patch.setattr(lp, "solve", verified_or_cold)
                    before = len(simplex_runs)
                    _, setup, ref_oracle, ref_est, scfg = box_setup(d=d, sigma=sigma, seed=seed, kind=kind)
                    ref = run(setup, ref_oracle, ref_est, scfg, cfg)
                    simplex_in_ref += len(simplex_runs) - before
                case = (d, sigma, kind, seed)
                assert restarted.total_measurements == ref.total_measurements, case
                assert restarted.extra_batches == ref.extra_batches, case
                assert (restarted.status, restarted.dfs_status) == (ref.status, ref.dfs_status), case
                assert oracle.out_of_reach_events == ref_oracle.out_of_reach_events, case
                assert len(restarted.rows) == len(ref.rows), case
                assert max(abs(a.f - b.f) for a, b in zip(restarted.rows, ref.rows)) <= 1e-9, case
    assert simplex_in_restarted == 0 < simplex_in_ref


def test_every_warm_dfs_solve_starts_once_from_its_basis(monkeypatch):
    """Each DFS solve enters `lp.solve` once. The first of an adaptive run
    starts from the guard vertex; every later one starts from the previous
    solve's active set and then the guard vertex, which takes over where
    that basis is neither primal nor dual feasible. No DFS solve reaches the
    simplex: on d = 5 box seeds and on the adaptive-d20 config (d = 20,
    sigma = 0.01, 150,000 measurements)."""
    solves, simplex_runs = [], []
    solve, simplex = lp.solve, lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: simplex_runs.append(1) or simplex(*args))

    def traced(p, starts=()):
        sol = solve(p, starts)
        solves.append({"guard": _guard_start(p.c, p.A.shape[0] - 2 * p.c.size), "starts": [list(s) for s in starts],
                       "neither": neither_feasible(p, starts[0]), "active": sol.active_set})
        return sol

    monkeypatch.setattr(lp, "solve", traced)
    neither = []
    for d, sigma, budget, seeds in ((5, 0.015, 10_000_000, range(4)), (20, 0.01, 150_000, range(2))):
        for seed in seeds:
            solves.clear()
            _, setup, oracle, est, scfg = box_setup(d=d, sigma=sigma, seed=seed)
            run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-6, variant="adaptive", max_total_measurements=budget))
            assert solves[0]["starts"] == [solves[0]["guard"]]
            for before, after in zip(solves, solves[1:]):
                assert after["starts"] == [before["active"], after["guard"]], (d, seed)
            neither += [after["neither"] for after in solves[1:]]
    assert not simplex_runs and any(neither)


def test_no_adaptive_dfs_solve_reaches_the_simplex_at_large_d(monkeypatch):
    """On adaptive boxes at sigma = omega0 = 0.01, d = 40, 60 and 100, seeds
    0-3, every DFS solve gets its verdict from the pivot loop: the simplex
    runs for none. Each budget reaches, at every d, solves that need more
    pivots than the LP has rows or start from a basis that is neither primal
    nor dual feasible."""
    simplex_runs = []
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: simplex_runs.append(1) or simplex(*args))
    for d, budget in ((40, 5_000), (60, 5_000), (100, 2_000)):
        for seed in range(4):
            _, setup, oracle, est, scfg = box_setup(d=d, sigma=0.01, seed=seed)
            rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-6, variant="adaptive", max_total_measurements=budget))
            assert rec.status == "budget-exhausted" and not simplex_runs, (d, seed)
