"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria run at their stated tolerances against the reference experiment
configuration (unit box, quadratic objective with target [2, 0.5, ..., 0.5],
sigma = 0.01, omega0 = 0.01, delta = 0.1, T = 15) unless stated otherwise.
"""

import math

import numpy as np
import pytest

from safefw import lp
from safefw.estimator import ConstraintEstimator
from safefw.harness import ExperimentConfig, compare_sfw_ro, resolve, run_single
from safefw.oracle import ConstraintOracle, NoiseModel
from safefw.problem import (
    Objective,
    box_geometry_constants,
    box_polytope,
    box_quadratic_lipschitz,
)
from safefw.safety import SafetyConfig, c_delta_constant, fact2_check
from safefw.sfw import ProblemSetup, SfwConfig, run

from helpers import cone_verdict, enumerate_vertices, random_bounded_polytope, random_estimator, scatter_inverse

REFERENCE_ADAPTIVE_TOTALS = {2: 519.0, 4: 1135.0, 10: 4275.0}


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def box_config(d, **overrides):
    base = dict(
        problem={"type": "box", "d": d},
        sigma=0.01,
        omega0=0.01,
        delta=0.1,
        T=15,
        epsilon=1e-6,
        variant="adaptive",
        repetitions=20,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def adaptive_sweep():
    """20 seeded adaptive runs for each dimension in {2, 4, 10}."""
    out = {}
    for d in (2, 4, 10):
        res = resolve(box_config(d))
        runs = [run_single(res, seed) for seed in range(20)]
        out[d] = (res, runs)
    return out


@pytest.fixture(scope="module")
def zero_noise_run():
    """Deterministic zero-noise run with exact estimates, T = 50."""
    d = 2
    p = box_polytope(d)
    xp = np.array([2.0, 0.5])
    obj = Objective(xp, box_quadratic_lipschitz(d, 1.0, xp))
    geo = box_geometry_constants(d, 1.0, np.zeros(d))
    scfg = SafetyConfig(T=50, omega0=0.01, phi_delta=0.0, cn=0.0)
    oracle = ConstraintOracle(p, NoiseModel("gaussian", 0.0, 0), 0.01)
    est = ConstraintEstimator(d, 2 * d)
    setup = ProblemSetup(obj, np.zeros(d), geo)
    rec = run(setup, oracle, est, scfg, SfwConfig(epsilon=1e-12, variant="adaptive"))
    return p, geo, rec


def test_criterion_1_per_iterate_safety(adaptive_sweep):
    res, runs = adaptive_sweep[2]
    bad_runs = sum(1 for _, rep in runs if rep.iterate_violations > 0)
    fact1 = sum(rep.fact1_violations for _, rep in runs)
    report(
        1,
        "per-iterate safety",
        bad_runs <= 2 and fact1 == 0,
        f"{bad_runs}/20 runs with an infeasible iterate (expected 0), "
        f"{fact1} conservativeness violations",
    )


def test_criterion_2_dimension_independent_convergence(adaptive_sweep):
    means = {}
    for d in (2, 4, 10):
        _, runs = adaptive_sweep[d]
        means[d] = float(np.mean([rep.normalized[-1] for _, rep in runs]))
    worst = max(means.values())
    spread = worst / min(means.values())
    report(
        2,
        "dimension-independent convergence",
        worst <= 0.25 and spread <= 2.0,
        "mean normalized suboptimality at T "
        + ", ".join(f"d={d}: {means[d]:.4f}" for d in means)
        + f"; spread x{spread:.2f}",
    )


def test_criterion_3_adaptive_measurement_totals(adaptive_sweep):
    details, ok = [], True
    for d, target in REFERENCE_ADAPTIVE_TOTALS.items():
        _, runs = adaptive_sweep[d]
        mean_total = float(np.mean([rep.n_total for _, rep in runs]))
        inside = 0.2 * target <= mean_total <= 5.0 * target
        ok = ok and inside
        details.append(f"d={d}: {mean_total:.0f} vs {target:.0f} (x{mean_total / target:.2f})")
    report(3, "adaptive measurement totals", ok, "; ".join(details))


def test_criterion_4_convergence_envelope(zero_noise_run):
    _, geo, rec = zero_noise_run
    f_star = 0.5
    h0 = rec.rows[0].f - f_star
    worst_slack = -math.inf
    for t, row in enumerate(rec.rows):
        h_t = row.f - f_star
        slack = h_t * (t + 2) - (h0 + math.log(t + 2) * geo.gamma ** 2 / 2.0)
        worst_slack = max(worst_slack, slack)
    report(
        4,
        "zero-noise convergence envelope",
        len(rec.rows) == 51 and worst_slack <= 1e-6,
        f"max envelope slack {worst_slack:.3e} over t <= 50",
    )


def test_criterion_5_gap_error_bound():
    d = 2
    cfg = box_config(d, variant="prescribed", cn=24.0 * d * d, repetitions=34)
    res = resolve(cfg)
    c_delta = c_delta_constant(res.setup.geometry, res.safety, d)
    M = res.setup.objective.M
    held = total = 0
    for seed in range(cfg.repetitions):
        rec, rep = run_single(res, seed)
        for row in rec.rows[: rec.steps()]:
            grad = res.setup.objective.gradient(row.x)
            sol = lp.solve(lp.LpProblem(grad, res.polytope.A, res.polytope.b))
            g_true = float(grad @ (row.x - sol.point))
            bound = M * c_delta / math.sqrt(row.N_t)
            total += 1
            held += abs(row.ghat - g_true) <= bound
    frac = held / total
    need = (1.0 - cfg.delta / cfg.T) - 0.02
    report(
        5,
        "gap estimation error bound",
        total >= 500 and frac >= need,
        f"bound held in {held}/{total} = {frac:.4f} of iterations (need >= {need:.4f})",
    )


def test_criterion_6_block_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(d + 2, 80))
        est, _ = random_estimator(rng, d, int(rng.integers(1, 4)), n, sigma=0.3)
        xbar, R = est.block_quantities()[0], scatter_inverse(est)
        rec = np.empty((d + 1, d + 1))
        rec[:d, :d] = R
        rec[:d, d] = R @ xbar
        rec[d, :d] = R @ xbar
        rec[d, d] = 1.0 / est.N + float(xbar @ R @ xbar)
        worst = max(worst, float(np.abs(rec - est.P).max()))
    report(6, "block inversion identity", worst <= 1e-10, f"max abs reconstruction error {worst:.3e}")


def test_criterion_7_rank_one_vs_direct():
    rng = np.random.default_rng(77)
    worst = 0.0
    absorbed = 0
    while absorbed < 1000:
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(d + 2, 120))
        est, _ = random_estimator(rng, d, m, n, sigma=0.4)
        absorbed += n
        rows, ys = [], []
        for x, count, ysum in est.rows:
            v = np.append(x, -1.0)
            for _ in range(count):
                rows.append(v)
                ys.append(ysum / count)
        direct = np.linalg.lstsq(np.array(rows), np.array(ys), rcond=None)[0]
        scale = max(1.0, float(np.abs(direct).max()))
        worst = max(worst, float(np.abs(est.beta_hat - direct).max()) / scale)
    report(7, "rank-one vs direct least squares", worst <= 1e-8, f"max relative deviation {worst:.3e} over {absorbed} rows")


def test_criterion_8_scalar_test_matches_cone_form():
    rng = np.random.default_rng(88)
    cfg = SafetyConfig(T=15, omega0=0.01, phi_delta=0.5, cn=0.0)
    disagreements = 0
    boundary_pairs = 0
    checked = 0

    def check(est, x):
        nonlocal disagreements, checked
        f2 = fact2_check(est, cfg, x)
        soc = cone_verdict(est, cfg, x)
        checked += 1
        if abs(f2.lhs - f2.min_margin) > 1e-9 and f2.safe != soc.safe:
            disagreements += 1

    while boundary_pairs < 100:
        d = int(rng.integers(1, 4))
        est, _ = random_estimator(rng, d, 3, int(rng.integers(d + 2, 40)), sigma=0.2)
        xbar, _ = est.block_quantities()
        u = rng.normal(0, 1, d)
        u /= np.linalg.norm(u)
        gap = lambda a: (lambda v: v.lhs - v.min_margin)(fact2_check(est, cfg, xbar + a * u))
        lo, hi = 0.0, 1.0
        while gap(hi) < 0 and hi < 64:
            hi *= 2.0
        if not gap(lo) < 0 < gap(hi):
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        check(est, xbar + (lo - 1e-6) * u)
        check(est, xbar + (hi + 1e-6) * u)
        boundary_pairs += 1

    while checked < 1000:
        d = int(rng.integers(1, 4))
        est, _ = random_estimator(rng, d, 3, int(rng.integers(d + 2, 40)), sigma=0.2)
        xbar, _ = est.block_quantities()
        check(est, xbar + rng.normal(0, 1.0, d))
    report(
        8,
        "scalar test vs cone form",
        disagreements == 0 and boundary_pairs >= 100,
        f"{checked} pairs ({boundary_pairs} at the boundary), {disagreements} disagreements",
    )


def test_criterion_9_lp_correctness():
    rng = np.random.default_rng(99)
    worst_value = 0.0
    worst_feas = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2 * d, 13))
        p = random_bounded_polytope(rng, d, m)
        c = rng.normal(0, 1, d)
        prob = lp.LpProblem(c, p.A, p.b)
        sol = lp.solve(prob)
        assert sol.status == "optimal"
        worst_feas = max(worst_feas, float(np.max(p.A @ sol.point - p.b)))
        best = min(float(c @ v) for v in enumerate_vertices(prob))
        worst_value = max(worst_value, abs(float(c @ sol.point) - best))
    report(
        9,
        "simplex vs vertex enumeration",
        worst_value <= 1e-8 and worst_feas <= 1e-9,
        f"max value gap {worst_value:.3e}, max feasibility slack {worst_feas:.3e} over 200 instances",
    )


def test_criterion_10_sfw_beats_ro(tmp_path):
    cfg = box_config(2, sigma=0.1, repetitions=20, out_dir=str(tmp_path / "cmp"))
    result = compare_sfw_ro(cfg)
    report(
        10,
        "paired comparison with the one-shot baseline",
        result.sfw_wins >= 15,
        f"sfw better in {result.sfw_wins}/20 paired seeds "
        f"(mean final: sfw {np.mean(result.sfw_final):.4f}, baseline {np.mean(result.ro_final):.4f})",
    )


def test_criterion_11_margin_decay(zero_noise_run):
    p, geo, rec = zero_noise_run
    worst = math.inf
    ok = True
    for t, row in enumerate(rec.rows):
        slack = float(np.min(p.margins(row.x))) - (geo.eps0 / (t + 2) - 1e-9)
        worst = min(worst, slack)
        ok = ok and slack >= 0.0
    report(11, "zero-noise margin decay", ok, f"min slack above eps0/(t+2) is {worst:.3e}")
