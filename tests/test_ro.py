"""Estimate-then-optimize baseline: cutting-plane linear minimization over the
cone-constrained safety set, and the full baseline run."""

import json
from pathlib import Path

import numpy as np
import pytest

from safefw import lp
from safefw.estimator import ConstraintEstimator
from safefw.harness import ExperimentConfig, resolve, run_single
from safefw.oracle import ConstraintOracle, NoiseModel
from safefw.problem import (
    Objective,
    Polytope,
    box_geometry_constants,
    box_polytope,
    box_quadratic_lipschitz,
)
from safefw.ro import MAX_CUTS, ro_run, soc_linmin
from safefw.safety import SafetyConfig, make_safety_config
from safefw.sfw import ProblemSetup, run_fw_reference

from helpers import cone_violation, cross_fed_estimator, soc_linmin_cold, soc_linmin_reference


def setup_d2(sigma, seed=0, omega0=0.05, phi_delta=None):
    p = box_polytope(2)
    xp = np.array([2.0, 0.5])
    obj = Objective(xp, box_quadratic_lipschitz(2, 1.0, xp))
    geo = box_geometry_constants(2, 1.0, np.zeros(2))
    if phi_delta is None:
        scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=sigma, omega0=omega0)
    else:
        scfg = SafetyConfig(T=15, omega0=omega0, phi_delta=phi_delta, cn=0.0)
    oracle = ConstraintOracle(p, NoiseModel("gaussian", sigma, seed), omega0)
    est = ConstraintEstimator(2, 4)
    return p, ProblemSetup(obj, np.zeros(2), geo), oracle, est, scfg


def estimated_state(sigma, seed, omega0=0.05):
    rng = np.random.default_rng(seed)
    p = box_polytope(2)
    centers = [np.zeros(2), rng.uniform(-0.4, 0.4, 2)]
    est, _ = cross_fed_estimator(p, sigma, seed, omega0, centers, [40, 40])
    return est


SHIFTED_BOX = Path(__file__).resolve().parents[1] / "configs" / "shifted_box_d2_adaptive.json"


def shifted_box_state(sigma, seed, omega0=0.05):
    """The box [2, 4]^2, which excludes the origin, and an estimator fed
    crosses at its centre x0 = [3, 3] and at a point near it; returns the
    estimator and x0."""
    rng = np.random.default_rng(seed)
    p = Polytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([4.0, 4.0, -2.0, -2.0]))
    x0 = np.full(2, 3.0)
    est, _ = cross_fed_estimator(p, sigma, seed, omega0, [x0, x0 + rng.uniform(-0.4, 0.4, 2)], [40, 40])
    return est, x0


def test_zero_radius_reduces_to_lp():
    est = estimated_state(0.0, 1)
    scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=0.0, omega0=0.05)
    c = np.array([-1.0, -0.3])
    res = soc_linmin(est, scfg, c, guard=14.0, anchor=np.zeros(2))
    eye = np.eye(2)
    ref = lp.solve(lp.LpProblem(c, np.vstack([est.a_hat().T, eye, -eye]),
                                np.concatenate([est.b_hat(), np.full(4, 14.0)])))
    assert not res.warning
    assert c @ res.point == pytest.approx(c @ ref.point, abs=1e-10)


def test_value_dominates_lp_relaxation():
    est = estimated_state(0.1, 2)
    scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=0.1, omega0=0.05)
    c = np.array([-1.0, 0.4])
    res = soc_linmin(est, scfg, c, guard=14.0, anchor=np.zeros(2))
    eye = np.eye(2)
    ref = lp.solve(lp.LpProblem(c, np.vstack([est.a_hat().T, eye, -eye]),
                                np.concatenate([est.b_hat(), np.full(4, 14.0)])))
    assert c @ res.point >= c @ ref.point - 1e-9  # the cone set sits inside the estimated polytope


def test_outputs_pass_cone_test_and_cuts_monotone(monkeypatch):
    lp_values = []
    real_solve = lp.Tableau.solve

    def recording_solve(tableau):
        sol = real_solve(tableau)
        lp_values.append(float(tableau.c @ sol.point))
        return sol

    monkeypatch.setattr(lp.Tableau, "solve", recording_solve)
    rng = np.random.default_rng(3)
    scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=0.1, omega0=0.05)
    for seed in range(5):
        est = estimated_state(0.1, 10 + seed)
        c = rng.normal(0, 1, 2)
        lp_values.clear()
        res = soc_linmin(est, scfg, c, guard=14.0, anchor=np.zeros(2))
        assert not res.warning
        assert cone_violation(est, scfg, res.point) <= 1e-7
        assert len(lp_values) == res.cuts + 1
        assert np.all(np.diff(lp_values) >= -1e-9)


def assert_same_linmin(res, ref):
    assert res.point.tobytes() == ref.point.tobytes()
    assert (res.cuts, res.warning) == (ref.cuts, ref.warning)


def test_cut_loop_matches_cold_solves_bit_for_bit():
    """Each cut LP is the previous one grown by a row, solved by replaying its
    pivots; the loop gives the point, cut count and warning of solving every
    cut LP cold, on the estimators of these tests."""
    rng = np.random.default_rng(7)
    for sigma, seeds in ((0.0, (1,)), (0.1, (2, 10, 11, 12, 13, 14, 20, 21, 22, 23))):
        scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=sigma, omega0=0.05)
        for seed in seeds:
            est = estimated_state(sigma, seed)
            for c in rng.normal(0, 1, (4, 2)):
                args = (est, scfg, c, 14.0, np.zeros(2))
                assert_same_linmin(soc_linmin(*args), soc_linmin_cold(*args))


def test_cut_loop_matches_cold_solves_through_the_cut_budget():
    """At d = 10 the loop runs out of its MAX_CUTS cuts and bisects toward the
    anchor; it still matches the loop that solves each cut LP cold."""
    est, _ = cross_fed_estimator(box_polytope(10), 0.01, 0, 0.01, [np.zeros(10)], [6000])
    scfg = make_safety_config(delta=0.1, T=15, m=20, d=10, sigma=0.01, omega0=0.01)
    c = np.random.default_rng(0).normal(0, 1, (3, 10))[2]
    args = (est, scfg, c, 14.0, np.zeros(10))
    res = soc_linmin(*args)
    assert res.warning and res.cuts == MAX_CUTS
    assert_same_linmin(res, soc_linmin_cold(*args))


def test_cut_loop_anchored_off_the_origin():
    """On the box [2, 4]^2 the cut LPs, anchored at x0 = [3, 3], give the
    point, cut count and warning of solving each cut LP cold, bit for bit,
    and the value of the independent reference."""
    rng = np.random.default_rng(8)
    for sigma, seeds in ((0.0, (1,)), (0.1, (30, 31, 32, 33))):
        scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=sigma, omega0=0.05)
        for seed in seeds:
            est, x0 = shifted_box_state(sigma, seed)
            for c in rng.normal(0, 1, (3, 2)):
                args = (est, scfg, c, 14.0, x0)
                res = soc_linmin(*args)
                assert not res.warning
                assert_same_linmin(res, soc_linmin_cold(*args))
                assert abs(c @ res.point - soc_linmin_reference(est, scfg, c, x0)) <= 1e-4


def test_ro_run_off_the_origin_hands_the_tableau_no_negative_rhs(monkeypatch):
    """RO on the shipped config's box [2, 4]^2, whose rows -s_i <= -2 have a
    negative right-hand side in raw coordinates: every right-hand side handed
    to a `lp.Tableau`, of a relaxation or of a cut, is >= 0."""
    firsts, cuts = [], []
    real_init, real_add_row = lp.Tableau.__init__, lp.Tableau.add_row

    def recording_init(tableau, p):
        firsts.extend(p.b.tolist())
        real_init(tableau, p)

    def recording_add_row(tableau, a, b):
        cuts.append(b)
        real_add_row(tableau, a, b)

    monkeypatch.setattr(lp.Tableau, "__init__", recording_init)
    monkeypatch.setattr(lp.Tableau, "add_row", recording_add_row)
    res = resolve(ExperimentConfig.from_dict(json.loads(SHIFTED_BOX.read_text())))
    assert (res.polytope.b < 0).any()
    for seed in range(3):
        rec, rep = run_single(res, seed, variant="ro", ro_budget=4000)
        assert rec.status == "completed" and rep.iterate_violations == 0
    assert firsts and cuts
    assert min(firsts) >= 0.0 and min(cuts) >= 0.0


def test_agrees_with_independent_reference():
    rng = np.random.default_rng(4)
    scfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=0.1, omega0=0.05)
    for seed in range(4):
        est = estimated_state(0.1, 20 + seed)
        c = rng.normal(0, 1, 2)
        res = soc_linmin(est, scfg, c, guard=14.0, anchor=np.zeros(2))
        ref = soc_linmin_reference(est, scfg, c, np.zeros(2))
        assert abs(c @ res.point - ref) <= 1e-4


def test_zero_noise_run_matches_classical_fw():
    p, setup, oracle, est, scfg = setup_d2(sigma=0.0)
    rec = ro_run(setup, oracle, est, scfg, 40)
    ref = run_fw_reference(p, setup.objective, setup.x0, 15)
    assert rec.status == "completed"
    for a, b in zip(rec.rows, ref.rows):
        assert np.linalg.norm(a.x - b.x) <= 1e-8


def test_run_iterates_stay_in_safety_set():
    p, setup, oracle, est, scfg = setup_d2(sigma=0.1, seed=5, omega0=0.01)
    rec = ro_run(setup, oracle, est, scfg, 4000)
    assert rec.status == "completed"
    for row in rec.rows:
        assert cone_violation(est, scfg, row.x) <= 1e-6
    assert all(p.contains(row.x) for row in rec.rows)
    assert rec.total_measurements >= 4000


def test_small_budget_hurts_final_value():
    finals = {}
    for budget in (6, 2000):
        gaps = []
        for seed in range(6):
            p, setup, oracle, est, scfg = setup_d2(sigma=0.1, seed=seed, omega0=0.01)
            rec = ro_run(setup, oracle, est, scfg, budget)
            gaps.append(rec.rows[-1].f - 0.5)
        finals[budget] = float(np.mean(gaps))
    assert finals[6] >= finals[2000] - 1e-9


def test_empty_safety_set_is_reported():
    p, setup, oracle, est, scfg = setup_d2(sigma=0.1, seed=6, omega0=0.01, phi_delta=1e6)
    rec = ro_run(setup, oracle, est, scfg, 100)
    assert rec.status == "safety-set-empty"
    assert len(rec.rows) == 1


def test_budget_validation():
    p, setup, oracle, est, scfg = setup_d2(sigma=0.1)
    with pytest.raises(ValueError):
        ro_run(setup, oracle, est, scfg, 4)
