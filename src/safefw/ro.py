"""Estimate-then-optimize baseline: one measurement phase around a safe site,
then Frank-Wolfe over the frozen safety set.

The linear subproblem over the cone-constrained safety set is solved by
cutting planes: LP relaxations over the estimated polytope, tightened with
gradient linearizations of the most-violated cone constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .estimator import ConstraintEstimator
from .oracle import ConstraintOracle, cross_pattern
from .safety import SafetyConfig, cone_terms, fact2_check, soc_check
from .sfw import ProblemSetup, TrajectoryRecord, dfs_problem, surrogate_gap


LINMIN_TOL = 1e-7  # largest cone-constraint violation a linmin point may keep
MAX_CUTS = 200


@dataclass
class SocLinminResult:
    point: np.ndarray
    cuts: int
    warning: bool


def soc_violation(est: ConstraintEstimator, cfg: SafetyConfig, s: np.ndarray) -> float:
    """Largest cone-constraint violation of s against the current safety set."""
    verdict = soc_check(est, cfg, s)
    return verdict.lhs - verdict.min_margin


def soc_linmin(
    est: ConstraintEstimator,
    cfg: SafetyConfig,
    c: np.ndarray,
    guard: float,
    anchor: np.ndarray,
) -> SocLinminResult:
    """Approximately minimize <c, s> over the safety set by cutting planes.

    Starts from the LP relaxation over the estimated polytope (inside a guard
    box); each round adds the linearization of the most-violated cone
    constraint at the current LP solution. Stops when the worst violation is
    at most LINMIN_TOL. If the MAX_CUTS budget runs out, the final LP point is
    pulled back toward the safe anchor by bisection and flagged with
    warning=True.
    """
    if est.P is None:
        raise ValueError("design does not yet span R^(d+1)")
    c = np.asarray(c, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    d = est.d
    relaxation = dfs_problem(est, c, guard)
    rows = [relaxation.A]
    rhs = [relaxation.b]
    point = anchor.copy()
    for cut in range(MAX_CUTS + 1):
        sol = lp.solve(lp.LpProblem(c, np.vstack(rows), np.concatenate(rhs)))
        if sol.status != "optimal":
            return SocLinminResult(anchor.copy(), cut, True)
        point = sol.point
        verdict = soc_check(est, cfg, point)
        violations = verdict.lhs - verdict.margins
        worst = int(np.argmax(violations))
        if violations[worst] <= LINMIN_TOL:
            return SocLinminResult(point, cut, False)
        if cut == MAX_CUTS:
            break
        pz, norm = cone_terms(est, point)
        if norm <= 0.0:
            break  # cone term vanished; nothing differentiable to cut on
        grad_norm = pz[:d] / norm
        a_cut = est.a_hat()[:, worst] + cfg.phi_delta * grad_norm
        b_cut = (
            est.b_hat()[worst]
            - cfg.phi_delta * norm
            + cfg.phi_delta * float(grad_norm @ point)
        )
        rows.append(a_cut[None, :])
        rhs.append(np.array([b_cut]))
    # cut budget exhausted: bisect back toward the known safe anchor
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        candidate = anchor + mid * (point - anchor)
        if soc_violation(est, cfg, candidate) <= LINMIN_TOL:
            lo = mid
        else:
            hi = mid
    return SocLinminResult(anchor + lo * (point - anchor), MAX_CUTS, True)


def ro_run(
    setup: ProblemSetup,
    oracle: ConstraintOracle,
    est: ConstraintEstimator,
    scfg: SafetyConfig,
    total_measurements: int,
) -> TrajectoryRecord:
    """One-shot estimation of total_measurements around x0, then scfg.T
    Frank-Wolfe iterations over the frozen safety set."""
    obj = setup.objective
    if total_measurements < 2 * (setup.d + 1):
        raise ValueError(f"total_measurements must be at least 2(d+1) = {2 * (setup.d + 1)}")
    pattern = cross_pattern(setup.x0, scfg.omega0, total_measurements)
    value_sums = oracle.measure_repeated(pattern.points, pattern.multiplicity)
    est.absorb_repeated(pattern.points, value_sums, pattern.multiplicity)

    rec = TrajectoryRecord()
    x = setup.x0.copy()
    verdict = fact2_check(est, scfg, x)
    if not verdict.safe:
        rec.add(x, obj.value(x), est.N, verdict, est)
        rec.status = "safety-set-empty"
        return rec
    for t in range(scfg.T):
        grad = obj.gradient(x)
        res = soc_linmin(est, scfg, grad, setup.dfs_guard, setup.x0)
        gap = surrogate_gap(grad, x, res.point)
        status = "soc-warning" if res.warning else "soc-optimal"
        n_t = pattern.total if t == 0 else 0
        rec.add(x, obj.value(x), est.N, verdict, est).record_step(res.point, gap, math.nan, n_t, est.N, status)
        x = x + (res.point - x) / (t + 2)
        verdict = fact2_check(est, scfg, x)
    rec.add(x, obj.value(x), est.N, verdict, est)
    return rec
