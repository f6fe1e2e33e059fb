"""Estimate-then-optimize baseline: one measurement phase around a safe site,
then Frank-Wolfe over the frozen safety set.

The linear subproblem over the safety set, in its second-order-cone form, is
solved by cutting planes: LP relaxations over the estimated polytope,
tightened with gradient linearizations of the most-violated cone constraint.
The iterates themselves get fact2_check's verdict, as in the other variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp, sfw
from .estimator import ConstraintEstimator
from .oracle import ConstraintOracle, cross_pattern
from .safety import SafetyConfig, cone_terms, fact2_check, margins
from .sfw import ProblemSetup, TrajectoryRecord, dfs_problem


LINMIN_TOL = 1e-7  # largest cone-constraint violation a linmin point may keep
MAX_CUTS = 200


@dataclass
class SocLinminResult:
    """A linear step over the safety set: the point, the cutting planes taken,
    and whether the cut budget ran out before the point met LINMIN_TOL."""

    point: np.ndarray
    cuts: int
    warning: bool


def _cone_violations(est: ConstraintEstimator, cfg: SafetyConfig, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Each cone constraint's violation phi ||Sigma^(1/2) [s; -1]|| - margin at s,
    with P z and its norm, the terms of a cut there."""
    pz, norm = cone_terms(est, s)
    return cfg.phi_delta * norm - margins(est, s), pz, norm


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
    constraint at the current LP solution as a row of one `lp.Tableau`, which
    solves the grown LP from the previous round's pivots. The LPs are in
    y = s - anchor, for an anchor in the safety set (RO's x0), so every
    right-hand side is >= 0 as the Tableau requires: a cut supports the
    convex set and holds at the anchor (one that rounding takes below 0 is
    raised to 0). Stops when the worst violation is at most LINMIN_TOL. If
    the MAX_CUTS budget runs out, the final LP point is pulled back toward the
    anchor by bisection and flagged with warning=True.
    """
    if est.P is None:
        raise ValueError("design does not yet span R^(d+1)")
    c = np.asarray(c, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    d = est.d
    relaxation = dfs_problem(est, c, guard)
    tableau = lp.Tableau(lp.LpProblem(c, relaxation.A, relaxation.b - relaxation.A @ anchor))
    for cut in range(MAX_CUTS + 1):
        point = tableau.solve().point + anchor  # the guard box bounds the LP and y = 0 is feasible
        violations, pz, norm = _cone_violations(est, cfg, point)
        worst = int(np.argmax(violations))
        if violations[worst] <= LINMIN_TOL:
            return SocLinminResult(point, cut, False)
        if cut == MAX_CUTS:
            break
        if norm <= 0.0:
            break  # cone term vanished; nothing differentiable to cut on
        grad_norm = pz[:d] / norm
        a_cut = est.a_hat()[:, worst] + cfg.phi_delta * grad_norm
        b_cut = est.b_hat()[worst] - cfg.phi_delta * norm + cfg.phi_delta * float(grad_norm @ point)
        tableau.add_row(a_cut, max(b_cut - float(a_cut @ anchor), 0.0))
    # cut budget exhausted: bisect back toward the known safe anchor
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        candidate = anchor + mid * (point - anchor)
        if _cone_violations(est, cfg, candidate)[0].max() <= LINMIN_TOL:
            lo = mid
        else:
            hi = mid
    return SocLinminResult(anchor + lo * (point - anchor), MAX_CUTS, True)


@dataclass
class _EstimateThenOptimize(sfw._Estimated):
    """The one-shot estimate of `total` measurements around x0 at t = 0, and
    soc_linmin over the frozen safety set as the linear step. A run whose
    safety set does not hold x0 ends there with `safety-set-empty`."""

    total: int
    et = math.nan  # no stop rule, so no bound on the gap error

    def annotate(self, row: sfw.IterationRow) -> None:  # through this module's fact2_check, which bench/ traces
        row.record_verdict(fact2_check(self.est, self.scfg, row.x), self.est)

    def step(self, t, row, grad, gamma, stop):
        if t == 0:
            pattern = cross_pattern(row.x, self.scfg.omega0, self.total)
            value_sums = self.oracle.measure_repeated(pattern.points, pattern.multiplicity)
            self.est.absorb_repeated(pattern.points, value_sums, pattern.multiplicity)
        self.annotate(row)
        if t == 0 and not row.verdict.safe:
            return None, None, "safety-set-empty"
        res = soc_linmin(self.est, self.scfg, grad, self.setup.dfs_guard, self.setup.x0)
        return res.point, "soc-warning" if res.warning else "soc-optimal", None


def ro_run(
    setup: ProblemSetup,
    oracle: ConstraintOracle,
    est: ConstraintEstimator,
    scfg: SafetyConfig,
    total_measurements: int,
) -> TrajectoryRecord:
    """One-shot estimation of total_measurements around x0, then scfg.T
    Frank-Wolfe iterations over the frozen safety set."""
    if total_measurements < 2 * (setup.d + 1):
        raise ValueError(f"total_measurements must be at least 2(d+1) = {2 * (setup.d + 1)}")
    policy = _EstimateThenOptimize(setup, oracle, est, scfg, total_measurements)
    return sfw._drive(setup.objective, setup.x0, scfg.T, policy)
