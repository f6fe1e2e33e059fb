"""Feasible Frank-Wolfe driver over a polytope learned from noisy measurements.

Each iteration measures around the current point, refreshes the least-squares
constraint estimates, solves the estimated direction-finding LP, and steps
with gamma_t = 1/(t+2). The prescribed variant takes the scheduled counts and
asserts safety; the adaptive variant keeps measuring until the stepped
candidate passes the scalar safety test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .estimator import ConstraintEstimator
from .oracle import ConstraintOracle, CrossPattern, cross_pattern
from .problem import GeometryConstants, Objective, Polytope
from .safety import SafetyConfig, SafetyVerdict, c_delta_constant, fact2_check, nt_schedule, unsafe_ahead

VARIANTS = ("prescribed", "adaptive")

# Lookahead blocks of the adaptive loop, in crosses: the first of an iteration,
# the least after a short block, the most; at most 2^21 peeked values (16 MB),
# which also keeps a block's measurement in one noise draw.
AHEAD_START, AHEAD_MIN, AHEAD_MAX, AHEAD_MAX_VALUES = 8, 4, 4096, 1 << 21
TIE_BAND = 1e-9  # relative guard band of every predicted test: near ties are left to the loop


@dataclass
class SfwConfig:
    """How a run steps; its iteration budget T is the SafetyConfig's, which
    splits delta over exactly those T iterations."""

    epsilon: float
    variant: str = "prescribed"
    max_total_measurements: int = 10_000_000

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class ProblemSetup:
    """What the driver is allowed to see: objective, start, and geometry.

    The true constraint matrix stays behind the oracle.
    """

    objective: Objective
    x0: np.ndarray
    geometry: GeometryConstants

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)

    @property
    def d(self) -> int:
        return self.x0.size

    @property
    def dfs_guard(self) -> float:
        return 10.0 * self.geometry.gamma0


@dataclass
class IterationRow:
    """One iterate of a run and the Frank-Wolfe step taken from it.

    An iterate that takes no step (the last one, unless the run stopped
    early) keeps the step defaults: no s_hat, ghat = et = nan, n_t = 0, and
    N_t is the run total. feasible is filled by the harness against ground
    truth; the driver never sees the true constraints.
    """

    x: np.ndarray
    f: float
    verdict: SafetyVerdict | None = None
    snapshot: tuple[np.ndarray, np.ndarray] | None = None  # (beta_hat, xtx) behind the verdict
    s_hat: np.ndarray | None = None
    ghat: float = math.nan
    et: float = math.nan
    n_t: int = 0
    N_t: int = 0
    dfs_status: str | None = None
    extras: int = 0
    feasible: bool | None = None

    def record_step(self, s_hat, ghat: float, et: float, n_t: int, N_t: int, dfs_status: str, extras: int = 0):
        """Record the step taken from this iterate: direction, gap and bound, measurements."""
        self.s_hat = np.asarray(s_hat, dtype=float).copy()
        self.ghat, self.et, self.n_t, self.N_t = ghat, et, n_t, N_t
        self.dfs_status, self.extras = dfs_status, extras


def _snapshot(est: ConstraintEstimator) -> tuple[np.ndarray, np.ndarray]:
    return est.beta_hat.copy(), est.xtx()


@dataclass
class TrajectoryRecord:
    """Per-iterate history of a run: one IterationRow per iterate."""

    rows: list[IterationRow] = field(default_factory=list)
    status: str = "completed"

    def add(self, x, f: float, N_t: int, verdict: SafetyVerdict | None = None, est=None) -> IterationRow:
        """Append the row of a new iterate; est is the estimate behind the verdict."""
        snapshot = None if est is None else _snapshot(est)
        row = IterationRow(np.asarray(x, dtype=float).copy(), float(f), verdict, snapshot, N_t=N_t)
        self.rows.append(row)
        return row

    @property
    def total_measurements(self) -> int:
        return self.rows[-1].N_t if self.rows else 0

    @property
    def extra_batches(self) -> list[int]:
        return [r.extras for r in self.rows if r.s_hat is not None]

    @property
    def dfs_status(self) -> list[str]:
        return [r.dfs_status for r in self.rows if r.s_hat is not None]

    def steps(self) -> int:
        return sum(1 for r in self.rows if r.s_hat is not None)


def surrogate_gap(grad: np.ndarray, x: np.ndarray, s_hat: np.ndarray) -> float:
    """Frank-Wolfe optimality certificate <grad, x - s_hat>."""
    return float(np.asarray(grad) @ (np.asarray(x) - np.asarray(s_hat)))


def et_bound(cfg: SafetyConfig, geo: GeometryConstants, M: float, N: int, d: int) -> float:
    """High-probability bound M C / sqrt(N) on the gap-estimation error.

    Below the sample-count precondition N >= C^2 / (Gamma0+1)^2 the bound is
    not valid and +inf is returned, so the stopping rule never fires early.
    """
    c_delta = c_delta_constant(geo, cfg, d)
    if N < c_delta * c_delta / ((geo.gamma0 + 1.0) ** 2):
        return math.inf
    if N < 1:
        return math.inf
    return M * c_delta / math.sqrt(N)


def _guarded_rows(beta: np.ndarray, guard: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows [a_hat^T; I; -I] and right-hand sides [b_hat; guard] of the DFS LP,
    for one estimate (d+1, m) or a stack (K, d+1, m) of them."""
    d, m = beta.shape[-2] - 1, beta.shape[-1]
    A = np.empty(beta.shape[:-2] + (m + 2 * d, d))
    A[..., :m, :] = np.swapaxes(beta[..., :d, :], -1, -2)
    A[..., m : m + d, :] = np.eye(d)
    A[..., m + d :, :] = -np.eye(d)
    b = np.full(beta.shape[:-2] + (m + 2 * d,), guard)
    b[..., :m] = beta[..., d, :]
    return A, b


def _guard_start(c: np.ndarray, m: int) -> list[int]:
    """The d rows of `_guarded_rows` at the guard-box corner against the sign
    of c: s_i <= guard (row m + i) where c_i < 0, else -s_i <= guard (row
    m + d + i). Every multiplier there is |c_i| >= 0: a dual-feasible start."""
    d = len(c)
    return [m + i if c_i < 0.0 else m + d + i for i, c_i in enumerate(np.asarray(c, dtype=float).tolist())]


def dfs_problem(est: ConstraintEstimator, c: np.ndarray, guard: float) -> lp.LpProblem:
    """min <c, s> over the estimated polytope inside the box |s_i| <= guard.

    The guard rows [I; -I] keep the LP bounded while estimates are rough;
    they are inactive once the estimates are accurate.
    """
    A, b = _guarded_rows(est.beta_hat, guard)
    return lp.LpProblem(np.asarray(c, dtype=float), A, b)


def solve_dfs(est: ConstraintEstimator, guard: float, grad: np.ndarray, basis: list[int] | None = None) -> lp.LpSolution:
    """Linear minimization of <grad, s> over the guarded estimated polytope.

    The pivot loop of `lp.solve` starts from `basis`, or from the guard vertex
    (`_guard_start`), where every multiplier is |grad_i| >= 0, when there is
    no basis; a warm basis that is neither primal nor dual feasible restarts
    by cost shifting. The simplex serves only what the loop does not verify.
    """
    return lp.solve(dfs_problem(est, grad, guard), _guard_start(grad, est.m) if basis is None else basis)


def _absorb_cross(
    oracle: ConstraintOracle, est: ConstraintEstimator, center: np.ndarray, omega0: float, n: int
) -> CrossPattern:
    pattern = cross_pattern(center, omega0, n)
    value_sums = oracle.measure_repeated(pattern.points, pattern.multiplicity)
    est.absorb_repeated(pattern.points, value_sums, pattern.multiplicity)
    return pattern


def _skippable_passes(ahead, scfg, guard, x, grad, gamma, basis) -> int:
    """How many forecast crosses at x to commit at once: the first k after
    which a pass might not see `basis` verified and a clearly unsafe
    candidate, else all K. The passes before it would each absorb one cross."""
    A, b = _guarded_rows(ahead.beta, guard)
    s_hat, verified = lp.verified_vertices(A, b, grad, basis, TIE_BAND)
    skippable = verified & unsafe_ahead(ahead, scfg, x + gamma * (s_hat - x), TIE_BAND)
    return skippable.size if skippable.all() else int(np.argmin(skippable)) + 1


def _direction(sol: lp.LpSolution, x: np.ndarray) -> tuple[np.ndarray, str]:
    """The DFS solution, or the current point (a zero step is always safe) with
    a fallback status when the estimated polytope is infeasible or unbounded."""
    if sol.status == "optimal":
        return sol.point, "optimal"
    return x.copy(), f"{sol.status}-fallback"


def run(
    setup: ProblemSetup,
    oracle: ConstraintOracle,
    est: ConstraintEstimator,
    safety_cfg: SafetyConfig,
    cfg: SfwConfig,
) -> TrajectoryRecord:
    """Execute the full driver loop, recording everything per iterate."""
    if cfg.variant == "prescribed" and safety_cfg.cn <= 0.0:
        raise ValueError("prescribed schedule needs a positive cn")
    if cfg.variant == "adaptive":
        return _run_adaptive(setup, oracle, est, safety_cfg, cfg)
    return _run_prescribed(setup, oracle, est, safety_cfg, cfg)


def _run_prescribed(setup, oracle, est, scfg, cfg) -> TrajectoryRecord:
    obj = setup.objective
    rec = TrajectoryRecord()
    x = setup.x0.copy()
    for t in range(scfg.T):
        n_t = _absorb_cross(oracle, est, x, scfg.omega0, max(nt_schedule(scfg.cn, t), 2 * setup.d)).total
        row = rec.add(x, obj.value(x), est.N, fact2_check(est, scfg, x), est)  # asserted, not enforced
        grad = obj.gradient(x)
        sol = solve_dfs(est, setup.dfs_guard, grad)
        extra = 0
        if sol.status != "optimal":  # one extra cross batch, then re-solve
            extra = _absorb_cross(oracle, est, x, scfg.omega0, 2 * setup.d).total
            sol = solve_dfs(est, setup.dfs_guard, grad)
        s_hat, status = _direction(sol, x)
        gap = surrogate_gap(grad, x, s_hat)
        bound = et_bound(scfg, setup.geometry, obj.M, est.N, setup.d)
        row.record_step(s_hat, gap, bound, n_t + extra, est.N, status)
        if gap + bound <= cfg.epsilon:
            rec.status = "stopped-early"
            return rec
        gamma = 1.0 / (t + 2)
        x = x + gamma * (s_hat - x)
    rec.add(x, obj.value(x), est.N, fact2_check(est, scfg, x), est)
    return rec


def _run_adaptive(setup, oracle, est, scfg, cfg) -> TrajectoryRecord:
    """From each x_t take the 2d*t warm-up batch (one full cross at t = 0),
    solve the DFS and check the stopping rule, then keep adding single cross
    batches at x_t, re-estimating and re-solving (warm-started from the
    previous active set), until the stepped candidate passes the scalar safety
    test. Extra safety batches never precede the stop check. Once a basis has
    come back twice, the passes a lookahead shows would keep it and stay unsafe
    are committed as one block from the forecast, not measured again; blocks
    double after one skipped whole."""
    d, obj, geo = setup.d, setup.objective, setup.geometry
    rec = TrajectoryRecord()
    row = rec.add(setup.x0, obj.value(setup.x0), 0)
    basis, repeats = None, 0
    for t in range(scfg.T):
        x = row.x
        warm_up = 2 * d * max(t, 1)
        if t > 0 and est.N + warm_up > cfg.max_total_measurements:
            rec.status = "budget-exhausted"
            break
        warm = _absorb_cross(oracle, est, x, scfg.omega0, warm_up)
        taken, cross = warm.total, warm.points  # every extra cross at x reuses these 2d points
        grad = obj.gradient(x)
        gamma = 1.0 / (t + 2)
        extras = 0
        block = AHEAD_START
        while True:
            sol = solve_dfs(est, setup.dfs_guard, grad, basis)
            s_hat, status = _direction(sol, x)
            repeats = repeats + 1 if sol.active_set == basis else 0
            basis = sol.active_set
            candidate = x + gamma * (s_hat - x)
            verdict = fact2_check(est, scfg, candidate)
            if extras == 0 and surrogate_gap(grad, x, s_hat) + et_bound(scfg, geo, obj.M, est.N, d) <= cfg.epsilon:
                rec.status = "stopped-early"
                break
            if verdict.safe:
                break
            room = (cfg.max_total_measurements - est.N) // (2 * d)
            if room < 1:
                rec.status = "budget-exhausted"
                break
            count, size = 1, min(block, room, AHEAD_MAX_VALUES // (cross.shape[0] * est.m))
            if repeats >= 2 and size > 1:
                ahead = est.forecast(cross, oracle.lookahead(cross, size))
                count = _skippable_passes(ahead, scfg, setup.dfs_guard, x, grad, gamma, basis)
                block = min(2 * block, AHEAD_MAX) if count == size else max(AHEAD_MIN, 2 * count)
                oracle.commit(cross, count)
                est.commit(cross, ahead, count)
            else:
                est.absorb_repeated(cross, oracle.measure_repeated(cross, 1), 1)
            taken += count * cross.shape[0]
            extras += count
        ghat, et = surrogate_gap(grad, x, s_hat), et_bound(scfg, geo, obj.M, est.N, d)
        row.record_step(s_hat, ghat, et, taken, est.N, status, extras)
        if t == 0:
            row.verdict, row.snapshot = fact2_check(est, scfg, x), _snapshot(est)
        if rec.status != "completed":
            break
        row = rec.add(candidate, obj.value(candidate), est.N, verdict, est)
    return rec


def run_fw_reference(polytope: Polytope, objective: Objective, x0: np.ndarray, T: int) -> TrajectoryRecord:
    """Classical Frank-Wolfe on the true polytope, gamma_t = 1/(t+2).

    Zero-uncertainty reference used for comparisons and envelope checks.
    """
    rec = TrajectoryRecord()
    x = np.asarray(x0, dtype=float).copy()
    for t in range(T):
        grad = objective.gradient(x)
        sol = lp.solve(lp.LpProblem(grad, polytope.A, polytope.b))
        if sol.status != "optimal":
            raise ValueError(f"linear subproblem over the true polytope is {sol.status}")
        gap = surrogate_gap(grad, x, sol.point)
        rec.add(x, objective.value(x), 0).record_step(sol.point, gap, 0.0, 0, 0, "optimal")
        x = x + (sol.point - x) / (t + 2)
    rec.add(x, objective.value(x), 0)
    return rec
