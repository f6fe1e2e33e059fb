"""Feasible Frank-Wolfe driver over a polytope learned from noisy measurements.

One loop, `_drive`, runs every variant: at each iterate x_t a per-variant
policy measures, refreshes the least-squares constraint estimates and finds
the linear step s_t; the loop records the row, applies the stop rule and steps
with gamma_t = 1/(t+2). The prescribed policy takes the scheduled counts and
asserts safety; the adaptive policy keeps measuring until the stepped
candidate passes the scalar safety test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .estimator import ConstraintEstimator
from .oracle import ConstraintOracle, CrossPattern, cross_pattern
from .problem import FEAS_TOL, GeometryConstants, Objective, Polytope
from .safety import SafetyConfig, SafetyVerdict, c_delta_constant, fact2_check, prescribed_count, unsafe_ahead

VARIANTS = ("prescribed", "adaptive")

# Lookahead blocks of the adaptive loop, in crosses: the first of an iteration,
# the least after a short block, the most; at most 2^21 peeked values (16 MB),
# which also keeps a block's measurement in one noise draw.
AHEAD_START, AHEAD_MIN, AHEAD_MAX, AHEAD_MAX_VALUES = 8, 4, 4096, 1 << 21


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

    def record_verdict(self, verdict: SafetyVerdict, est: ConstraintEstimator):
        """Record this iterate's safety verdict and the estimate (beta_hat, xtx) behind it."""
        self.verdict, self.snapshot = verdict, (est.beta_hat.copy(), est.xtx())


@dataclass
class TrajectoryRecord:
    """Per-iterate history of a run: one IterationRow per iterate."""

    rows: list[IterationRow] = field(default_factory=list)
    status: str = "completed"

    def add(self, x, f: float, N_t: int) -> IterationRow:
        """Append the row of a new iterate."""
        row = IterationRow(np.asarray(x, dtype=float).copy(), float(f), N_t=N_t)
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
    d, m, stack = beta.shape[-2] - 1, beta.shape[-1], beta.shape[:-2]
    A = np.zeros(stack + (m + 2 * d, d))
    A[..., :m, :] = beta[..., :d, :].swapaxes(-1, -2)
    A[..., m + d :, :] = -0.0  # -I as -1 times I: a signed zero can reach the sign of a zero in the vertex
    flat = A.reshape(stack + (-1,))  # a view of the fresh A, one row of entries per LP
    flat[..., m * d : (m + d) * d : d + 1] = 1.0  # the diagonal of I
    flat[..., (m + d) * d :: d + 1] = -1.0  # the diagonal of -I
    b = np.empty(stack + (m + 2 * d,))
    b[..., :m] = beta[..., d, :]
    b[..., m:] = guard
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
    """Linear minimization of <grad, s> over the guarded estimated polytope,
    by the pivot loop of `lp.solve` from `basis`, when there is one, then from
    the guard vertex (`_guard_start`), which is dual feasible. The simplex
    serves only a tied optimum."""
    guard_start = _guard_start(grad, est.m)
    return lp.solve(dfs_problem(est, grad, guard), (basis, guard_start) if basis else (guard_start,))


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
    candidate, else all K. The passes before it would each absorb one cross.
    Every predicted test keeps a relative guard band FEAS_TOL: near ties are
    left to the loop."""
    A, b = _guarded_rows(ahead.beta, guard)
    s_hat, verified = lp.verified_vertices(A, b, grad, basis, FEAS_TOL)
    skippable = verified & unsafe_ahead(ahead, scfg, x + gamma * (s_hat - x), FEAS_TOL)
    return skippable.size if skippable.all() else int(np.argmin(skippable)) + 1


def _direction(sol: lp.LpSolution, x: np.ndarray) -> tuple[np.ndarray, str]:
    """The DFS solution, or the current point (a zero step is always safe) with
    a fallback status when the estimated polytope is infeasible or unbounded."""
    if sol.status == "optimal":
        return sol.point, "optimal"
    return x.copy(), f"{sol.status}-fallback"


@dataclass
class _TruePolytope:
    """Classical Frank-Wolfe: the LP over the true polytope, with nothing measured."""

    polytope: Polytope
    N = extras = 0
    et = 0.0

    def annotate(self, row: IterationRow) -> None:
        pass

    def step(self, t, row, grad, gamma, stop):
        sol = lp.solve(lp.LpProblem(grad, self.polytope.A, self.polytope.b))
        if sol.status != "optimal":
            raise ValueError(f"linear subproblem over the true polytope is {sol.status}")
        return sol.point, "optimal", None


@dataclass
class _Estimated:
    """A policy that measures through `oracle` into `est`, and checks rows against est."""

    setup: ProblemSetup
    oracle: ConstraintOracle
    est: ConstraintEstimator
    scfg: SafetyConfig
    extras = 0

    @property
    def N(self) -> int:
        return self.est.N

    @property
    def et(self) -> float:
        return et_bound(self.scfg, self.setup.geometry, self.setup.objective.M, self.est.N, self.setup.d)

    def annotate(self, row: IterationRow) -> None:
        row.record_verdict(fact2_check(self.est, self.scfg, row.x), self.est)


class _Prescribed(_Estimated):
    """The scheduled cross at x_t, with safety asserted, not enforced; one
    extra cross batch and a re-solve when the DFS is not optimal."""

    def step(self, t, row, grad, gamma, stop):
        x, d, guard = row.x, self.setup.d, self.setup.dfs_guard
        _absorb_cross(self.oracle, self.est, x, self.scfg.omega0, prescribed_count(self.scfg.cn, t, d))
        self.annotate(row)
        sol = solve_dfs(self.est, guard, grad)
        if sol.status != "optimal":
            _absorb_cross(self.oracle, self.est, x, self.scfg.omega0, 2 * d)
            sol = solve_dfs(self.est, guard, grad)
        s_hat, status = _direction(sol, x)
        return s_hat, status, stop(s_hat)


@dataclass
class _Adaptive(_Estimated):
    """From each x_t take the 2d*t warm-up batch (one full cross at t = 0),
    solve the DFS and ask the stop rule, then keep adding single cross batches
    at x_t, re-estimating and re-solving (warm-started from the previous
    active set), until the stepped candidate passes the scalar safety test.
    Once a basis has come back twice, the passes a lookahead shows would keep
    it and stay unsafe are committed as one block, not measured again, and
    the forecast's running sum of their peeked values absorbed in one call,
    as a pass absorbs its cross; blocks double after one skipped whole. The
    row of an iterate after x0 carries the verdict that certified it."""

    budget: int
    basis: list[int] | None = None
    repeats: int = 0
    verdict: SafetyVerdict | None = None  # of the last candidate tested

    def annotate(self, row: IterationRow) -> None:
        row.record_verdict(self.verdict, self.est)

    def step(self, t, row, grad, gamma, stop):
        x, d, est, guard = row.x, self.setup.d, self.est, self.setup.dfs_guard
        warm_up = 2 * d * max(t, 1)
        if t > 0:
            self.annotate(row)
            if est.N + warm_up > self.budget:
                return None, None, "budget-exhausted"
        cross = _absorb_cross(self.oracle, est, x, self.scfg.omega0, warm_up).points  # the 2d points of every extra
        self.extras, block = 0, AHEAD_START
        while True:
            sol = solve_dfs(est, guard, grad, self.basis)
            s_hat, status = _direction(sol, x)
            self.repeats = self.repeats + 1 if sol.active_set == self.basis else 0
            self.basis = sol.active_set
            self.verdict = fact2_check(est, self.scfg, x + gamma * (s_hat - x))
            end = stop(s_hat) if self.extras == 0 else None
            if end is not None or self.verdict.safe:
                break
            room = (self.budget - est.N) // (2 * d)
            if room < 1:
                end = "budget-exhausted"
                break
            count, size = 1, min(block, room, AHEAD_MAX_VALUES // (cross.shape[0] * est.m))
            if self.repeats >= 2 and size > 1:
                ahead = est.forecast(cross, self.oracle.lookahead(cross, size))
                count = _skippable_passes(ahead, self.scfg, guard, x, grad, gamma, self.basis)
                block = min(2 * block, AHEAD_MAX) if count == size else max(AHEAD_MIN, 2 * count)
                self.oracle.commit(cross, count)
                sums = ahead.sums[count - 1].copy()
                del ahead  # its arrays, up to 2^21 values each, go before the next pass allocates
            else:
                sums = self.oracle.measure_repeated(cross, 1)
            est.absorb_repeated(cross, sums, count)
            self.extras += count
        if t == 0:  # no step certified x0: check it against the estimate after its passes
            row.record_verdict(fact2_check(est, self.scfg, x), est)
        return s_hat, status, end


def _drive(objective: Objective, x0, T: int, policy, epsilon: float | None = None) -> TrajectoryRecord:
    """The Frank-Wolfe loop of every variant. At each iterate x_t,
    `policy.step(t, row, grad, gamma, stop)` measures, gives the row its
    verdict and returns the linear step s_t (None ends the run at x_t), its
    status, and a status that ends the run after the step, or None; a policy
    that may stop early asks `stop(s_t)`, the rule ghat + e_t <= epsilon, on
    its first linear step. The policy's N, extras and et (e_t) fill the row,
    and its annotate() gives the row of x_T a verdict."""
    rec, x = TrajectoryRecord(), np.asarray(x0, dtype=float)
    for t in range(T):
        grad, gamma, N = objective.gradient(x), 1.0 / (t + 2), policy.N
        row = rec.add(x, objective.value(x), N)

        def stop(s_hat):
            return "stopped-early" if surrogate_gap(grad, x, s_hat) + policy.et <= epsilon else None

        s_hat, status, end = policy.step(t, row, grad, gamma, stop)
        if s_hat is None:
            row.N_t = policy.N
        else:
            ghat = surrogate_gap(grad, x, s_hat)
            row.record_step(s_hat, ghat, policy.et, policy.N - N, policy.N, status, policy.extras)
        if end is not None:
            rec.status = end
            return rec
        x = x + gamma * (s_hat - x)
    policy.annotate(rec.add(x, objective.value(x), policy.N))
    return rec


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
        policy = _Adaptive(setup, oracle, est, safety_cfg, cfg.max_total_measurements)
    else:
        policy = _Prescribed(setup, oracle, est, safety_cfg)
    return _drive(setup.objective, setup.x0, safety_cfg.T, policy, cfg.epsilon)


def run_fw_reference(polytope: Polytope, objective: Objective, x0: np.ndarray, T: int) -> TrajectoryRecord:
    """Classical Frank-Wolfe on the true polytope, gamma_t = 1/(t+2).

    Zero-uncertainty reference used for comparisons and envelope checks.
    """
    return _drive(objective, x0, T, _TruePolytope(polytope))
