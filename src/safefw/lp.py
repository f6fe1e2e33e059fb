"""Dense linear programming over inequality systems A x <= b with free variables.

A solve runs one pivot loop over its start bases (d rows each) in order:
primal pivots from a feasible vertex with a negative multiplier, dual pivots
from an infeasible one, whose ratio test reads the multipliers clipped at
zero, B^-1 kept by rank-one (product-form) updates. Its verdict is a vertex
verified to be the unique optimum, or infeasibility or unboundedness proved
by a ray; a start with no verdict hands over to the next. One rule,
`_verdicts`, verifies a vertex, for one LP and for each LP of a stack
(`verified_vertices`). The DFS LP starts from the active set of a previous
solve of a nearby LP, then from its guard vertex, which is dual feasible. A
solve with no start or no verdict (a tied or ill-conditioned optimum) goes
to the primal simplex on the split-variable form (y = u - v plus slacks) in
the frame y = x - anchor of a point known to be feasible, from the
all-slack basis; its Bland's rule keeps it from cycling and picks among
tied optima the vertex that RO's `Tableau`, anchored at x0 too, picks. A
`Tableau` grows one LP a row at a time: its solves replay the recorded
pivots of the one before and give what the simplex gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

COST_TOL = 1e-10
PIVOT_TOL = 1e-11
ACTIVE_TOL = 1e-8  # a row is active when its residual is within this share of its scale
RATIO_TIE = 1e-12  # Bland's tie band: ratios this close tie, to the lowest basic index
MAX_COND = 1e8  # largest infinity-norm condition number of a verified basis
MAX_PIVOTS = 20000


class PivotLimitError(RuntimeError):
    """Simplex exceeded its pivot budget without reaching a verdict."""


@dataclass
class LpProblem:
    """min <c, x> over {x : A x <= b}, x free."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, d = self.A.shape
        if self.c.shape != (d,) or self.b.shape != (m,):
            raise ValueError(
                f"inconsistent LP dimensions: A is {m}x{d}, "
                f"c has shape {self.c.shape}, b has shape {self.b.shape}"
            )


@dataclass
class LpSolution:
    """An LP's status, its vertex when optimal, and the rows active there."""

    point: np.ndarray | None
    status: str  # optimal | infeasible | unbounded
    active_set: list[int] = field(default_factory=list)


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> np.ndarray:
    """Pivot T on (row, col); returns the pivot row after the division, the
    row every other row is reduced by."""
    prow = T[row] / T[row, col]
    T[row] = prow
    coeffs = T[:, col].copy()
    coeffs[row] = 0.0
    T -= coeffs[:, None] * prow
    basis[row] = col
    return prow


def _leaving_row(a: list[float], rhs: list[float], basis: list[int]) -> tuple[int, float]:
    """Bland's ratio test for an entering column a: the row of the least
    rhs / a over a > PIVOT_TOL, ties to the lowest basic index; -1 if none.
    Also the running best ratio, which only a row below it by more than the
    RATIO_TIE band displaces."""
    leave, best = -1, math.inf
    for i, (a_i, rhs_i) in enumerate(zip(a, rhs)):
        if a_i > PIVOT_TOL:
            ratio = rhs_i / a_i
            if ratio < best - RATIO_TIE:
                best, leave = ratio, i
            elif abs(ratio - best) <= RATIO_TIE and leave >= 0 and basis[i] < basis[leave]:
                leave = i
    return leave, best


@dataclass(slots=True)
class _Step:
    """One ratio test of a recorded solve: the entering column, the test's
    running best, the tableau and basis before it (kept at every other step,
    from the first; None at the others), the leaving row and the pivot row
    after the division (-1 and None where no row qualified), and the free
    variable j whose pivot it tries (None for a step of `_simplex`)."""

    col: int
    best: float
    T: np.ndarray | None
    basis: list[int] | None
    row: int
    prow: np.ndarray | None
    free: int | None


def _bland_step(T: np.ndarray, basis: list[int], col: int, a: list[float], steps: list[_Step] | None,
                free: int | None = None) -> bool:
    """Bland's ratio test on column col, whose rows read a, and its pivot;
    whether a row qualified. Appends the step to `steps` when given."""
    leave, best = _leaving_row(a, T[:-1, -1].tolist(), basis)
    if steps is not None:
        kept = (T.copy(), basis.copy()) if len(steps) % 2 == 0 else (None, None)
        steps.append(_Step(col, best, *kept, leave, None, free))
    if leave < 0:
        return False
    prow = _pivot(T, basis, leave, col)
    if steps is not None:
        steps[-1].prow = prow
    return True


def _simplex(T: np.ndarray, basis: list[int], steps: list[_Step] | None = None) -> str:
    """Minimize the bottom-row objective of T from its feasible basis. Bland's
    rule on entering and leaving, scanned over Python floats. Each step
    already in `steps` counts against MAX_PIVOTS."""
    for _ in range(len(steps) if steps else 0, MAX_PIVOTS):
        enter = next((j for j, cost in enumerate(T[-1, :-1].tolist()) if cost < -COST_TOL), -1)
        if enter < 0:
            return "optimal"
        if not _bland_step(T, basis, enter, T[:-1, enter].tolist(), steps):
            return "unbounded"
    raise PivotLimitError(f"simplex made no verdict within {MAX_PIVOTS} pivots")


def _slack(A: np.ndarray, b: np.ndarray, x: np.ndarray, abs_A: np.ndarray, scale_b: np.ndarray):
    """Residuals b - A x and their scales 1 + |b| + |A| |x|, given |A| and
    1 + |b|, for one LP or a stack (K, rows, d) of them."""
    resid = b - np.matmul(A, x[..., None])[..., 0]
    return resid, scale_b + np.matmul(abs_A, np.abs(x)[..., None])[..., 0]


def _active_rows(p: LpProblem, x: np.ndarray) -> list[int]:
    resid, scale = _slack(p.A, p.b, x, np.abs(p.A), 1.0 + np.abs(p.b))
    return [int(i) for i in np.flatnonzero(resid <= ACTIVE_TOL * scale)]


def _basis_terms(A: np.ndarray, b: np.ndarray, c: np.ndarray, rows: np.ndarray, abs_A: np.ndarray, scale_b: np.ndarray):
    """For the basis rows B (an index array) of one LP (rows, d) or of each LP
    of a stack (K, rows, d): B, B^-1, the vertex B^-1 b_B, the multipliers
    -B^-T c, and every row's residual and scale at that vertex (`_slack`).
    Raises LinAlgError unless B is square and nonsingular."""
    B = A.take(rows, axis=-2)
    B_inv = np.linalg.inv(B)
    multipliers = -(B_inv.swapaxes(-1, -2) @ c)
    x = np.matmul(B_inv, b.take(rows, axis=-1)[..., None])[..., 0]
    return B, B_inv, x, multipliers, *_slack(A, b, x, abs_A, scale_b)


def _sizes(B: np.ndarray, B_inv: np.ndarray, c: np.ndarray):
    """For one basis or a stack: the infinity-norm condition number of B and
    the bound |B^-T| |c| on the size of the multipliers."""
    add, largest = np.add.reduce, np.maximum.reduce  # what sum() and max() run, without their Python wrappers
    abs_inv = np.abs(B_inv)
    cond = largest(add(np.abs(B), axis=-1), axis=-1) * largest(add(abs_inv, axis=-1), axis=-1)
    return cond, largest(add(abs_inv, axis=-2), axis=-1) * largest(np.abs(c))


def _verdicts(terms, rows: np.ndarray, c: np.ndarray, band: float = 0.0):
    """Whether the vertex of `_basis_terms` at the basis rows, for one LP or
    for each LP of a stack, is provably the unique optimum: the basis system
    is well conditioned (the infinity-norm condition number is at most
    MAX_COND; others go to the simplex), every multiplier is positive, and
    exactly the basis rows are active at a feasible vertex. A positive `band`
    tightens each test by that share of the size of the terms compared; at
    band 0 the multiplier rule still fails where their size overflows."""
    B, B_inv, _, multipliers, resid, scale = terms
    active = resid <= (ACTIVE_TOL - band) * scale
    inactive = resid > (ACTIVE_TOL + band) * scale  # a row between the two is neither
    every, count = np.logical_and.reduce, np.add.reduce  # what all() and sum() run, without their Python wrappers
    ok = every(active.take(rows, axis=-1), axis=-1) & (count(inactive, axis=-1) == resid.shape[-1] - rows.size)
    if np.count_nonzero(ok):  # the sizes only where some vertex is feasible with exactly the basis rows active
        cond, multiplier_scale = _sizes(B, B_inv, c)
        least = np.minimum.reduce(multipliers, axis=-1)  # NaN where any multiplier is, which fails the test
        ok = ok & (cond * (1.0 + band) <= MAX_COND) & (least > COST_TOL + band * multiplier_scale)
    return ok


def verified_vertices(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int], band: float = 0.0):
    """For a stack of LPs min <c, x> over A[k] x <= b[k], the vertex of `basis`
    in each (K, d) and its `_verdicts` (K,); a singular basis system verifies
    none."""
    K, _, d = A.shape
    rows = np.asarray(basis, dtype=np.intp)
    try:
        terms = _basis_terms(A, b, c, rows, np.abs(A), 1.0 + np.abs(b))
    except np.linalg.LinAlgError:
        return np.full((K, d), math.nan), np.zeros(K, dtype=bool)
    return terms[2], _verdicts(terms, rows, c, band)


def _replace_row(B_inv: np.ndarray, pos: int, shift: np.ndarray) -> np.ndarray:
    """B^-1, updated in place, once row `pos` of B is replaced by a row a with
    shift = a B^-1: the rank-one (product-form) update, pivot shift[pos]."""
    col = B_inv[:, pos] / shift[pos]
    B_inv -= np.multiply.outer(col, shift)
    B_inv[:, pos] = col
    return B_inv


def _least(values: np.ndarray, basis: list[int]) -> int:
    """The position of the least value, ties to the lowest basis row."""
    pos, last = int(values.argmin()), values.size - 1 - int(values[::-1].argmin())
    if pos == last:
        return pos
    return int(min(np.flatnonzero(values == values[pos]).tolist(), key=basis.__getitem__))


def _pivot_from(p: LpProblem, starts) -> tuple[LpSolution | None, np.ndarray | None]:
    """The verdict of the pivots from the bases `starts` (d rows each) in
    order: a vertex verified to be the unique optimum, or the status a ray
    proves; None sends the solve to the simplex. With it, the last vertex
    where the pivots stopped but that did not verify (a tied or
    ill-conditioned optimum), or None.

    From a feasible vertex with a negative multiplier, the row of the most
    negative one leaves along the edge the others keep active, and the first
    row that edge meets enters (primal); an edge that meets no row is a ray
    (unbounded). At an infeasible vertex the most violated row enters, and
    the ratio test over the multipliers clipped at zero, max(lambda, 0),
    picks the row that leaves (dual): from a dual-feasible basis the row
    that keeps them nonnegative, else first a row of negative multiplier, at
    ratio zero. A test with no candidate is a dual ray (infeasible: the
    entering row is violated wherever the basis rows hold). After a
    degenerate dual pivot the lowest violated row enters until the dual
    objective moves again. Ties go to the lowest row. The vertex where the
    cheap test (feasible, multipliers nonnegative) stops the pivots is
    verified on the sorted basis, with its terms computed afresh after any
    pivot, so its point is the one a warm start from that basis gives. A
    start that is singular, out of pivots (one per row, MAX_PIVOTS for the
    last start) or stopped at a vertex that does not verify hands over to
    the next; the last one out of pivots raises PivotLimitError.
    """
    A, b, c, tie = p.A, p.b, p.c, None
    for left, start in enumerate(starts, 1 - len(starts)):  # left == 0 at the last start
        basis, abs_A, scale_b = np.sort(np.asarray(start, dtype=np.intp)), np.abs(A), 1.0 + np.abs(b)
        try:
            terms = _basis_terms(A, b, c, basis, abs_A, scale_b)
        except np.linalg.LinAlgError:
            continue
        _, B_inv, _, lam, resid, scale = terms
        slack, bland = resid / scale, False
        budget = MAX_PIVOTS if left == 0 else A.shape[0]  # before the last start, one pivot per row
        stopped = False
        for pivots in range(budget + 1):
            enter = int(slack.argmin())
            if slack[enter] >= -ACTIVE_TOL:
                stopped = lam[lam.argmin()] >= 0.0
                if stopped:
                    break
                leave = _least(lam, basis)
                closing = A @ -B_inv[:, leave]  # how fast each row's residual falls along the edge
                closing[basis] = 0.0
                rows = (closing > PIVOT_TOL).nonzero()[0]
                if rows.size == 0:
                    return LpSolution(None, "unbounded"), None
                enter = int(rows[(resid[rows] / closing[rows]).argmin()])
                shift = A[enter] @ B_inv
            else:
                if bland:
                    enter = int((slack < -ACTIVE_TOL).argmax())
                shift = A[enter] @ B_inv  # the entering row as a combination of the basis rows
                ratios = np.full(shift.size, math.inf)  # over max(lambda, 0): a negative multiplier's row leaves first
                np.divide(np.maximum(lam, 0.0), shift, out=ratios, where=shift > PIVOT_TOL)
                leave = _least(ratios, basis)
                if ratios[leave] == math.inf:  # the entering row is violated wherever the basis rows hold
                    return LpSolution(None, "infeasible"), None
                bland = ratios[leave] <= 0.0
            if pivots == budget:
                if left == 0:
                    raise PivotLimitError(f"pivot loop made no verdict within {MAX_PIVOTS} pivots")
                break
            if pivots == 0:  # a start basis that verifies needs none of this
                b_basis = b[basis]
            B_inv = _replace_row(B_inv, leave, shift)
            basis[leave], b_basis[leave] = enter, b[enter]
            x = B_inv @ b_basis
            resid = b - A @ x
            slack = resid / (scale_b + abs_A @ np.abs(x))
            lam = -(c @ B_inv)
        if pivots > 0:
            basis.sort()
            try:
                terms = _basis_terms(A, b, c, basis, abs_A, scale_b)
            except np.linalg.LinAlgError:
                continue
        if _verdicts(terms, basis, c):
            return LpSolution(terms[2], "optimal", basis.tolist()), None
        if stopped:
            tie = terms[2]
    return None, tie


def _rows(A: np.ndarray, b: np.ndarray, first: int, width: int) -> np.ndarray:
    """The tableau rows of A x <= b over x = u - v, `width` columns wide,
    with the slack of row i in column 2d + first + i."""
    k, d = A.shape
    R = np.zeros((k, width))
    R[:, :d] = A
    R[:, d:2 * d] = -A
    np.fill_diagonal(R[:, 2 * d + first:], 1.0)
    R[:, -1] = b
    return R


def _feasible(p: LpProblem) -> tuple[np.ndarray, list[int]]:
    """The tableau of p over x = u - v with a slack per row, at the all-slack
    basis, its bottom row the cost of p. That basis is feasible only when
    every right-hand side is >= 0: a negative one raises ValueError."""
    if (p.b < 0.0).any():
        i = int(np.argmax(p.b < 0.0))
        raise ValueError(f"the all-slack basis needs every right-hand side >= 0; row {i} has {float(p.b[i])!r}")
    m, d = p.A.shape
    T = np.zeros((m + 1, 2 * d + m + 1))
    T[:m] = _rows(p.A, p.b, 0, T.shape[1])
    T[-1, :d] = p.c
    T[-1, d:2 * d] = -p.c
    return T, list(range(2 * d, 2 * d + m))


def _optimum(T: np.ndarray, basis: list[int], d: int, steps: list[_Step] | None = None, free: int | None = None):
    """The simplex from the feasible basis of T, whose bottom row holds the
    reduced cost, then the pivots that end it at a vertex: the point, or None
    if unbounded. Records every ratio test into `steps` when given; `free` =
    j resumes at the pivots of free variable j."""
    if free is None and _simplex(T, basis, steps) == "unbounded":
        return None
    # pivot in each free variable left nonbasic, u_j before v_j; only rows with a
    # slack basic bound the step, as a free variable has no sign, so
    # it slides along the optimal face to the next active row: a vertex if bounded
    for j in range(free or 0, d):
        if j not in basis and d + j not in basis:
            signed = np.asarray(basis) >= 2 * d
            for col in (j, d + j):
                if _bland_step(T, basis, col, np.where(signed, T[:-1, col], 0.0).tolist(), steps, j):
                    break
    vals = np.zeros(T.shape[1] - 1)
    vals[basis] = T[:-1, -1]
    return vals[:d] - vals[d:2 * d]


def solve(p: LpProblem, starts=(), anchor=None) -> LpSolution:
    """Minimize <c, x> over {x : A x <= b}.

    Returns a vertex of the optimal face when the feasible set is bounded
    around the optimum. Status reports infeasibility and unboundedness. The
    pivot loop of `_pivot_from` runs over the bases `starts` (d rows each).
    Where it gives no verdict, the simplex solves b - A anchor in y = x -
    anchor from the all-slack basis and returns y + anchor; the anchor, the
    origin by default, must satisfy every row. If it fails a row, a loop
    that stopped at a vertex it cannot prove unique returns that vertex, and
    otherwise the simplex's ValueError is raised.
    """
    sol, tie = _pivot_from(p, starts)
    if sol is not None:
        return sol
    frame = p if anchor is None else LpProblem(p.c, p.A, p.b - p.A @ anchor)
    try:
        start = _feasible(frame)
    except ValueError:
        if tie is None:
            raise
        return LpSolution(tie, "optimal", _active_rows(p, tie))
    y = _optimum(*start, p.c.size)
    if y is None:
        return LpSolution(None, "unbounded")
    x = y if anchor is None else y + anchor
    return LpSolution(x, "optimal", _active_rows(p, x))


def _with_row(S: np.ndarray, r: np.ndarray, m: int) -> np.ndarray:
    """The tableau S of m rows, held in the corner (m + 1, W) of its array
    with W = r.size - 1, and the row r added: r above the cost row, its slack
    column before the rhs. The array grows by a quarter when it has no room."""
    W = r.size - 1
    if S.shape[0] < m + 2 or S.shape[1] < W + 1:
        grown = np.empty((m + 2 + (m + 2) // 4, W + 1 + (W + 1) // 4))
        grown[:m + 1, :W] = S[:m + 1, :W]
        S = grown
    S[:m + 1, W] = S[:m + 1, W - 1]
    S[:m + 1, W - 1] = 0.0
    S[m + 1, :W + 1] = S[m, :W + 1]
    S[m, :W + 1] = r
    return S


class Tableau:
    """min <c, x> over A x <= b, grown a row at a time, for a cutting-plane loop.

    Every right-hand side must be >= 0, so that the simplex starts from the
    all-slack basis: a negative one raises ValueError, here as in `solve`,
    or in `add_row`. `solve` gives what `solve(LpProblem(c, A, b))` gives
    for the rows so far, bit for bit while the entries stay finite, but with
    no active set. Each solve records its ratio tests (`_Step`). `add_row`
    reduces the new row through them by the operations a cold solve applies to
    it, and appends its state to each kept tableau (above the cost row, its
    slack column before the rhs), up to the first step whose ratio test it
    would win: scanned last, with the highest slack index, it wins only below
    the step's running best by more than the RATIO_TIE band. The next solve
    resumes Bland's rule from the tableau before that step, counting the steps
    before it against MAX_PIVOTS; with no such step the last solution stands.
    A tableau is kept before every other step, which halves the memory (about
    0.5 MB each at d = 10 and 200 cuts); the one before an odd step is the one
    before it, pivoted once.
    """

    def __init__(self, p: LpProblem):
        self.c = p.c
        self._rows = p.A.shape[0]
        self._solution: LpSolution | None = None
        self._steps: list[_Step] = []
        self._resume = *_feasible(p), None  # the tableau, basis and free variable the next solve resumes from

    def add_row(self, a: np.ndarray, b: float) -> None:
        """Add the row a x <= b, where b >= 0."""
        if b < 0.0:
            raise ValueError(f"a Tableau row needs a right-hand side >= 0, got {b!r}")
        a = np.asarray(a, dtype=float)
        m = self._rows
        W = 2 * a.size + m + 1  # the width before
        r = _rows(a[None, :], b, m, W + 1)[0]
        self._rows += 1
        for e, step in enumerate(self._steps):
            if step.T is not None:
                step.T = _with_row(step.T, r, m)
                step.basis.append(W - 1)
            a_e = r.item(step.col)
            if a_e > PIVOT_TOL and r.item(W) / a_e < step.best - RATIO_TIE:
                if step.T is None:  # the tableau before the step before, pivoted once
                    last = self._steps[e - 1]
                    S, basis = last.T.copy(), last.basis.copy()
                    if last.prow is not None:
                        _pivot(S[:m + 2, :W + 1], basis, last.row, last.col)
                    self._resume = S, basis, step.free
                else:
                    self._resume = step.T, step.basis, step.free
                del self._steps[e:]
                return
            if step.prow is not None:  # its entries in the slack columns added since are +0, which leave r as it is
                w = step.prow.size - 1
                r[:w] -= a_e * step.prow[:w]
                r[W] = r.item(W) - a_e * step.prow.item(w)
        if self._resume is not None:
            S, basis, free = self._resume
            basis.append(W - 1)
            self._resume = _with_row(S, r, m), basis, free

    def solve(self) -> LpSolution:
        """The solution for the rows added so far, as `solve` gives it."""
        if self._resume is not None:
            S, basis, free = self._resume
            self._resume = None
            d, m = self.c.size, self._rows
            x = _optimum(S[:m + 1, :2 * d + m + 1], basis, d, self._steps, free)
            self._solution = LpSolution(None, "unbounded") if x is None else LpSolution(x, "optimal")
        return self._solution
