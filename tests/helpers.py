"""Shared test utilities: random bounded polytopes, estimator builders, and
independent references: a vertex enumerator, a finite-difference gradient
check, covariance norms, the cone form of the safety test, a solver for the
cone-constrained linear subproblem, the adaptive driver that absorbs one
cross per pass, the block absorb that a committed lookahead block must
equal, the oracle that draws each point's noise whole and sums it with .sum,
the estimator update that refactors P at every step, the simplex kernel that
reads the tableau one numpy scalar at a time, and RO's cut loop with every
cut LP solved cold."""

import math

import numpy as np
import pytest

from safefw import lp
from safefw.estimator import ConstraintEstimator
from safefw.oracle import ConstraintOracle, NoiseModel, cross_pattern
from safefw.problem import EnumerationCapError, Polytope, box_polytope, sweep
from safefw.ro import LINMIN_TOL, MAX_CUTS, SocLinminResult
from safefw.safety import SafetyVerdict, cone_terms, fact2_check, margins
from safefw.sfw import TrajectoryRecord, dfs_problem, et_bound, solve_dfs, surrogate_gap


def random_bounded_polytope(rng, d, m):
    """Box rows (bounded by construction) plus m - 2d random cuts, interior at a
    jittered center."""
    assert m >= 2 * d
    A = np.zeros((m, d))
    b = np.empty(m)
    for i in range(d):
        A[2 * i, i] = 1.0
        A[2 * i + 1, i] = -1.0
    b[: 2 * d] = rng.uniform(0.7, 1.5, size=2 * d)
    center = rng.uniform(-0.2, 0.2, d)
    for j in range(2 * d, m):
        v = rng.normal(0.0, 1.0, d)
        v /= np.linalg.norm(v)
        A[j] = v
        b[j] = v @ center + rng.uniform(0.3, 1.2)
    return Polytope(A, b)


class RecordingEstimator(ConstraintEstimator):
    """Estimator that also keeps every absorbed (point, count, value sum) row,
    one per point of a stacked call, so tests can re-solve the least-squares
    problem densely."""

    def __init__(self, d, m):
        super().__init__(d, m)
        self.rows = []

    def absorb_repeated(self, point, value_sum, count):
        super().absorb_repeated(point, value_sum, count)
        for x, y in zip(np.atleast_2d(point), np.atleast_2d(value_sum)):
            self.rows.append((np.array(x, dtype=float), int(count), np.array(y, dtype=float)))


ENUM_CAP_M, ENUM_CAP_D = 16, 6  # enumerate_vertices is for small instances


def enumerate_vertices(p):
    """All vertices of the LpProblem's {x : A x <= b} from the polytope sweep,
    one per distinct vertex; capped at m <= ENUM_CAP_M and d <= ENUM_CAP_D."""
    m, d = p.A.shape
    if m > ENUM_CAP_M or d > ENUM_CAP_D:
        raise EnumerationCapError(
            f"vertex enumeration capped at m<={ENUM_CAP_M}, d<={ENUM_CAP_D} (got m={m}, d={d})"
        )
    return list(sweep(Polytope(p.A, p.b), np.zeros(d)).vertices)


def neither_feasible(p, basis):
    """Whether the vertex of `basis` is infeasible with a negative multiplier,
    where the pivot loop hands over to the next start before its first pivot."""
    try:
        _, _, _, lam, resid, scale = lp._basis_terms(p.A, p.b, p.c, np.sort(basis), np.abs(p.A), 1.0 + np.abs(p.b))
    except np.linalg.LinAlgError:
        return False
    return bool((resid / scale).min() < -lp.ACTIVE_TOL and lam.min() < -lp.COST_TOL)


def _bland_pivot_reference(T, basis, row, col):
    T[row] /= T[row, col]
    coeffs = T[:, col].copy()
    coeffs[row] = 0.0
    T -= np.outer(coeffs, T[row])
    basis[row] = col


def bland_simplex_reference(T, basis, allowed):
    """Bland's rule reading the tableau one numpy scalar at a time, over the
    column indices `allowed`: the reference that `lp._simplex`, which scans
    Python floats, must match pivot for pivot."""
    m = T.shape[0] - 1
    for _ in range(lp.MAX_PIVOTS):
        enter = -1
        for j in allowed:
            if T[-1, j] < -lp.COST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = math.inf
        for i in range(m):
            a = T[i, enter]
            if a > lp.PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - lp.RATIO_TIE:
                    best, leave = ratio, i
                elif abs(ratio - best) <= lp.RATIO_TIE and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return "unbounded"
        _bland_pivot_reference(T, basis, leave, enter)
    raise lp.PivotLimitError(f"simplex made no verdict within {lp.MAX_PIVOTS} pivots")


def check_gradient(obj, points, step=1e-6, rtol=1e-5):
    """Central finite differences agree with the exact gradient at each point."""
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        g = obj.gradient(x)
        approx = np.zeros_like(g)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            approx[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * step)
        if np.linalg.norm(approx - g) > rtol * max(1.0, float(np.linalg.norm(g))):
            return False
    return True


def covariance_sqrt_norm(est, sigma):
    """||Sigma^(1/2)|| = sigma * sqrt(largest eigenvalue of P)."""
    lam = float(np.linalg.eigvalsh(0.5 * (est.P + est.P.T))[-1])
    assert lam > 0.0, "normal-equation inverse is not positive definite"
    return sigma * math.sqrt(lam)


def covariance_sqrt_norm_bound(sigma, d, gamma0, omega0, n):
    """Analytic upper bound on ||Sigma^(1/2)|| under full-cross sampling inside the set."""
    return sigma * math.sqrt(d) * math.sqrt((gamma0 * gamma0 + 1.0) / (omega0 * omega0) + 1.0) / math.sqrt(n)


def random_estimator(rng, d, m, n, spread=1.0, sigma=0.0, beta=None):
    """A recording estimator fed n random probe rows; returns (estimator, beta_true)."""
    if beta is None:
        beta = rng.normal(0.0, 1.0, (d + 1, m))
    est = RecordingEstimator(d, m)
    for _ in range(n):
        x = rng.uniform(-spread, spread, d)
        clean = x @ beta[:d, :] - beta[d, :]
        est.absorb_repeated(x, clean + (rng.normal(0.0, sigma, m) if sigma > 0 else 0.0), 1)
    return est, beta


EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs extended precision")


def moving_cross_absorbs(rng, est, beta, omega0, crosses, max_count, sigma=0.1):
    """Feed est whole crosses at centres on a random walk in [-0.8, 0.8]^d: the
    first measured once, each later one a log-uniform count in [1, max_count]
    times, its Gaussian measurement sums drawn in aggregate. Yields the points
    and their noise-free values after each cross."""
    d = est.d
    center = np.zeros(d)
    for j in range(crosses):
        points = cross_pattern(center, omega0, 2 * d).points
        count = 1 if j == 0 else int(max_count ** rng.uniform(0.0, 1.0))
        clean = points @ beta[:d] - beta[d]
        est.absorb_repeated(points, count * clean + math.sqrt(count) * sigma * rng.normal(0.0, 1.0, clean.shape), count)
        yield points, clean
        center = np.clip(center + rng.normal(0.0, 0.2, d), -0.8, 0.8)


def extended_least_squares(est):
    """beta and P = (V^T V)^-1 of a RecordingEstimator's rows in long double:
    the normal equations summed in long double, and P refined from the double
    inverse by three Newton steps P <- P (2I - V^T V P)."""
    k = est.d + 1
    A = np.zeros((k, k), dtype=np.longdouble)
    G = np.zeros((k, est.m), dtype=np.longdouble)
    for x, count, ysum in est.rows:
        v = np.append(x, -1.0).astype(np.longdouble)
        A += count * np.outer(v, v)
        G += np.outer(v, ysum.astype(np.longdouble))
    P = np.linalg.inv(A.astype(float)).astype(np.longdouble)
    for _ in range(3):
        P = P @ (2 * np.eye(k, dtype=np.longdouble) - A @ P)
    return P @ G, P


def scatter_inverse(est):
    """Dense reference for the block quantity R: the inverse of the centered
    scatter sum x x^T - N xbar xbar^T, formed from the running sums."""
    xbar = est.sum_x / est.N
    return np.linalg.inv(est.sum_outer - est.N * np.outer(xbar, xbar))


def cross_fed_estimator(polytope, sigma, seed, omega0, centers, n_per_center):
    """Estimator fed full cross batches at the given centers through an oracle."""
    oracle = ConstraintOracle(polytope, NoiseModel("gaussian", sigma, seed), omega0)
    est = ConstraintEstimator(polytope.d, polytope.m)
    for center, n in zip(centers, n_per_center):
        pattern = cross_pattern(np.asarray(center, dtype=float), omega0, n)
        est.absorb_repeated(pattern.points, oracle.measure_repeated(pattern.points, pattern.multiplicity), pattern.multiplicity)
    return est, oracle


def box_estimator_exact(d):
    """Zero-noise estimator holding the exact unit-box constraints."""
    p = box_polytope(d)
    est, _ = cross_fed_estimator(p, 0.0, 0, 0.01, [np.zeros(d)], [2 * d])
    return est, p


def cone_verdict(est, cfg, x):
    """The cone form of the safety test: phi ||Sigma^(1/2) [x; -1]|| through the
    full covariance factor against the smallest estimated margin at x, ties
    safe; fact2_check's scalar form must agree with it."""
    lhs = cfg.phi_delta * cone_terms(est, x)[1]
    min_margin = float(margins(est, x).min())
    return SafetyVerdict(safe=lhs <= min_margin, lhs=lhs, min_margin=min_margin)


def cone_violation(est, cfg, x):
    """Largest cone-constraint violation at x: the cone verdict's lhs - min margin."""
    verdict = cone_verdict(est, cfg, x)
    return verdict.lhs - verdict.min_margin


def soc_worst_violation_grid(est, phi_delta, points):
    """Vectorized worst cone-constraint violation for each row of points."""
    Z = np.hstack([points, -np.ones((points.shape[0], 1))])
    quad = np.einsum("ij,jk,ik->i", Z, est.P, Z)
    norms = np.sqrt(np.maximum(quad, 0.0))
    return np.max(points @ est.a_hat() - est.b_hat()[None, :] + phi_delta * norms[:, None], axis=1)


def soc_linmin_reference(est, cfg, c, anchor, radius=2.0):
    """Independent solver for min <c, s> over the cone-constrained safety set.

    Projected-subgradient localization (Polyak alternating feasibility and
    objective steps) followed by a multi-resolution grid zoom; d = 2 only.
    """
    c = np.asarray(c, dtype=float)
    cn = np.linalg.norm(c)
    phi = cfg.phi_delta
    d = est.d
    assert d == 2
    s = np.asarray(anchor, dtype=float).copy()
    best = s.copy()
    best_val = float(c @ s)
    for k in range(4000):
        viol = soc_worst_violation_grid(est, phi, s[None, :])[0]
        if viol > 1e-12:
            z = np.append(s, -1.0)
            pz = est.P @ z
            nrm = math.sqrt(max(float(z @ pz), 1e-300))
            g_all = s @ est.a_hat() - est.b_hat() + phi * nrm
            i = int(np.argmax(g_all))
            grad = est.a_hat()[:, i] + phi * pz[:d] / nrm
            s = s - (g_all[i] / float(grad @ grad)) * grad
        else:
            if float(c @ s) < best_val:
                best_val = float(c @ s)
                best = s.copy()
            s = s - (0.5 / math.sqrt(k + 1)) * c / cn
    center, half = best.copy(), radius
    for _ in range(14):
        g = np.linspace(-half, half, 33)
        X, Y = np.meshgrid(center[0] + g, center[1] + g)
        S = np.column_stack([X.ravel(), Y.ravel()])
        viol = soc_worst_violation_grid(est, phi, S)
        vals = S @ c
        vals[viol > 0] = np.inf
        j = int(np.argmin(vals))
        if np.isfinite(vals[j]) and vals[j] < best_val:
            best_val = float(vals[j])
            center = S[j]
        half *= 0.55
    return best_val


def soc_linmin_cold(est, cfg, c, guard, anchor):
    """`ro.soc_linmin` with each cut LP, anchored at `anchor` as there, stacked
    and solved cold by `lp.solve`, and its bisection testing the cone
    verdict's lhs - min margin: the reference its growing tableau and its
    per-constraint bisection test must follow bit for bit."""
    c = np.asarray(c, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    d = est.d
    relaxation = dfs_problem(est, c, guard)
    rows = [relaxation.A]
    rhs = [relaxation.b - relaxation.A @ anchor]
    for cut in range(MAX_CUTS + 1):
        sol = lp.solve(lp.LpProblem(c, np.vstack(rows), np.concatenate(rhs)))
        assert sol.status == "optimal"
        point = sol.point + anchor
        pz, norm = cone_terms(est, point)
        violations = cfg.phi_delta * norm - margins(est, point)
        worst = int(np.argmax(violations))
        if violations[worst] <= LINMIN_TOL:
            return SocLinminResult(point, cut, False)
        if cut == MAX_CUTS or norm <= 0.0:
            break
        grad_norm = pz[:d] / norm
        a_cut = est.a_hat()[:, worst] + cfg.phi_delta * grad_norm
        rows.append(a_cut[None, :])
        b_cut = est.b_hat()[worst] - cfg.phi_delta * norm + cfg.phi_delta * float(grad_norm @ point)
        rhs.append(np.array([max(b_cut - float(a_cut @ anchor), 0.0)]))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cone_violation(est, cfg, anchor + mid * (point - anchor)) <= LINMIN_TOL:
            lo = mid
        else:
            hi = mid
    return SocLinminResult(anchor + lo * (point - anchor), MAX_CUTS, True)


def _reference_absorb_cross(oracle, est, center, omega0, n):
    pattern = cross_pattern(center, omega0, n)
    est.absorb_repeated(pattern.points, oracle.measure_repeated(pattern.points, pattern.multiplicity), pattern.multiplicity)
    return len(pattern.points) * pattern.multiplicity


def absorb_crosses_reference(oracle, est, points, count):
    """Measure `count` crosses at the points in the stream order of `count`
    calls and absorb their summed values in one call: the state that
    absorbing the sums of a committed lookahead block of those crosses must
    reach bit for bit."""
    n = points.shape[0]
    sums = oracle.measure_repeated(np.tile(points, (count, 1)), 1).reshape(count, n, -1).sum(axis=0)
    est.absorb_repeated(points, sums, count)


class WholeDrawOracle(ConstraintOracle):
    """The oracle's noise path before the streamed kernel: each point's noise
    is drawn whole into a new array with `normal(0, sigma)` or `uniform(-sigma,
    sigma)` and summed with .sum; a lookahead concatenates fresh draws to the
    pushback buffer. The streamed kernel must return its sums bit for bit."""

    def _fresh(self, size):
        if self.noise.kind == "gaussian":
            return self._rng.normal(0.0, self.noise.sigma, size=size)
        return self._rng.uniform(-self.noise.sigma, self.noise.sigma, size=size)

    def _draw(self, shape):
        size = math.prod(shape)
        if self._pushback.size == 0:
            return self._fresh(size).reshape(shape)
        head, self._pushback = self._pushback[:size], self._pushback[size:]
        if head.size < size:
            head = np.concatenate([head, self._fresh(size - head.size)])
        return head.reshape(shape)

    def lookahead(self, points, count):
        values = self._stack(points)[0]
        self._peeked = max(self._peeked, count)
        size = count * values.size
        if self._pushback.size < size:
            self._pushback = np.concatenate([self._pushback, self._fresh(size - self._pushback.size)])
        return values + self._pushback[:size].reshape((count,) + values.shape)

    def measure_repeated(self, x, count):
        values, reach = self._stack(x)
        self.out_of_reach_events += reach
        self._peeked = max(self._peeked - count, 0)
        total = count * values
        for row in total:
            row += self._draw((count, total.shape[1])).sum(axis=0)
        return total if np.ndim(x) == 2 else total[0]


class StepChainReference:
    """The posterior (beta, P) advanced one step per update, each step factoring
    the current P afresh: with P = L L^T and L^T V^T V L = Z diag(mu) Z^T,
    F = L Z, P <- F diag(1 / (1 + k mu)) F^T and beta <- beta + P_new V^T (sums
    - k V beta) for the rows V measured k times each with measurement sums
    `sums`. The estimator factors each probe stack once instead; this chain is
    the reference it must follow."""

    def __init__(self, est):
        self.beta, self.P = est.beta_hat.copy(), est.P.copy()

    def absorb(self, points, sums, count):
        V = np.hstack([points, -np.ones((points.shape[0], 1))])
        L = np.linalg.cholesky(self.P)
        mu, Z = np.linalg.eigh(L.T @ (V.T @ V) @ L)
        F = L @ Z
        shrink = 1.0 / (1.0 + count * np.maximum(mu, 0.0))
        W = (V @ F).T
        self.beta = self.beta + F @ (shrink[:, None] * (W @ sums - count * (W @ (V @ self.beta))))
        self.P = (F * shrink) @ F.T


def run_adaptive_reference(setup, oracle, est, scfg, cfg):
    """The adaptive driver without fast-forwarding: every extra pass absorbs one
    cross, re-solves the DFS (warm from the previous active set within an
    iteration, cold at its start) and re-tests safety."""
    d, obj, geo = setup.d, setup.objective, setup.geometry
    rec = TrajectoryRecord()
    row = rec.add(setup.x0, obj.value(setup.x0), 0)
    for t in range(scfg.T):
        x = row.x
        warm_up = 2 * d * max(t, 1)
        if t > 0 and est.N + warm_up > cfg.max_total_measurements:
            rec.status = "budget-exhausted"
            break
        taken = _reference_absorb_cross(oracle, est, x, scfg.omega0, warm_up)
        grad = obj.gradient(x)
        gamma = 1.0 / (t + 2)
        extras = 0
        basis = None
        while True:
            sol = solve_dfs(est, setup.dfs_guard, grad, basis)
            s_hat, status = (sol.point, "optimal") if sol.status == "optimal" else (x.copy(), f"{sol.status}-fallback")
            basis = sol.active_set
            candidate = x + gamma * (s_hat - x)
            verdict = fact2_check(est, scfg, candidate)
            if extras == 0 and surrogate_gap(grad, x, s_hat) + et_bound(scfg, geo, obj.M, est.N, d) <= cfg.epsilon:
                rec.status = "stopped-early"
                break
            if verdict.safe:
                break
            if est.N + 2 * d > cfg.max_total_measurements:
                rec.status = "budget-exhausted"
                break
            taken += _reference_absorb_cross(oracle, est, x, scfg.omega0, 2 * d)
            extras += 1
        ghat, et = surrogate_gap(grad, x, s_hat), et_bound(scfg, geo, obj.M, est.N, d)
        row.record_step(s_hat, ghat, et, taken, est.N, status, extras)
        if t == 0:
            row.verdict = fact2_check(est, scfg, x)
        if rec.status != "completed":
            break
        row = rec.add(candidate, obj.value(candidate), est.N)
        row.record_verdict(verdict, est)
    return rec
