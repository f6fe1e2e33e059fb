"""Incremental least squares: rank-one updates against dense solves,
covariance machinery, block identities, confidence radii and coverage."""

import copy
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from safefw.estimator import ConstraintEstimator, ScatterSingularError, confidence_membership_arrays, phi_inverse
from safefw import harness
from safefw.harness import ExperimentConfig, resolve, run_single
from safefw.oracle import NOISE_KINDS, ConstraintOracle, NoiseModel, cross_pattern
from safefw.problem import box_polytope

from helpers import (
    RecordingEstimator,
    StepChainReference,
    covariance_sqrt_norm,
    covariance_sqrt_norm_bound,
    cross_fed_estimator,
    moving_cross_absorbs,
    random_estimator,
    scatter_inverse,
)


def dense_beta(rows):
    """Direct normal-equation solve over raw (point, count, value_sum) rows."""
    V = []
    Y = []
    for x, count, ysum in rows:
        v = np.append(x, -1.0)
        for _ in range(count):
            V.append(v)
            Y.append(ysum / count)
    V = np.array(V)
    Y = np.array(Y)
    return np.linalg.lstsq(V, Y, rcond=None)[0]


def test_two_points_determine_a_line():
    est = ConstraintEstimator(1, 1)
    est.absorb_repeated(np.array([1.0]), np.array([0.0]), 1)    # x <= 1 measured at x = 1
    est.absorb_repeated(np.array([-1.0]), np.array([-2.0]), 1)  # and at x = -1
    assert est.P is not None
    assert np.allclose(est.beta_hat[:, 0], [1.0, 1.0], atol=1e-12)


def test_rank_one_matches_dense_solve():
    rng = np.random.default_rng(0)
    est, _ = random_estimator(rng, 3, 4, 500, sigma=0.3)
    expected = dense_beta(est.rows)
    scale = np.abs(expected).max()
    assert np.abs(est.beta_hat - expected).max() <= 1e-8 * scale


def test_rank_one_matches_dense_at_prefixes():
    rng = np.random.default_rng(1)
    est = RecordingEstimator(2, 3)
    beta = rng.normal(0, 1, (3, 3))
    for k in range(60):
        x = rng.uniform(-1, 1, 2)
        est.absorb_repeated(x, x @ beta[:2] - beta[2] + rng.normal(0, 0.1, 3), 1)
        if est.P is not None and k % 7 == 0:
            expected = dense_beta(est.rows)
            assert np.abs(est.beta_hat - expected).max() <= 1e-8 * (1 + np.abs(expected).max())


def test_repeat_point_shrinks_variance_direction():
    est, _ = cross_fed_estimator(box_polytope(2), 0.0, 0, 0.1, [np.zeros(2)], [4])
    x = np.array([0.05, 0.0])
    v = np.append(x, -1.0)
    before = float(v @ est.P @ v)
    est.absorb_repeated(x, np.zeros(4), 1)
    mid = float(v @ est.P @ v)
    est.absorb_repeated(x, np.zeros(4), 1)
    after = float(v @ est.P @ v)
    assert after < mid < before


def test_unbiased_with_zero_noise():
    rng = np.random.default_rng(2)
    est, beta = random_estimator(rng, 3, 2, 20, sigma=0.0)
    assert est.P is not None
    assert np.abs(est.beta_hat - beta).max() <= 1e-10


def test_exact_recovery_from_affinely_independent_points():
    # d+1 affinely independent points span the extended design exactly
    p = box_polytope(2)
    est = ConstraintEstimator(2, 4)
    for x in (np.zeros(2), np.array([0.3, 0.0]), np.array([0.0, 0.25])):
        est.absorb_repeated(x, p.A @ x - p.b, 1)
    beta_true = np.vstack([p.A.T, p.b[None, :]])
    assert est.P is not None
    assert np.abs(est.beta_hat - beta_true).max() <= 1e-10


def test_covariance_sqrt_norm_isotropic():
    # cross at radius sqrt(d) makes the extended normal matrix N * I
    d = 2
    est = ConstraintEstimator(d, 1)
    pat = cross_pattern(np.zeros(d), math.sqrt(d), 2 * d)
    for pt in pat.points:
        est.absorb_repeated(pt, np.zeros(1), 1)
    n = 2 * d
    assert np.allclose(est.xtx(), n * np.eye(d + 1), atol=1e-12)
    assert covariance_sqrt_norm(est, 0.5) == pytest.approx(0.5 / math.sqrt(n), abs=1e-12)
    assert covariance_sqrt_norm(est, 1.0) == pytest.approx(2.0 * covariance_sqrt_norm(est, 0.5), abs=1e-14)


def test_covariance_norm_below_analytic_bound():
    # full cross batches at feasible centers: the closed-form bound dominates
    p = box_polytope(2)
    sigma, omega0 = 0.05, 0.01
    centers = [np.zeros(2), np.array([0.4, 0.1]), np.array([0.7, -0.3]), np.array([0.9, 0.5])]
    est, _ = cross_fed_estimator(p, sigma, 5, omega0, centers, [8, 16, 24, 40])
    gamma0 = math.sqrt(2.0)
    assert covariance_sqrt_norm(est, sigma) <= covariance_sqrt_norm_bound(sigma, 2, gamma0, omega0, est.N)


def test_block_quantities_symmetric_cross():
    omega0 = 0.01
    est, _ = cross_fed_estimator(box_polytope(2), 0.0, 0, omega0, [np.zeros(2)], [4])
    xbar, R = est.block_quantities()
    assert np.allclose(xbar, 0.0, atol=1e-15)
    assert np.allclose(R, np.eye(2) / (2 * omega0**2), rtol=1e-10)


def test_block_reconstruction_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        est, _ = random_estimator(rng, d, 2, int(rng.integers(d + 2, 50)), sigma=0.2)
        xbar, R = est.block_quantities()[0], scatter_inverse(est)
        rec = np.empty((d + 1, d + 1))
        rec[:d, :d] = R
        rec[:d, d] = R @ xbar
        rec[d, :d] = R @ xbar
        rec[d, d] = 1.0 / est.N + xbar @ R @ xbar
        assert np.abs(rec - est.P).max() <= 1e-10


def test_block_quantities_translation():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, (30, 2))
    shift = np.array([5.0, -3.0])
    a = ConstraintEstimator(2, 1)
    b = ConstraintEstimator(2, 1)
    for x in pts:
        a.absorb_repeated(x, np.zeros(1), 1)
        b.absorb_repeated(x + shift, np.zeros(1), 1)
    xa, Ra = a.block_quantities()
    xb, Rb = b.block_quantities()
    assert np.allclose(xb, xa + shift, atol=1e-12)
    assert np.allclose(Ra, Rb, rtol=1e-9)


def test_scatter_singular_error():
    est = ConstraintEstimator(2, 1)
    for t in np.linspace(-1, 1, 7):
        est.absorb_repeated(np.array([t, t]), np.zeros(1), 1)  # collinear points
    with pytest.raises(ScatterSingularError):
        est.block_quantities()


def test_phi_inverse_chisq_anchor():
    assert phi_inverse(2, 0.05) == pytest.approx(math.sqrt(7.814727903251179), abs=1e-8)


@pytest.mark.parametrize("d, radius", [
    (2, "0x1.f2c233b94e50bp+1"),
    (10, "0x1.765e30f262043p+2"),
    (20, "0x1.cf5a1b66d2d6cp+2"),
])
def test_phi_inverse_is_pinned_bit_for_bit(d, radius):
    """The radii of the shipped configs and the benchmark (delta 0.1, T 15,
    m = 2d): RO's cutting-plane fingerprints move at one ulp of the radius."""
    assert phi_inverse(d, 0.1 / 15 / (2 * d)).hex() == radius


def test_phi_inverse_monotone_in_delta():
    values = [phi_inverse(3, db) for db in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_phi_inverse_preconditions():
    with pytest.raises(ValueError):
        phi_inverse(2, 0.0)
    with pytest.raises(ValueError):
        phi_inverse(2, 1.0)


def test_membership_center_and_degenerate_radius():
    rng = np.random.default_rng(6)
    est, beta = random_estimator(rng, 2, 3, 40, sigma=0.1)
    assert confidence_membership_arrays(est.beta_hat, est.xtx(), 0.1, 10.0, est.beta_hat).all()
    assert not confidence_membership_arrays(est.beta_hat, est.xtx(), 0.1, 0.0, beta).any()


def test_membership_slack_is_relative_to_the_radius():
    """A Mahalanobis distance r^2 (identity design, sigma 1) counts as inside
    up to phi^2 (1 + FEAS_TOL): at phi = 2, r^2 = 4 (1 + 0.8e-9) is inside,
    where an absolute slack of 1e-12 read it outside, and 4 (1 + 1.2e-9) is
    outside."""
    truth = np.zeros((2, 1))
    for share, inside in ((0.4e-9, True), (0.6e-9, False)):
        beta_hat = np.array([[2.0 * (1.0 + share)], [0.0]])
        assert confidence_membership_arrays(beta_hat, np.eye(2), 1.0, 2.0, truth).tolist() == [inside]


def test_membership_coverage():
    # Gaussian noise, fixed design, chisq radius: coverage is exact by construction
    rng = np.random.default_rng(123)
    d, sigma, delta_bar = 2, 0.05, 0.1
    beta = np.array([[0.3], [-0.7], [1.0]])
    design = np.vstack([np.eye(d), -np.eye(d), np.zeros((1, d))])
    phi = phi_inverse(d, delta_bar)
    inside = 0
    runs = 2000
    for _ in range(runs):
        est = ConstraintEstimator(d, 1)
        for x in design:
            y = x @ beta[:d, 0] - beta[d, 0] + rng.normal(0.0, sigma)
            est.absorb_repeated(x, np.array([y]), 1)
        inside += bool(confidence_membership_arrays(est.beta_hat, est.xtx(), sigma, phi, beta)[0])
    coverage = inside / runs
    assert coverage >= (1 - delta_bar) - 0.02
    assert coverage <= 0.97  # radius is not vacuous either


def test_positive_definiteness_preserved():
    rng = np.random.default_rng(7)
    est, _ = random_estimator(rng, 3, 2, 200, sigma=0.5)
    eigs = np.linalg.eigvalsh(est.P)
    assert eigs[0] > 0
    for _ in range(10):
        v = rng.normal(0, 1, 4)
        assert float(v @ est.P @ v) > 0


def test_absorb_validation():
    est = ConstraintEstimator(2, 3)
    with pytest.raises(ValueError):
        est.absorb_repeated(np.zeros(2), np.zeros(2), 1)
    with pytest.raises(ValueError):
        est.absorb_repeated(np.zeros(3), np.zeros(3), 1)
    with pytest.raises(ValueError):
        est.absorb_repeated(np.zeros(2), np.zeros(3), 0)
    with pytest.raises(ScatterSingularError):
        est.block_quantities()


def test_forecast_matches_one_cross_at_a_time():
    """The forecast after k more crosses equals the estimate after absorbing
    those k crosses one call each: beta and the cone quadratic z^T P_k z,
    over 300 crosses at one point set; and one absorb of the k crosses'
    summed values lands on the forecast's beta and P bit for bit. The oracle
    refuses to commit a count outside the peeked 1..K."""
    polytope = box_polytope(3)
    est, oracle = cross_fed_estimator(polytope, 0.1, 4, 0.01, [np.zeros(3), [0.3, -0.2, 0.1]], [6, 60])
    points = cross_pattern(np.array([0.4, -0.3, 0.2]), 0.01, 6).points
    K = 300
    values = oracle.lookahead(points, K)
    ahead = est.forecast(points, values)
    for k in (1, 2, 37, K):
        block = copy.deepcopy(est)
        block.absorb_repeated(points, values[:k].sum(axis=0), k)
        assert np.array_equal(block.beta_hat, ahead.beta[k - 1])
        assert np.array_equal(block.P, (ahead.F * ahead.shrink[k - 1]) @ ahead.F.T)
    Z = np.tile([0.5, 0.1, -0.4, -1.0], (K, 1))
    quadratics = ahead.quadratic(Z)
    for k in range(K):
        est.absorb_repeated(points, oracle.measure_repeated(points, 1), 1)
        assert np.abs(ahead.beta[k] - est.beta_hat).max() <= 1e-9 * np.abs(est.beta_hat).max()
        assert quadratics[k] == pytest.approx(Z[k] @ est.P @ Z[k], rel=1e-9)
    with pytest.raises(ScatterSingularError):  # no P yet
        ConstraintEstimator(3, 6).forecast(points, np.zeros((2, 6, 6)))
    oracle.lookahead(points, K)
    for count in (0, K + 1):  # outside the lookahead
        with pytest.raises(ValueError):
            oracle.commit(points, count)


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("d", [2, 5, 20])
def test_quadratic_ahead_is_the_forecast_quadratic(d, kind):
    """The closed-form read z^T P_k z after k = 1..K more crosses equals the
    forecast's quadratic for the same z at every k, within 1e-12 relative,
    at an anchor that already holds absorbed crosses."""
    rng = np.random.default_rng(d)
    polytope = box_polytope(d)
    oracle = ConstraintOracle(polytope, NoiseModel(kind, 0.05, d), 0.01)
    est = ConstraintEstimator(d, polytope.m)
    points = cross_pattern(rng.uniform(-0.3, 0.3, d), 0.01, 2 * d).points
    for count in (1, 3):
        est.absorb_repeated(points, oracle.measure_repeated(points, count), count)
    K = 200
    ahead = est.forecast(points, oracle.lookahead(points, K))
    for z in (np.append(rng.uniform(-0.5, 0.5, d), -1.0), np.append(points[0], -1.0)):
        quadratics = est.quadratic_ahead(points, z, K)
        assert quadratics.shape == (K,)
        np.testing.assert_allclose(quadratics, ahead.quadratic(np.tile(z, (K, 1))), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 20])
def test_forecast_sums_are_the_calls_added_in_order(d):
    """The forecast's running sum at k equals the values of k calls
    measure_repeated(cross, 1) on a twin oracle added one after another, bit
    for bit, on both sides of LOOP_SUM_MIN (d = 2 sums by cumsum, d = 20 by
    the loop)."""
    est, oracle = cross_fed_estimator(box_polytope(d), 0.1, 4, 0.01, [np.zeros(d)], [2 * d])
    twin = copy.deepcopy(oracle)
    points = cross_pattern(np.full(d, 0.2), 0.01, 2 * d).points
    ahead = est.forecast(points, oracle.lookahead(points, 9))
    total = twin.measure_repeated(points, 1)
    assert ahead.sums.shape == (9, 2 * d, 2 * d)
    for k in range(1, 10):
        assert ahead.sums[k - 1].tobytes() == total.tobytes(), k
        total = total + twin.measure_repeated(points, 1)


def test_absorb_and_forecast_at_tiny_probe_radii():
    """300 designs, d = 1..20, probe radius omega0 from 1e-6 to 0.1, eight
    crosses at moving centres with counts up to 3e6: every absorb and every
    forecast goes through, with a positive definite P."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 21))
        beta = rng.normal(0.0, 1.0, (d + 1, 2))
        est = ConstraintEstimator(d, 2)
        for points, clean in moving_cross_absorbs(rng, est, beta, 10 ** rng.uniform(-6.0, -1.0), 8, 3 * 10**6):
            ahead = est.forecast(points, clean + rng.normal(0.0, 0.1, (4,) + clean.shape))
            assert np.all(ahead.shrink > 0.0)
        np.linalg.cholesky(est.P)


def test_one_factorization_follows_the_step_chain():
    """10,000 single crosses at one d = 2, sigma = 0.1 cross, with forecast
    blocks of up to 64 crosses interleaved, each committed and the
    forecast's running sum at its count absorbed in one call: the estimator,
    which factors
    the cross once, keeps beta_hat and P within 1e-10 relative of the chain
    that refactors P at every step."""
    polytope = box_polytope(2)
    est, oracle = cross_fed_estimator(polytope, 0.1, 3, 0.01, [np.zeros(2)], [4])
    ref = StepChainReference(est)
    points = cross_pattern(np.array([0.3, -0.2]), 0.01, 4).points
    rng = np.random.default_rng(3)
    singles = 0
    while singles < 10_000:
        for _ in range(int(rng.integers(1, 200))):
            sums = oracle.measure_repeated(points, 1)
            est.absorb_repeated(points, sums, 1)
            ref.absorb(points, sums, 1)
            singles += 1
        K = int(rng.integers(2, 65))
        values = oracle.lookahead(points, K)
        count = int(rng.integers(1, K + 1))
        ahead = est.forecast(points, values)
        oracle.commit(points, count)
        est.absorb_repeated(points, ahead.sums[count - 1], count)
        assert np.array_equal(est.beta_hat, ahead.beta[count - 1])
        ref.absorb(points, values[:count].sum(axis=0), count)
    assert np.abs(est.beta_hat - ref.beta).max() <= 1e-10 * np.abs(ref.beta).max()
    assert np.abs(est.P - ref.P).max() <= 1e-10 * np.abs(ref.P).max()


def test_one_eigendecomposition_per_cross(monkeypatch):
    """Adaptive d = 5 runs call np.linalg.eigh from the estimator once per
    distinct probe cross absorbed once P exists, however many passes and
    forecast blocks measure that cross again."""
    calls = {"eigh": 0, "passes": 0}
    crosses = set()  # of the current run
    eigh, absorb = np.linalg.eigh, ConstraintEstimator.absorb_repeated

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += sys._getframe(1).f_globals["__name__"] == "safefw.estimator"
        return eigh(*args, **kwargs)

    def recorded_absorb(self, point, value_sum, count):
        if self.P is not None:
            crosses.add(np.asarray(point, dtype=float).tobytes())
            calls["passes"] += 1
        return absorb(self, point, value_sum, count)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(ConstraintEstimator, "absorb_repeated", recorded_absorb)
    res = resolve(ExperimentConfig(problem={"type": "box", "d": 5}, sigma=0.05, T=15, max_total_measurements=100_000))
    distinct = 0
    for seed in range(2):
        crosses.clear()
        run_single(res, seed)
        distinct += len(crosses)
    assert calls["passes"] > 2 * distinct
    assert calls["eigh"] == distinct


def exact_quadratic(M, z):
    """z^T M^-1 z for a nonsingular matrix M and a vector z of Fractions, by
    Gauss-Jordan elimination with no rounding."""
    n = len(z)
    rows = [list(row) + [z[i]] for i, row in enumerate(M)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return sum(z[i] * rows[i][n] / rows[i][i] for i in range(n))


@pytest.mark.parametrize("half_width", [1.0, 1e2])
def test_ellipsoid_quadratic_matches_an_exact_inverse(monkeypatch, half_width):
    """After every absorb of an adaptive run, committed blocks included (d = 2
    box, omega0 = sigma = 0.01, seed 0), z^T P z lies within 1e-6 relative of z^T (V^T V)^-1 z
    over the measured design, kept in Fractions, for z = [x; -1] at the box's
    corners, the midpoints of its sides and 0."""
    points = [np.array(c) * half_width for c in itertools.product([-1.0, 0.0, 1.0], repeat=2)]
    Z = [np.append(x, -1.0) for x in points]
    design = [[Fraction(0)] * 3 for _ in range(3)]
    errors = []

    class ExactDesign(ConstraintEstimator):
        def absorb_repeated(self, point, value_sum, count):
            super().absorb_repeated(point, value_sum, count)
            for x in np.atleast_2d(point):
                v = [Fraction(float(t)) for t in x] + [Fraction(-1)]
                for i, j in itertools.product(range(3), repeat=2):
                    design[i][j] += count * v[i] * v[j]
            if self.P is not None:
                for z in Z:
                    exact = exact_quadratic(design, [Fraction(float(t)) for t in z])
                    errors.append(abs(float(z @ self.P @ z) - float(exact)) / float(exact))

    monkeypatch.setattr(harness, "ConstraintEstimator", ExactDesign)
    res = resolve(ExperimentConfig(problem={"type": "box", "d": 2, "half_width": half_width}, omega0=0.01))
    assert run_single(res, 0)[1].status == "completed"
    assert len(errors) > 100 and max(errors) <= 1e-6
