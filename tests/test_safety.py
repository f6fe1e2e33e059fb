"""Safety tests: margins, the scalar test, the cone-form lookahead test, schedule constants."""

import math

import numpy as np
import pytest

from safefw.estimator import ConstraintEstimator, Forecast, phi_inverse
from safefw.oracle import cross_pattern
from safefw.problem import box_geometry_constants, box_polytope
from safefw.safety import (
    SafetyConfig,
    c_delta_constant,
    cn_lower_bound,
    fact2_check,
    make_safety_config,
    margins,
    nt_schedule,
    unsafe_ahead,
)

from helpers import EXTENDED, box_estimator_exact, random_estimator


def config(phi_delta, omega0=0.01, cn=96.0, T=15):
    return SafetyConfig(T=T, omega0=omega0, phi_delta=phi_delta, cn=cn)


def test_margins_exact_box():
    est, _ = box_estimator_exact(2)
    assert np.allclose(margins(est, np.zeros(2)), 1.0, atol=1e-12)
    eps = margins(est, np.array([1.0, 0.0]))
    assert eps[0] == pytest.approx(0.0, abs=1e-12)  # on the +x1 facet


def test_margins_affine():
    rng = np.random.default_rng(0)
    est, _ = random_estimator(rng, 3, 4, 40, sigma=0.3)
    for _ in range(10):
        x, y = rng.normal(0, 1, 3), rng.normal(0, 1, 3)
        lam = rng.uniform()
        left = margins(est, lam * x + (1 - lam) * y)
        right = lam * margins(est, x) + (1 - lam) * margins(est, y)
        assert np.allclose(left, right, atol=1e-12)


def test_fact2_zero_radius_safe():
    est, _ = box_estimator_exact(2)
    verdict = fact2_check(est, config(0.0), np.array([0.3, -0.2]))
    assert verdict.safe and verdict.lhs == 0.0 and verdict.min_margin > 0


def test_fact2_negative_margin_unsafe():
    est, _ = box_estimator_exact(2)
    x = np.array([1.5, 0.0])
    verdict = fact2_check(est, config(0.0), x)
    assert not verdict.safe
    assert verdict.min_margin < 0
    assert verdict.lhs >= 0.0
    assert verdict.min_margin == margins(est, x)[0]  # the +x1 facet, the one x crosses


def test_lhs_non_increasing_with_new_batches():
    """Each extra cross batch at x_t shrinks the uncertainty radius at x_t and at
    the stepped candidates x_t + gamma (s - x_t) the adaptive loop tests."""
    from helpers import cross_fed_estimator

    p = box_polytope(2)
    cfg = config(0.5)
    vertices = [np.array(v, dtype=float) for v in ([1, 1], [1, -1], [-1, -1])]
    for seed, center in enumerate(([0.0, 0.0], [0.4, 0.1], [-0.6, 0.5], [0.85, -0.8])):
        center = np.array(center)
        est, oracle = cross_fed_estimator(p, 0.05, 3 + seed, 0.01, [np.zeros(2), center], [4, 4 * (seed + 1)])
        probes = [center, np.array([0.4, 0.1])]
        probes += [center + gamma * (v - center) for v in vertices for gamma in (0.5, 1.0 / 7, 1.0 / 16)]
        prev = [fact2_check(est, cfg, x).lhs for x in probes]
        for _ in range(6):
            pat = cross_pattern(center, 0.01, 4)
            for pt in pat.points:
                est.absorb_repeated(pt, oracle.measure_repeated(pt, 1), 1)
            cur = [fact2_check(est, cfg, x).lhs for x in probes]
            assert all(c <= p_ + 1e-12 for c, p_ in zip(cur, prev))
            prev = cur


def clustered_crosses(rng, d=20, batches=40):
    """Cross patterns at 40 centres clustered near 0.9 * 1 in d = 20."""
    return [cross_pattern(0.9 * np.ones(d) + rng.normal(0.0, 0.002, d), 0.01, 2 * d) for _ in range(batches)]


def worst_fact2_radius_error(est, points, rng):
    """Worst relative error of the squared Fact-2 radius 1/N + (x - xbar)^T R (x - xbar)
    at 20 points near 0.9 * 1, against a long-double reference from two-pass
    centred sums of the absorbed points, solved with one refinement step."""
    d = est.d
    X = np.array(points, dtype=np.longdouble)
    xbar = X.mean(axis=0)
    scatter = (X - xbar).T @ (X - xbar)
    scatter64 = scatter.astype(float)
    worst = 0.0
    for _ in range(20):
        x = 0.9 * np.ones(d) + rng.normal(0.0, 0.01, d)
        diff = x.astype(np.longdouble) - xbar
        y = np.linalg.solve(scatter64, diff.astype(float)).astype(np.longdouble)
        y += np.linalg.solve(scatter64, (diff - scatter @ y).astype(float))  # one refinement step
        reference = 1 / np.longdouble(est.N) + diff @ y
        got = fact2_check(est, config(1.0), x).lhs ** 2
        worst = max(worst, float(abs(got - reference) / reference))
    return worst


@EXTENDED
def test_fact2_radius_matches_extended_precision_reference():
    """d = 20, probes clustered near 0.9 * 1, absorbed one point at a time. An
    R formed by inverting the scatter assembled from the running sums loses
    digits to cancellation (about 4e-9 relative on this design) and fails the
    bound; P's block does not."""
    rng = np.random.default_rng(0)
    est = ConstraintEstimator(20, 1)
    points = []
    for pattern in clustered_crosses(rng):
        for pt in pattern.points:
            est.absorb_repeated(pt, np.zeros(1), pattern.multiplicity)
            points += [pt] * pattern.multiplicity
    worst = worst_fact2_radius_error(est, points, rng)
    assert worst <= 5e-10, worst


@EXTENDED
def test_fact2_radius_after_whole_cross_absorbs():
    """The same design absorbed one whole cross per call (the eigen-form step
    on P) meets the same extended-precision bound."""
    rng = np.random.default_rng(0)
    est = ConstraintEstimator(20, 1)
    points = []
    for pattern in clustered_crosses(rng):
        est.absorb_repeated(pattern.points, np.zeros((len(pattern.points), 1)), pattern.multiplicity)
        points += list(np.repeat(pattern.points, pattern.multiplicity, axis=0))
    worst = worst_fact2_radius_error(est, points, rng)
    assert worst <= 5e-10, worst


def test_cn_lower_bound_quadratic_in_phi():
    geo = box_geometry_constants(2, 1.0, np.zeros(2))
    low = cn_lower_bound(geo, config(1.0), 2)
    high = cn_lower_bound(geo, config(2.0), 2)
    assert high == pytest.approx(4.0 * low, rel=1e-12)


def test_cn_lower_bound_reported_constants():
    # d=2 box with eps0=1, phi=3.43, rho_min=1, Gamma0=sqrt(2), omega0=0.01, T=15
    geo = box_geometry_constants(2, 1.0, np.zeros(2))
    cfg = config(3.43)
    got = cn_lower_bound(geo, cfg, 2)

    # independent re-evaluation, written out verbatim
    g0 = math.sqrt(2.0)
    c_delta = 2.0 * 3.43 * 2 * (g0 + 1.0) / 1.0 * math.sqrt((g0 * g0 + 1.0) / 0.01**2 + 1.0)
    lnln = math.log(math.log(15.0))
    expected = c_delta**2 * max(4.0 * lnln**2 * 1.0 / 1.0, 1.0 / (g0 + 1.0) ** 2)
    assert got == pytest.approx(expected, rel=1e-12)
    assert c_delta_constant(geo, cfg, 2) == pytest.approx(c_delta, rel=1e-12)
    assert 1e8 < got < 2e8  # magnitude sanity for the reported constants


def test_nt_schedule_first_value():
    # independent arithmetic: ceil(4 * 96 * 2 * ln(2)^2)
    expected = math.ceil(4.0 * 96.0 * 2.0 * math.log(2.0) ** 2)
    assert expected == 369
    assert nt_schedule(96.0, 0) == expected


def test_nt_schedule_monotone_and_degenerate():
    assert nt_schedule(0.0, 5) == 0
    values = [nt_schedule(96.0, t) for t in range(40)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        nt_schedule(96.0, -1)
    with pytest.raises(ValueError):
        nt_schedule(-1.0, 0)


def test_safety_config_invariants():
    cfg = make_safety_config(delta=0.1, T=15, m=4, d=2, sigma=0.01, omega0=0.01)
    assert cfg.phi_delta == 0.01 * phi_inverse(2, 0.1 / 15 / 4)
    with pytest.raises(ValueError):
        SafetyConfig(T=2, omega0=0.01, phi_delta=1.0, cn=0.0)
    # delta / T / m = 2 / 60 lies in (0, 1), so only make_safety_config's own check catches delta = 2
    with pytest.raises(ValueError, match="delta must lie in"):
        make_safety_config(delta=2.0, T=15, m=4, d=2, sigma=0.01, omega0=0.01)


def test_safety_config_given_radius():
    # a radius other than the chisq one is set by building SafetyConfig directly
    assert config(3.43).phi_delta == 3.43
    with pytest.raises(ValueError):
        config(-1.0)
    with pytest.raises(ValueError):
        config(1.0, omega0=0.0)


def test_unsafe_ahead_leaves_ties_and_near_ties_to_the_loop():
    """At x = 0 the radius is phi_delta and the margin b: a margin below the
    radius reads unsafe, an equal one safe (as in fact2_check), and a gap of
    1e-12 unsafe only without the band."""
    b = np.array([0.4, 0.5, 0.5 - 1e-12])
    ahead = Forecast(beta=np.stack([[[1.0], [v]] for v in b]), F=np.eye(2), shrink=np.ones((3, 2)),
                     sums=np.zeros((3, 2, 1)))  # d = 1, m = 1: a = 1, z^T P_k z = x^2 + 1; a cross of 2 points
    X = np.zeros((3, 1))
    assert unsafe_ahead(ahead, config(0.5), X, 0.0).tolist() == [True, False, True]
    assert unsafe_ahead(ahead, config(0.5), X, 1e-9).tolist() == [True, False, False]
