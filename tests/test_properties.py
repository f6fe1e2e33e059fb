"""Property tests: the incremental estimator against dense solves of its
recorded design, and the scalar safety test against its cone form, over
generated sequences of single-point and stacked absorbs; the estimator
against an extended-precision solve at counts up to 10^6; and a committed
lookahead block against its forecast and against measuring and absorbing
the same crosses."""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from safefw.estimator import LOOP_SUM_MIN, ConstraintEstimator, _running_sums
from safefw.oracle import NOISE_KINDS, ConstraintOracle, NoiseModel, cross_pattern
from safefw.safety import SafetyConfig, fact2_check, soc_check

from helpers import (
    EXTENDED,
    RecordingEstimator,
    absorb_crosses_reference,
    extended_least_squares,
    moving_cross_absorbs,
    random_bounded_polytope,
)

# Derandomized and without an example database, so every run of the suite
# checks the same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Probe coordinates on a 1/8 grid keep every spanning design well conditioned,
# so the tolerances below measure accumulated rounding, not ill-posedness.
coordinate = st.integers(-8, 8).map(lambda k: k / 8.0)
value = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def absorbed(draw):
    """A recording estimator after a generated sequence of absorb calls, each
    one point or a stack of up to 5 points; the sequence always spans R^(d+1)."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    est = RecordingEstimator(d, m)
    for _ in range(draw(st.integers(d + 1, 20))):
        n = draw(st.integers(1, 5))
        X = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=n, max_size=n)))
        Y = np.array(draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n)))
        count = draw(st.integers(1, 5))
        if n > 1 or draw(st.booleans()):
            est.absorb_repeated(X, Y, count)
        else:
            est.absorb_repeated(X[0], Y[0], count)
    assume(est.P is not None)
    return est


def dense_design(est):
    """The recorded design V (one [x, -1] row per measurement) and its responses."""
    V, Y = [], []
    for x, count, ysum in est.rows:
        V += [np.append(x, -1.0)] * count
        Y += [ysum / count] * count
    return np.array(V), np.array(Y)


@PROPERTY
@given(absorbed())
def test_estimator_matches_dense_solve(est):
    V, Y = dense_design(est)
    P = np.linalg.inv(V.T @ V)
    beta = np.linalg.lstsq(V, Y, rcond=None)[0]
    assert np.abs(est.P - P).max() <= 1e-9 * np.abs(P).max()
    assert np.abs(est.beta_hat - beta).max() <= 1e-9 * (1.0 + np.abs(beta).max())


@EXTENDED
@pytest.mark.parametrize("seed", range(20))
def test_estimator_matches_extended_precision_at_large_counts(seed):
    """Eight crosses at moving centres, d = 2..7, counts up to 10^6: beta_hat
    and P stay within 1e-9 relative of the long-double least-squares solution,
    which an update that subtracts a correction from P misses as the
    correction cancels P at large counts."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 8))
    beta = rng.normal(0.0, 1.0, (d + 1, 3))
    est = RecordingEstimator(d, 3)
    for _ in moving_cross_absorbs(rng, est, beta, 0.01, 8, 10**6):
        pass
    beta_ref, P_ref = extended_least_squares(est)
    assert float(np.abs(est.beta_hat - beta_ref).max() / np.abs(beta_ref).max()) <= 1e-9
    assert float(np.abs(est.P - P_ref).max() / np.abs(P_ref).max()) <= 1e-9


@PROPERTY
@given(absorbed(), st.floats(0.0, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_fact2_matches_soc_lhs(est, phi, point):
    cfg = SafetyConfig(T=15, omega0=0.01, phi_delta=phi, cn=0.0)
    x = np.array(point[: est.d])
    f2 = fact2_check(est, cfg, x)
    soc = soc_check(est, cfg, x)
    assert abs(f2.lhs - soc.lhs) <= 1e-9 * (1.0 + f2.lhs)
    assert f2.min_margin == soc.min_margin


@PROPERTY
@given(
    st.integers(1, 6), st.integers(0, 2), st.sampled_from(NOISE_KINDS), st.sampled_from([0.0, 0.1]),
    st.integers(0, 2**32 - 1), st.integers(1, 5),
    st.integers(2, 64).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K))),
)
@example(20, 0, "gaussian", 0.1, 7, 3, (28, 17))
def test_commit_equals_block_absorb(d, cuts, kind, sigma, seed, warm, block):
    """Committing the first `count` of K peeked crosses and absorbing the
    forecast's running sum at `count` lands on the forecast's beta and P
    there, and leaves the estimator (beta_hat, P, N, sum_x, sum_outer) and
    the oracle (out-of-reach count and noise stream) bit for bit where
    measuring those crosses and absorbing their summed values leaves them. The cross pokes
    past facet 0 by more than omega0, so its reach events count; d = 20 runs
    the forecast's running sums on the loop side of LOOP_SUM_MIN; sigma = 0
    sums the broadcast signal."""
    K, count = block
    rng = np.random.default_rng(seed)
    polytope = random_bounded_polytope(rng, d, 2 * d + cuts)
    omega0 = 0.1
    oracle = ConstraintOracle(polytope, NoiseModel(kind, sigma, seed), omega0)
    est = ConstraintEstimator(d, polytope.m)
    first = cross_pattern(np.zeros(d), omega0, 2 * d * warm)
    est.absorb_repeated(first.points, oracle.measure_repeated(first.points, first.multiplicity), first.multiplicity)
    center = np.zeros(d)
    center[0] = polytope.b[0] + 0.5 * omega0
    points = cross_pattern(center, omega0, 2 * d).points
    ref_oracle, ref_est = copy.deepcopy(oracle), copy.deepcopy(est)

    values = oracle.lookahead(points, K)
    ahead = est.forecast(points, values)
    oracle.commit(points, count)
    est.absorb_repeated(points, ahead.sums[count - 1], count)
    absorb_crosses_reference(ref_oracle, ref_est, points, count)
    assert np.array_equal(est.beta_hat, ahead.beta[count - 1])
    assert np.array_equal(est.P, (ahead.F * ahead.shrink[count - 1]) @ ahead.F.T)

    for name in ("beta_hat", "P", "sum_x", "sum_outer"):
        assert np.array_equal(getattr(est, name), getattr(ref_est, name)), name
    assert est.N == ref_est.N
    assert oracle.out_of_reach_events == ref_oracle.out_of_reach_events >= count
    assert np.array_equal(oracle.measure_repeated(points, 1), ref_oracle.measure_repeated(points, 1))
    wide = np.tile(values, (1, math.ceil(LOOP_SUM_MIN / values[0].size), 1))
    for sums in (values, wide):
        assert np.array_equal(_running_sums(sums), np.cumsum(sums, axis=0))
