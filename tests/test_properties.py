"""Property tests: the incremental estimator against dense solves of its
recorded design, and the scalar safety test against its cone form, over
generated sequences of single-point and stacked absorbs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safefw.safety import SafetyConfig, fact2_check, soc_check

from helpers import RecordingEstimator

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


@PROPERTY
@given(absorbed(), st.floats(0.0, 2.0), st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_fact2_matches_soc_lhs(est, phi, point):
    cfg = SafetyConfig(T=15, omega0=0.01, phi_delta=phi, cn=0.0)
    x = np.array(point[: est.d])
    f2 = fact2_check(est, cfg, x)
    soc = soc_check(est, cfg, x)
    assert abs(f2.lhs - soc.lhs) <= 1e-9 * (1.0 + f2.lhs)
    assert f2.min_margin == soc.min_margin
