"""Noisy constraint oracle: exact values, noise statistics, probe pattern."""

import tracemalloc

import numpy as np
import pytest

from safefw import oracle as oracle_mod
from safefw.oracle import NOISE_KINDS, ConstraintOracle, NoiseModel, cross_pattern
from safefw.problem import Polytope, box_polytope

from helpers import WholeDrawOracle, random_bounded_polytope


def make_oracle(sigma=0.0, seed=0, kind="gaussian", omega0=0.01, d=2):
    return ConstraintOracle(box_polytope(d), NoiseModel(kind, sigma, seed), omega0)


def test_noiseless_center_of_box():
    assert np.array_equal(make_oracle().measure_repeated(np.zeros(2), 1), [-1.0, -1.0, -1.0, -1.0])


def test_noiseless_boundary_point():
    assert np.array_equal(make_oracle().measure_repeated(np.array([1.0, 0.0]), 1), [0.0, -2.0, -1.0, -1.0])


def test_law_of_large_numbers():
    sigma, n = 0.01, 10**5
    o = make_oracle(sigma=sigma, seed=42)
    mean = o.measure_repeated(np.zeros(2), n) / n
    assert np.all(np.abs(mean - (-1.0)) <= 4.0 * sigma / np.sqrt(n))


def test_repeated_equals_sum_of_singles_statistically():
    # aggregate path uses the same generator; check first and second moments
    o = make_oracle(sigma=0.5, seed=7)
    total = o.measure_repeated(np.zeros(2), 20000)
    assert np.all(np.abs(total / 20000 + 1.0) < 0.02)


def test_empirical_variance_bounded():
    for kind in ("gaussian", "bounded-uniform"):
        sigma = 0.3
        o = make_oracle(sigma=sigma, seed=3, kind=kind)
        samples = np.array([o.measure_repeated(np.zeros(2), 1) for _ in range(10**4)])
        noise = samples + 1.0
        var = noise.var(axis=0)
        assert np.all(var <= sigma**2 * 1.1)


def test_bounded_uniform_support():
    sigma = 0.2
    o = make_oracle(sigma=sigma, seed=1, kind="bounded-uniform")
    samples = np.array([o.measure_repeated(np.zeros(2), 1) for _ in range(2000)])
    assert np.max(np.abs(samples + 1.0)) <= sigma


def test_seed_determinism():
    a = make_oracle(sigma=0.1, seed=99)
    b = make_oracle(sigma=0.1, seed=99)
    for _ in range(5):
        x = np.array([0.1, -0.2])
        assert np.array_equal(a.measure_repeated(x, 1), b.measure_repeated(x, 1))
    assert np.array_equal(a.measure_repeated(x, 37), b.measure_repeated(x, 37))


def test_cross_pattern_d2():
    pat = cross_pattern(np.zeros(2), 0.01, 4)
    expected = {(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01)}
    assert {tuple(p) for p in pat.points} == expected
    assert pat.multiplicity == 1 and len(pat.points) * pat.multiplicity == 4


def test_cross_pattern_d1_even_split():
    pat = cross_pattern(np.zeros(1), 0.5, 10)
    assert pat.points.shape == (2, 1)
    assert pat.multiplicity == 5 and len(pat.points) * pat.multiplicity == 10


def test_cross_pattern_ceiling():
    pat = cross_pattern(np.zeros(3), 0.1, 7)
    assert pat.points.shape == (6, 3)
    assert pat.multiplicity == 2 and len(pat.points) * pat.multiplicity == 12


def test_cross_pattern_too_few():
    with pytest.raises(ValueError):
        cross_pattern(np.zeros(3), 0.1, 5)


def test_out_of_reach_accounting():
    o = make_oracle(omega0=0.01)
    o.measure_repeated(np.array([0.5, 0.5]), 1)
    assert o.out_of_reach_events == 0
    o.measure_repeated(np.array([1.005, 0.0]), 1)  # within omega0 of the facet
    assert o.out_of_reach_events == 0
    o.measure_repeated(np.array([2.0, 0.0]), 1)
    assert o.out_of_reach_events == 1
    o.measure_repeated(np.array([[2.0, 0.0], [0.5, 0.5], [0.0, -3.0]]), 3)  # one event per point
    assert o.out_of_reach_events == 3


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_out_of_reach_threshold(scale):
    """A point counts when its deficit passes omega0 by more than FEAS_TOL
    max(omega0, |x|), about 1.01e-9 at (1.01, 0) in the unit box, and the
    slack scales with the box; a redundant far row x_1 <= 1e10 s leaves it."""
    box = box_polytope(2, scale)
    p = Polytope(np.vstack([box.A, [1.0, 0.0]]), np.append(box.b, 1e10 * scale))
    o = ConstraintOracle(p, NoiseModel("gaussian", 0.0, 0), 0.01 * scale)
    o.measure_repeated(np.array([(1.01 + 0.9e-9) * scale, 0.0]), 1)
    assert o.out_of_reach_events == 0
    o.measure_repeated(np.array([(1.01 + 1.1e-9) * scale, 0.0]), 1)
    assert o.out_of_reach_events == 1


def test_cross_pattern_radius_invariant():
    for center, omega0, n in (([0.2, -0.1], 0.05, 4), ([0.0, 0.3, -0.7], 0.01, 13)):
        pat = cross_pattern(np.array(center), omega0, n)
        offsets = pat.points - np.array(center)
        assert np.all(np.max(np.abs(offsets), axis=1) <= omega0 + 1e-12)
        assert np.all(np.count_nonzero(np.abs(offsets) > 1e-12, axis=1) == 1)  # one axis each


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("poisson", 0.1, 0)
    with pytest.raises(ValueError):
        NoiseModel("gaussian", -0.1, 0)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_stacked_measure_matches_per_point_calls(kind, monkeypatch):
    """A stack of points returns the per-point sums bit for bit, from one
    (n, count, m) draw when the stack's noise fits the buffer and from
    per-point streamed sums when it does not (a count of 25 with the buffer
    lowered to 40 values streams 5 rows at a time)."""
    polytope = random_bounded_polytope(np.random.default_rng(0), 3, 8)
    points = cross_pattern(np.array([0.1, -0.2, 0.05]), 0.01, 6).points
    for count, piece in ((5, oracle_mod._PIECE), (25, 40)):
        monkeypatch.setattr(oracle_mod, "_PIECE", piece)
        stacked = ConstraintOracle(polytope, NoiseModel(kind, 0.1, 11), 0.01)
        single = ConstraintOracle(polytope, NoiseModel(kind, 0.1, 11), 0.01)
        sums = stacked.measure_repeated(points, count)
        assert sums.shape == (6, 8)
        assert np.array_equal(sums, [single.measure_repeated(x, count) for x in points])
        assert np.array_equal(stacked.measure_repeated(points[0], 1), single.measure_repeated(points[0], 1))  # streams stay aligned


@pytest.mark.parametrize("kind,sigma", [("gaussian", 0.1), ("bounded-uniform", 0.1), ("gaussian", 0.0)])
def test_lookahead_returns_the_next_calls_without_consuming(kind, sigma):
    """Peeked values equal the calls that follow bit for bit, an overlapping
    second peek reuses the kept noise, and the stream then reads on (a cross
    with multiplicity 5, then a draw streamed through the buffer) exactly as
    without any peek. Peeking counts no out-of-reach event. Committing peeked
    calls leaves the stream and the count where measuring them would, and a
    commit past the peek is refused."""
    polytope = random_bounded_polytope(np.random.default_rng(1), 2, 6)
    points = np.vstack([cross_pattern(np.array([0.1, -0.2]), 0.01, 4).points, [[3.0, 0.0]]])  # last out of reach
    peeker = ConstraintOracle(polytope, NoiseModel(kind, sigma, 5), 0.01)
    plain = ConstraintOracle(polytope, NoiseModel(kind, sigma, 5), 0.01)
    ahead = peeker.lookahead(points, 7)
    assert ahead.shape == (7, 5, 6) and peeker.out_of_reach_events == 0
    for k in range(3):
        measured = peeker.measure_repeated(points, 1)
        assert np.array_equal(measured, ahead[k]) and np.array_equal(measured, plain.measure_repeated(points, 1))
    again = peeker.lookahead(points, 6)
    assert np.array_equal(again[:4], ahead[3:]) and peeker.out_of_reach_events == 3
    assert np.array_equal(peeker.measure_repeated(points, 5), plain.measure_repeated(points, 5))
    assert np.array_equal(peeker.measure_repeated(points[:2], 25_000), plain.measure_repeated(points[:2], 25_000))
    assert np.array_equal(peeker.measure_repeated(points, 1), plain.measure_repeated(points, 1))
    assert peeker.out_of_reach_events == plain.out_of_reach_events == 5
    peeker.lookahead(points, 4)
    peeker.commit(points, 3)  # the first three peeked calls, made without measuring them
    for _ in range(3):
        plain.measure_repeated(points, 1)
    assert peeker.out_of_reach_events == plain.out_of_reach_events == 8
    assert np.array_equal(peeker.measure_repeated(points, 1), plain.measure_repeated(points, 1))  # the kept fourth
    with pytest.raises(ValueError):  # nothing peeked is left to commit
        peeker.commit(points, 1)


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_commit_takes_only_peeked_calls(sigma):
    """With or without noise, `commit` takes only calls that a lookahead at the
    same points peeked at and no call has made since: a fresh oracle refuses
    every count, a peek at other points does not count, and each measured
    call uses up one peeked call. What it takes leaves the stream where
    measuring those calls would, and nothing comes back."""
    cross = cross_pattern(np.zeros(2), 0.01, 4).points
    o, plain = make_oracle(sigma=sigma, seed=3), make_oracle(sigma=sigma, seed=3)
    for count in (1, 5):
        with pytest.raises(ValueError, match="peeked at 0"):
            o.commit(cross, count)
    o.lookahead(cross + 0.1, 3)
    with pytest.raises(ValueError, match="peeked at 0"):
        o.commit(cross, 1)
    o.lookahead(cross, 3)
    assert np.array_equal(o.measure_repeated(cross, 1), plain.measure_repeated(cross, 1))
    with pytest.raises(ValueError, match="peeked at 2"):
        o.commit(cross, 3)
    assert o.commit(cross, 2) is None
    plain.measure_repeated(cross, 1)
    plain.measure_repeated(cross, 1)
    with pytest.raises(ValueError, match="peeked at 0"):
        o.commit(cross, 1)
    assert np.array_equal(o.measure_repeated(cross, 1), plain.measure_repeated(cross, 1))


def _signal_and_reach(points, count):
    """What a fresh noise-free oracle returns and counts for one call."""
    fresh = make_oracle()
    return fresh.measure_repeated(points, count), fresh.out_of_reach_events


def test_cached_signal_matches_a_fresh_oracle():
    """The oracle computes the signal and reach count once per stack; its
    values and counts stay bit for bit those of a fresh oracle when stacks
    alternate between two crosses (and a single point), when the caller
    changes the points array in place after a call, and when the caller
    changes an array the oracle returned."""
    o = make_oracle()
    inside = cross_pattern(np.array([0.3, -0.2]), 0.01, 4).points
    outside = cross_pattern(np.array([1.5, 0.0]), 0.01, 4).points  # every point past reach
    events = 0
    for points in (inside, outside, inside, outside[0], outside, inside, outside):
        values, reach = _signal_and_reach(points, 3)
        assert np.array_equal(o.measure_repeated(points, 3), values)
        events += reach
        assert o.out_of_reach_events == events
        assert np.array_equal(o.lookahead(points, 2), np.stack([np.atleast_2d(_signal_and_reach(points, 1)[0])] * 2))
        o.commit(points, 2)
        events += 2 * reach
        assert o.out_of_reach_events == events
    points = inside.copy()
    o.measure_repeated(points, 1)
    points[0, 0] += 1.0  # now past reach
    values, reach = _signal_and_reach(points, 1)
    assert reach == 1 and np.array_equal(o.measure_repeated(points, 1), values)
    assert o.out_of_reach_events == events + reach
    returned = o.measure_repeated(points, 1)
    returned[:] = 7.0
    assert np.array_equal(o.measure_repeated(points, 1), values)
    peeked = o.lookahead(points, 3)
    peeked[:] = 7.0
    assert np.array_equal(o.lookahead(points, 3), np.stack([values] * 3))
    assert np.array_equal(o.measure_repeated(points[0], 1), values[0])


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("m", [2, 3, 8])
@pytest.mark.parametrize("piece,pushback", [(48, 240), (240, 48)])
def test_streamed_noise_sums_equal_whole_draws_bit_for_bit(kind, m, piece, pushback, monkeypatch):
    """The streamed kernel returns the sum of each point's whole draw, summed
    with .sum, bit for bit: for one point and a stack of three, from an empty
    pushback buffer and after a lookahead left at least `pushback` values in
    it (more than a piece holds, or fewer), and at counts below, at and
    across the rows of one piece (lowered here); peeked calls agree, and
    commits leave both streams alike."""
    monkeypatch.setattr(oracle_mod, "_PIECE", piece)
    rows = max(2, piece // m)  # of a piece
    polytope = random_bounded_polytope(np.random.default_rng(m), 1, m)
    stack = np.array([[0.1], [-0.2], [0.05]])
    counts = sorted({1, 2, rows // 3, rows // 3 + 1, rows - 1, rows, rows + 1, 2 * rows + 1, 5 * rows + 3})
    streamed = ConstraintOracle(polytope, NoiseModel(kind, 0.1, 7), 0.01)
    whole = WholeDrawOracle(polytope, NoiseModel(kind, 0.1, 7), 0.01)
    for count in counts:
        for points in (stack[0], stack):
            for peek in (0, -(-pushback // (points.size * m))):  # calls of points.size points (d = 1)
                if peek:
                    assert streamed.lookahead(points, peek).tobytes() == whole.lookahead(points, peek).tobytes()
                got, want = streamed.measure_repeated(points, count), whole.measure_repeated(points, count)
                assert got.tobytes() == want.tobytes(), (count, points.shape, peek)
        assert streamed.lookahead(stack, 4).tobytes() == whole.lookahead(stack, 4).tobytes()
        streamed.commit(stack, 3)
        whole.commit(stack, 3)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_one_constraint_stack_equals_per_point_calls(kind, monkeypatch):
    """At m = 1 (a library-only case: a bounded polytope has m >= 2) einsum
    adds a lane in another order than .sum, so only the stack's agreement
    with per-point calls is pinned, across the piece size."""
    monkeypatch.setattr(oracle_mod, "_PIECE", 24)
    polytope = Polytope(np.array([[1.0]]), np.array([1.0]))
    points = np.array([[0.1], [-0.2], [0.3], [0.0]])
    for count in (1, 2, 5, 6, 7, 23, 24, 25, 59, 60, 61, 150):
        stacked = ConstraintOracle(polytope, NoiseModel(kind, 0.1, 2), 0.01)
        single = ConstraintOracle(polytope, NoiseModel(kind, 0.1, 2), 0.01)
        sums = stacked.measure_repeated(points, count)
        assert sums.tobytes() == np.array([single.measure_repeated(x, count) for x in points]).tobytes(), count


def test_a_point_past_four_million_values_is_summed_in_one_order():
    """150,000 measurements at one point of a d = 20 box (6,000,000 noise
    values) return count (A x - b) plus the whole draw's .sum(axis=0), bit
    for bit: the noise is added in stream order from zero, with no block
    boundary however large the count."""
    polytope, x, count = box_polytope(20), np.full(20, 0.1), 150_000
    o = ConstraintOracle(polytope, NoiseModel("gaussian", 0.1, 4), 0.01)
    noise = np.random.default_rng(4).normal(0.0, 0.1, (count, polytope.m)).sum(axis=0)
    want = count * (polytope.A @ x - polytope.b) + noise
    assert o.measure_repeated(x, count).tobytes() == want.tobytes()


def test_large_count_memory_is_bounded():
    """Two million measurements at each point of a d = 2 cross stream through
    the oracle's buffer (about 0.5 MB, allocated with the oracle): the call
    peaks below 2 MB, where a whole draw of one point's 8,000,000 values
    would take 64 MB."""
    cross = cross_pattern(np.zeros(2), 0.01, 4).points
    o = ConstraintOracle(box_polytope(2), NoiseModel("gaussian", 0.1, 0), 0.01)
    tracemalloc.start()
    try:
        sums = o.measure_repeated(cross, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000 and sums.shape == (4, 4)
