"""Simulated noisy zeroth-order constraint oracle and the coordinate cross
probe pattern (2d points at x +/- omega0 e_i).

`measure_repeated` takes one point or a stack of points, so a whole cross is
measured in one call. The noise is written in place into one buffer of about
_PIECE values per oracle, never into a temporary of the call's size. A stack
whose noise fits it is drawn at once as (n, count, m); a larger call streams
each point's noise through it a piece at a time, the running sum carried as
the piece's first row. Either way each point's rows are added in stream
order, from zero, whatever the count, so a stack returns the sums of
per-point calls bit for bit (and, for m >= 2, the sum of each point's whole
draw added with .sum). `lookahead` peeks at future calls; their noise waits
in a buffer that every later draw reads first. `commit` then takes the first
peeked calls, and no others, as made: it consumes their noise and counts
their out-of-reach events, so the stream and the count stand where the
measurements would leave them; their values are the ones peeked at. The
signal A x - b and the out-of-reach count of a stack are computed once for
the last stack seen, so the repeated passes at one probe cross read them
instead of recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import FEAS_TOL, Polytope

NOISE_KINDS = ("gaussian", "bounded-uniform")
_PIECE = 1 << 16  # values in the noise buffer, which bounds per-call memory


@dataclass
class NoiseModel:
    """Sub-Gaussian measurement noise with parameter sigma.

    gaussian draws N(0, sigma^2); bounded-uniform draws U[-sigma, sigma],
    an interval of length 2 sigma and hence sigma-sub-Gaussian.
    """

    kind: str = "gaussian"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


@dataclass
class CrossPattern:
    points: np.ndarray      # 2d rows, center +/- omega0 e_i
    multiplicity: int       # measurements per point


def cross_pattern(x: np.ndarray, omega0: float, n: int) -> CrossPattern:
    """2d probe points x +/- omega0 e_i, each measured ceil(n / 2d) times;
    rounding up preserves scheduled lower bounds."""
    x = np.asarray(x, dtype=float)
    d = x.size
    if n < 2 * d:
        raise ValueError(f"cross pattern needs n >= 2d = {2 * d}, got {n}")
    if omega0 <= 0.0:
        raise ValueError("omega0 must be positive")
    points = np.tile(x, (2 * d, 1))
    for i in range(d):
        points[2 * i, i] += omega0
        points[2 * i + 1, i] -= omega0
    mult = -(-n // (2 * d))
    return CrossPattern(points=points, multiplicity=int(mult))


class ConstraintOracle:
    """Returns y(x) = A x - b + eta with independent noise per component.

    Probe points outside reach (no feasible point within omega0) are counted,
    not rejected: the reach test uses the max normalized half-space deficit,
    a lower bound on the distance to the feasible set, so only a deficit
    above omega0 by more than FEAS_TOL max(omega0, |x|) is flagged.
    """

    def __init__(self, polytope: Polytope, noise: NoiseModel, omega0: float):
        self._A = polytope.A.copy()
        self._b = polytope.b.copy()
        self._row_norms = polytope.row_norms.copy()
        self.noise = noise
        self.omega0 = float(omega0)
        self._rng = np.random.default_rng(noise.seed)
        self._pushback = np.empty(0)  # variates peeked at, not yet consumed
        self._buf = np.empty((max(2, _PIECE // self.m), self.m))  # the pieces of a streamed noise sum
        self._last: tuple | None = None  # ((shape, bytes) of the last stack, its signal, its reach count)
        self._peeked = 0  # calls at the last stack that a lookahead peeked at and none has made yet
        self.out_of_reach_events = 0

    @property
    def m(self) -> int:
        return self._A.shape[0]

    def _fill(self, out: np.ndarray) -> None:
        """Write the next variates of the stream into the 1-D array `out` in
        place, the pushback buffer first: sigma times a standard normal, or
        low plus (high - low) times a standard uniform, the arithmetic of
        `normal(0, sigma)` and `uniform(-sigma, sigma)`, bit for bit."""
        k = min(self._pushback.size, out.size)
        if k:
            out[:k], self._pushback = self._pushback[:k], self._pushback[k:]
        fresh, sigma = out[k:], self.noise.sigma
        if self.noise.kind == "gaussian":
            self._rng.standard_normal(out=fresh)
            fresh *= sigma
        else:
            self._rng.random(out=fresh)
            fresh *= sigma - -sigma
            fresh += -sigma

    def _noise_sum(self, rows: int) -> np.ndarray:
        """The next `rows` rows of m variates summed row after row from zero,
        streamed through the piece buffer: each piece after the first starts
        with the running sum as its row 0, and einsum adds the rows of a piece
        in order, as .sum(axis=0) does for m >= 2. The first piece carries no
        row, so rows that fit one piece are summed as a one-piece stack is,
        at every m."""
        buf = self._buf
        k = min(rows, buf.shape[0])
        self._fill(buf[:k].reshape(-1))
        total = np.einsum("km->m", buf[:k])
        while (rows := rows - k) > 0:
            k = min(rows, buf.shape[0] - 1)
            buf[0] = total
            self._fill(buf[1 : k + 1].reshape(-1))
            total = np.einsum("km->m", buf[: k + 1])
        return total

    def _stack(self, points: np.ndarray) -> tuple[np.ndarray, int]:
        """The signal A x - b (n, m) at each point of the stack and its number of
        out-of-reach points, computed once for the last stack seen (compared bit
        for bit) and never handed to a caller."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        key = (X.shape, X.tobytes())  # equal points, bit for bit, give equal values
        if self._last is None or self._last[0] != key:
            # one matrix-vector product per point, the same arithmetic as A @ x
            values = np.matmul(self._A, X[:, :, None])[:, :, 0] - self._b
            deficits = np.max(values / self._row_norms, axis=1)
            reach = self.omega0 + FEAS_TOL * np.maximum(self.omega0, np.linalg.norm(X, axis=1))
            self._last, self._peeked = (key, values, int(np.count_nonzero(deficits > reach))), 0
        return self._last[1], self._last[2]

    def lookahead(self, points: np.ndarray, count: int) -> np.ndarray:
        """Values (count, n, m) that the next `count` calls measure_repeated(points, 1)
        on a stack of n points will return, C-contiguous; counts no reach events."""
        values = self._stack(points)[0]
        self._peeked = max(self._peeked, count)
        if self.noise.sigma == 0.0:
            return np.broadcast_to(values, (count,) + values.shape).copy()
        size = count * values.size
        if self._pushback.size < size:
            grown = np.empty(size)
            self._fill(grown)  # the whole buffer, then fresh variates
            self._pushback = grown
        return values + self._pushback[:size].reshape((count,) + values.shape)

    def commit(self, points: np.ndarray, count: int) -> None:
        """Make the first `count` of the calls that `lookahead(points, K)` peeked
        at, without measuring them again: their noise leaves the buffer and
        each counts the stack's out-of-reach events. A count that no lookahead
        at these points peeked at, or that a call has made since, is refused,
        with or without noise."""
        values, reach = self._stack(points)
        if not 1 <= count <= self._peeked:
            raise ValueError(f"cannot commit {count} calls: a lookahead at these points peeked at {self._peeked}")
        self._pushback, self._peeked = self._pushback[count * values.size:], self._peeked - count
        self.out_of_reach_events += count * reach

    def measure_repeated(self, x: np.ndarray, count: int) -> np.ndarray:
        """Componentwise sums of `count` independent measurements at x.

        x is one point (d,), giving m sums, or a stack of points (n, d), giving
        (n, m) sums that equal n per-point calls in order. Each out-of-reach
        point counts as one event.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        values, reach = self._stack(x)
        self.out_of_reach_events += reach
        self._peeked = max(self._peeked - count, 0)  # each call made takes the noise of the next peeked one
        total = count * values
        if self.noise.sigma > 0.0:
            n, m = total.shape
            if n * count * m <= self._buf.size:  # one piece: the whole stack's noise at once
                noise = self._buf.reshape(-1)[: n * count * m]
                self._fill(noise)
                noise = noise.reshape(n, count, m)
                total += noise[:, 0] if count == 1 else np.einsum("ncm->nm", noise)
            else:
                for row in total:
                    row += self._noise_sum(count)
        return total if np.ndim(x) == 2 else total[0]
