"""Simulated noisy zeroth-order constraint oracle and the coordinate cross
probe pattern (2d points at x +/- omega0 e_i).

`measure_repeated` takes one point or a stack of points, so a whole cross is
measured in one call. A stack draws its noise as one (n, count, m) array when
that fits the draw chunk, which reads the generator in the same order as
per-point calls and returns the same sums bit for bit. `lookahead` peeks at
future calls; their noise waits in a buffer that every later draw reads first.
`commit` then takes the first peeked calls as made: it consumes their noise,
counts their out-of-reach events and returns their summed peeked values, so
the stream and the count stand where the measurements themselves would leave
them. The signal A x - b and the out-of-reach count of a stack are computed
once for the last stack seen, so the repeated passes at one probe cross read
them instead of recomputing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import FEAS_TOL, Polytope

NOISE_KINDS = ("gaussian", "bounded-uniform")
_DRAW_CHUNK = 4_000_000  # bounds per-call memory for huge multiplicities


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
        self._last: tuple | None = None  # ((shape, bytes) of the last stack, its signal, its reach count)
        self.out_of_reach_events = 0

    @property
    def m(self) -> int:
        return self._A.shape[0]

    def _fresh(self, size: int) -> np.ndarray:
        if self.noise.kind == "gaussian":
            return self._rng.normal(0.0, self.noise.sigma, size=size)
        return self._rng.uniform(-self.noise.sigma, self.noise.sigma, size=size)

    def _draw(self, shape) -> np.ndarray:
        """The next variates of the stream, the pushback buffer first."""
        size = math.prod(shape)
        if self._pushback.size == 0:
            return self._fresh(size).reshape(shape)
        head, self._pushback = self._pushback[:size], self._pushback[size:]
        if head.size < size:
            head = np.concatenate([head, self._fresh(size - head.size)])
        return head.reshape(shape)

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
            self._last = (key, values, int(np.count_nonzero(deficits > reach)))
        return self._last[1], self._last[2]

    def lookahead(self, points: np.ndarray, count: int) -> np.ndarray:
        """Values (count, n, m) that the next `count` calls measure_repeated(points, 1)
        on a stack of n points will return, C-contiguous; counts no reach events."""
        values = self._stack(points)[0]
        if self.noise.sigma == 0.0:
            return np.broadcast_to(values, (count,) + values.shape).copy()
        size = count * values.size
        if self._pushback.size < size:
            self._pushback = np.concatenate([self._pushback, self._fresh(size - self._pushback.size)])
        return values + self._pushback[:size].reshape((count,) + values.shape)

    def commit(self, points: np.ndarray, count: int) -> np.ndarray:
        """Make the first `count` of the calls that `lookahead(points, K)` peeked
        at, without measuring them again: their noise leaves the buffer, each
        counts the stack's out-of-reach events, and their peeked values come
        back summed (n, m), added call after call as the forecast's running
        sums add them."""
        values, reach = self._stack(points)
        size = count * values.size if self.noise.sigma > 0.0 else 0
        if count < 1 or self._pushback.size < size:
            raise ValueError(f"cannot commit {count} calls: the lookahead holds {self._pushback.size} values")
        sums = self.lookahead(points, count).sum(axis=0)  # the buffer holds them: nothing is drawn
        self._pushback = self._pushback[size:]
        self.out_of_reach_events += count * reach
        return sums

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
        total = count * values
        if self.noise.sigma > 0.0:
            n, m = total.shape
            if n * count * m <= _DRAW_CHUNK:
                total += self._draw((n, count, m)).sum(axis=1)
            else:
                for row in total:
                    remaining = count
                    while remaining > 0:
                        block = min(remaining, max(1, _DRAW_CHUNK // m))
                        row += self._draw((block, m)).sum(axis=0)
                        remaining -= block
        return total if np.ndim(x) == 2 else total[0]
