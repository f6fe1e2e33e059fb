"""Chi-squared distribution helpers built on the regularized incomplete gamma function."""

import math

GAMMA_TOL = 1e-14      # relative tolerance of the series and the continued fraction
GAMMA_MAX_ITER = 500
QUANTILE_TOL = 1e-10   # absolute tolerance of the quantile bisection


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), the regularized upper incomplete gamma.

    One minus the series for P(a, x) when x < a + 1 (there Q stays above
    0.08 for a >= 1/2, so little cancels), the Lentz continued fraction for Q
    itself otherwise, which keeps Q accurate deep in the upper tail.
    """
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(GAMMA_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * GAMMA_TOL:
                return 1.0 - total * math.exp(-x + a * math.log(x) - lg)
        raise RuntimeError("incomplete gamma series did not converge")
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < GAMMA_TOL:
            return math.exp(-x + a * math.log(x) - lg) * h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def chi_squared_sf(x: float, dof: int) -> float:
    """Upper tail 1 - CDF of the chi-squared distribution with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 1.0
    return regularized_upper_gamma(dof / 2.0, x / 2.0)


def chi_squared_upper_quantile(q: float, dof: int) -> float:
    """The x whose chi-squared upper tail is q, found by bisection on the tail
    itself to absolute tolerance QUANTILE_TOL; q may lie far below the
    double spacing near 1, where the level 1 - q would round to 1."""
    if not 0.0 < q < 1.0:
        raise ValueError("tail probability must lie strictly between 0 and 1")
    lo = 0.0
    hi = max(1.0, float(dof))
    while chi_squared_sf(hi, dof) > q:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the chi-squared quantile")
    while hi - lo > QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if chi_squared_sf(mid, dof) > q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
