"""Chi-squared distribution helpers built on the regularized incomplete gamma function."""

import math

GAMMA_TOL = 1e-14      # relative tolerance of the series and the continued fraction
GAMMA_MAX_ITER = 500
QUANTILE_TOL = 1e-10   # absolute tolerance of the quantile bisection


def regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), the regularized lower incomplete gamma.

    Series representation for x < a + 1, Lentz continued fraction for the
    complement otherwise.
    """
    if a <= 0.0:
        raise ValueError("shape parameter must be positive")
    if x < 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 0.0
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
                return total * math.exp(-x + a * math.log(x) - lg)
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
            return 1.0 - math.exp(-x + a * math.log(x) - lg) * h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def chi_squared_cdf(x: float, dof: int) -> float:
    """CDF of the chi-squared distribution with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 0.0
    return regularized_lower_gamma(dof / 2.0, x / 2.0)


def chi_squared_quantile(p: float, dof: int) -> float:
    """Inverse chi-squared CDF, found by bisection to absolute tolerance QUANTILE_TOL."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    lo = 0.0
    hi = max(1.0, float(dof))
    while chi_squared_cdf(hi, dof) < p:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the chi-squared quantile")
    while hi - lo > QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if chi_squared_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
