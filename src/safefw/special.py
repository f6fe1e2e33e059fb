"""Chi-squared upper tail at integer degrees of freedom, as a finite sum, and its quantile."""

import math

QUANTILE_TOL = 1e-10   # absolute tolerance of the quantile bisection


def chi_squared_sf(x: float, dof: int) -> float:
    """Upper tail 1 - CDF of the chi-squared distribution with ``dof`` degrees of freedom.

    With h = x/2 the tail is the finite sum of h^j e^(-h) / Gamma(j+1) over
    j = 0, 1, ... below dof/2 for even dof, and over j = 1/2, 3/2, ... below
    dof/2 plus erfc(sqrt(h)) for odd dof. Each positive term is one exp of
    its logarithm, so none underflows or overflows.
    """
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    j = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    while j < 0.5 * dof:
        total += math.exp(j * log_h - h - math.lgamma(j + 1.0))
        j += 1.0
    return total


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
