"""Chi-squared tail and quantile against closed forms and numerical integration."""

import math

import pytest

from safefw.special import chi_squared_sf, chi_squared_upper_quantile


def chi2_cdf_oracle(x, dof, n=20000):
    """Independent CDF: closed forms where they exist, Simpson otherwise.

    Even dof: 1 - e^{-x/2} sum_{i<dof/2} (x/2)^i / i!. dof 1 and 3: erf-based
    identities. Odd dof >= 5: composite Simpson on the density (integrand is
    C^1 at zero there).
    """
    if x <= 0:
        return 0.0
    if dof % 2 == 0:
        m = x / 2.0
        term = math.exp(-m)
        total = term
        for i in range(1, dof // 2):
            term *= m / i
            total += term
        return 1.0 - total
    if dof == 1:
        return math.erf(math.sqrt(x / 2.0))
    if dof == 3:
        return math.erf(math.sqrt(x / 2.0)) - math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    norm = math.lgamma(dof / 2.0) + (dof / 2.0) * math.log(2.0)

    def pdf(u):
        if u <= 0.0:
            return 0.0
        return math.exp((dof / 2.0 - 1.0) * math.log(u) - u / 2.0 - norm)

    h = x / n
    total = pdf(0.0) + pdf(x)
    total += 4.0 * sum(pdf((2 * i - 1) * h) for i in range(1, n // 2 + 1))
    total += 2.0 * sum(pdf(2 * i * h) for i in range(1, n // 2))
    return total * h / 3.0


def test_cdf_matches_oracle():
    for dof in (1, 2, 3, 4, 5, 11, 12):
        for x in (0.5, 2.0, 7.8147, 15.0, 30.0):
            assert 1.0 - chi_squared_sf(x, dof) == pytest.approx(chi2_cdf_oracle(x, dof), abs=1e-9)


def test_quantile_inverts_oracle_cdf():
    for dof in (1, 3, 5, 11):
        for p in (0.05, 0.5, 0.9, 0.95, 0.998325):
            q = chi_squared_upper_quantile(1.0 - p, dof)
            assert chi2_cdf_oracle(q, dof) == pytest.approx(p, abs=1e-8)


def test_quantile_anchor_value():
    # the 95% point of chi-squared with 3 degrees of freedom
    assert chi_squared_upper_quantile(0.05, 3) == pytest.approx(7.814727903251179, abs=1e-8)


def test_quantile_monotone_in_p():
    prev = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        q = chi_squared_upper_quantile(1.0 - p, 4)
        assert q > prev
        prev = q


def test_input_validation():
    with pytest.raises(ValueError):
        chi_squared_upper_quantile(0.0, 3)
    with pytest.raises(ValueError):
        chi_squared_upper_quantile(1.0, 3)
    with pytest.raises(ValueError):
        chi_squared_sf(1.0, 0)
    assert chi_squared_sf(0.0, 3) == 1.0
    assert chi_squared_sf(-1.0, 3) == 1.0


def test_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in (1, 2, 3, 5, 11, 21, 41):
        for q in (1.0 - 1e-3, 0.9, 0.5, 0.1, 0.01, 0.1 / 15, 1e-6, 1e-20 / 60, 1e-200):
            assert chi_squared_upper_quantile(q, dof) == pytest.approx(stats.chi2.isf(q, dof), rel=1e-9, abs=1e-9)


def test_tail_matches_scipy_deep_and_at_large_dof():
    """Down to a tail of about 1e-300 at x = 1400, and at dof 1001, where the
    finite sum has 500 terms."""
    stats = pytest.importorskip("scipy.stats")
    for dof in (1, 2, 3, 21, 41, 1001):
        for x in (1e-3, 0.5, 2.0, 10.0, 50.0, 200.0, 600.0, 1000.0, 1200.0, 1400.0):
            assert chi_squared_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("dof", [8678, 10001, 30001])
def test_quantile_matches_scipy_at_large_dof(dof):
    """The radius of d = dof - 1 at delta 0.1, T 15 and m = 2d."""
    stats = pytest.importorskip("scipy.stats")
    q = 0.1 / 15 / (2 * (dof - 1))
    assert chi_squared_upper_quantile(q, dof) == pytest.approx(stats.chi2.isf(q, dof), rel=1e-9)
