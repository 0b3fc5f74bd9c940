import math

import mpmath
import numpy as np
import pytest

from morsebath import digamma, log_gamma

EULER_GAMMA = 0.5772156649015329


def test_log_gamma_reference_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)


def test_digamma_reference_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("func", [log_gamma, digamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_domain_errors(func, bad):
    with pytest.raises(ValueError):
        func(bad)


def test_digamma_recurrence(rng):
    x = rng.uniform(1e-9, 100.0, size=10_000)
    dev = np.array([abs(digamma(v + 1.0) - digamma(v) - 1.0 / v) for v in x])
    assert dev.max() < 1e-11


def test_log_gamma_recurrence(rng):
    x = rng.uniform(1e-9, 100.0, size=10_000)
    dev = np.array([abs(log_gamma(v + 1.0) - log_gamma(v) - math.log(v)) for v in x])
    assert dev.max() < 1e-11


def test_digamma_monotone_and_divergent_at_zero():
    grid = np.geomspace(0.01, 100.0, 400)
    values = [digamma(v) for v in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert digamma(1e-3) < -990.0


def test_against_mpmath_across_domain():
    mpmath.mp.dps = 30
    # absolute 1e-12 at moderate arguments, rounding-level relative floor
    # where the value itself is large
    for x in np.geomspace(1e-3, 1e4, 120):
        ref_lg = float(mpmath.loggamma(mpmath.mpf(x)))
        ref_dg = float(mpmath.digamma(mpmath.mpf(x)))
        assert abs(log_gamma(float(x)) - ref_lg) <= max(1e-12, 5e-15 * abs(ref_lg))
        assert abs(digamma(float(x)) - ref_dg) <= max(1e-12, 5e-15 * abs(ref_dg))

