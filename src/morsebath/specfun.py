"""Real-argument log-gamma and digamma.

Both functions are evaluated with the classic recipe: shift the argument
above 10 with the recurrences

    ln Gamma(x) = ln Gamma(x + 1) - ln x,
    psi(x)      = psi(x + 1) - 1/x,

then apply the asymptotic (Stirling / Bernoulli) series, truncated after
the x**-13 (log-gamma) and x**-14 (digamma) terms.  At the shift
threshold the first omitted term is below 1e-16, so the absolute error
stays at the rounding level over the domain used here, x in
[1e-3, 1e4].

Only the positive real axis is supported; every Gamma-function ratio in
the Morse closed forms is arranged so that all arguments are positive.
"""

from __future__ import annotations

import math

_SHIFT_THRESHOLD = 10.0

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# B_{2k} / (2k (2k-1)), k = 1..7
_LGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2k} / (2k), k = 1..7
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def log_gamma(x: float) -> float:
    """Return ln Gamma(x) for x > 0.

    Raises
    ------
    ValueError
        If ``x <= 0``.
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift -= math.log(x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = 1.0 / x
    for c in _LGAMMA_COEFFS:
        series += c * power
        power *= inv2
    return (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + series + shift


def digamma(x: float) -> float:
    """Return psi(x) = d/dx ln Gamma(x) for x > 0.

    Raises
    ------
    ValueError
        If ``x <= 0``.
    """
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    power = inv2
    for c in _DIGAMMA_COEFFS:
        series += c * power
        power *= inv2
    return math.log(x) - 0.5 / x - series + shift

