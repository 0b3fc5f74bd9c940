"""Analytic bound-state spectrum of a single Morse oscillator.

Working units put hbar = 1 and measure energies in units of the harmonic
frequency scale.  The oscillator is parameterized by (omega, lam):
omega is the frequency of the harmonic part of the potential and lam
(written Lambda in formulas below) is the dimensionless anharmonicity,
related to the potential depth D and width parameter a by
D = omega * lam / 2 and a = sqrt(omega / lam).  The number of bound
states is floor(lam + 1/2), except exactly at half-integer lam + 1/2
where it is lam - 1/2.  Everything here is expressed through
N = lam - 1/2.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .specfun import digamma, log_gamma

# Half-integer detection tolerance on lam + 1/2.  Parameter grids in the
# intended sweeps use steps >= 0.01, so nothing legitimate sits closer.
HALF_INTEGER_TOL = 1e-9


def bound_state_count(lam: float) -> int:
    """Number of bound states of a Morse oscillator at anharmonicity lam.

    Returns floor(lam + 1/2), except when lam + 1/2 is an integer
    (within ``HALF_INTEGER_TOL``), in which case the count is lam - 1/2:
    the state that would sit exactly at the dissociation threshold does
    not bind.
    """
    if not lam > 0.5:
        raise ValueError(f"lam must exceed 1/2, got {lam}")
    x = lam + 0.5
    nearest = round(x)
    if abs(x - nearest) <= HALF_INTEGER_TOL:
        return int(nearest) - 1
    return int(math.floor(x))


def bound_energies(omega, lam: float) -> np.ndarray:
    """Bound-state energies E_n = -(omega / 2 lam) (lam - (n + 1/2))^2.

    omega is one harmonic frequency or an array of them; the result has
    shape (..., d), one row of the d levels per frequency.  A lam that
    binds no state (d = 0, within HALF_INTEGER_TOL above 1/2) is
    rejected.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega > 0.0):
        raise ValueError(f"omega must be positive, got {omega.tolist()}")
    d = bound_state_count(lam)
    if d == 0:
        raise ValueError(f"lam = {lam} binds no state")
    n = np.arange(d)
    return -(omega[..., None] / (2.0 * lam)) * (lam - (n + 0.5)) ** 2


def x_matrix(lam: float) -> np.ndarray:
    """Position matrix elements <n|x|m> in the bound-state basis.

    Diagonal:  ln(2N+1) - psi(2N-2n) - psi(2N-2n+1) + psi(2N-n+1).
    Off-diagonal (m > n):

        2 (-1)^(m-n+1) / ((2N-n-m)(m-n))
            * sqrt( m! (N-n)(N-m) Gamma(2N-m+1) / (n! Gamma(2N-n+1)) )

    All factorial and Gamma ratios go through log-gamma differences so
    large N does not overflow; the returned matrix is exactly symmetric.
    """
    d = bound_state_count(lam)
    big_n = lam - 0.5
    x = np.zeros((d, d))
    for n in range(d):
        u = 2.0 * big_n - 2.0 * n
        x[n, n] = (
            math.log(2.0 * big_n + 1.0)
            - digamma(u)
            - digamma(u + 1.0)
            + digamma(2.0 * big_n - n + 1.0)
        )
    # lga[j] = ln(j! Gamma(2N-j+1)), lnn[j] = ln(N-j); at d = 1 there is no pair m > n
    lga = np.array([log_gamma(j + 1.0) + log_gamma(2.0 * big_n - j + 1.0) for j in range(d)])
    lnn = np.log(big_n - np.arange(d))
    rows, cols = np.triu_indices(d, k=1)
    sign = np.where((cols - rows) % 2 == 1, 1.0, -1.0)
    pref = 2.0 * sign / ((2.0 * big_n - rows - cols) * (cols - rows))
    val = pref * np.exp(0.5 * (lga[cols] - lga[rows] + lnn[rows] + lnn[cols]))
    x[rows, cols] = val
    x[cols, rows] = val
    return x


def ladder_matrix(lam: float) -> np.ndarray:
    """Matrix of (b + b^dag) in the bound-state basis: sqrt(2 lam) x.

    The dimensionless coordinate of `x_matrix` is a * (physical x), so
    recovering the harmonic ladder combination rescales by sqrt(2 lam);
    at large lam the first off-diagonal tends to sqrt(n + 1).
    """
    return math.sqrt(2.0 * lam) * x_matrix(lam)


@lru_cache(maxsize=512)
def _poly_terms(lam: float, n: int) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Normalization and polynomial coefficients of the n-th bound state.

    Returns (ln_norm, signs, ln_coeffs) with
    ln_norm = ln N_n = (1/2) ln( (2N-2n) Gamma(2N-n+1) / n! ) and
    ln_coeffs[m] = ln( C(n, m) / Gamma(2N-2n+1+m) ).
    """
    big_n = lam - 0.5
    b = 2.0 * big_n - 2.0 * n
    ln_norm = 0.5 * (math.log(b) + log_gamma(2.0 * big_n - n + 1.0) - log_gamma(n + 1.0))
    signs = tuple(1.0 if m % 2 == 0 else -1.0 for m in range(n + 1))
    ln_coeffs = tuple(
        math.log(math.comb(n, m)) - log_gamma(b + 1.0 + m) for m in range(n + 1)
    )
    return ln_norm, signs, ln_coeffs


def wavefunction_z(lam: float, n: int, z: float) -> float:
    """Bound-state amplitude as a function of z = (2N+1) exp(-x).

    psi_n(z) = N_n z^(N-n) e^(-z/2)
               sum_m (-1)^m C(n, m) z^m / Gamma(2N-2n+1+m)

    Normalized so that the x-space integral of psi_n^2 is one; in the z
    variable that integral carries the Jacobian dz / z.
    """
    d = bound_state_count(lam)
    if not 0 <= n < d:
        raise IndexError(f"state index {n} out of range for {d} bound states")
    if z <= 0.0:
        return 0.0
    big_n = lam - 0.5
    ln_norm, signs, ln_coeffs = _poly_terms(lam, n)
    base = ln_norm + (big_n - n) * math.log(z) - 0.5 * z
    # alternating series: compensated summation keeps cancellation benign
    # for the d <= ~25 states used here
    terms = [s * math.exp(base + lc + m * math.log(z)) for m, (s, lc) in enumerate(zip(signs, ln_coeffs))]
    return math.fsum(terms)
