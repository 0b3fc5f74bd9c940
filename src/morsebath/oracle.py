"""Independent brute-force validators for the factorized map and the
closed-form matrix elements.

`dense_chi` evolves the coherence block of a one-beta ``Bath`` on the
full tensor-product Hilbert space without using the factorization over
modes, so agreement with ``dynamics.chi_traces`` (the same omega_s in,
the same (n,) chi row out) validates the product structure end to end.
`quadrature_element` integrates the analytic bound-state wavefunctions
directly and is the oracle for the closed-form position elements.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import Bath
from .morse import bound_state_count, wavefunction_z

MAX_DENSE_MODES = 3
MAX_DENSE_DIM = 4096

QUAD_ABS_TOL = 1e-9


def _embed(op: np.ndarray, left: int, right: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def dense_chi(bath: Bath, omega_s: float, times: np.ndarray) -> np.ndarray:
    """Decay factor (n,) of a one-beta bath from the full tensor-product evolution (K <= 3).

    Builds H_pm = sum_k (H_k +- B_k) and the product thermal state on
    the full environment space, eigendecomposes once, and forms the
    propagators explicitly at every grid point.  No factorization over
    modes is used anywhere.
    """
    n_beta, n_modes, d = bath.weights.shape
    if n_beta != 1:
        raise ValueError(f"dense oracle takes a bath of one beta, got {n_beta} betas")
    if n_modes > MAX_DENSE_MODES:
        raise ValueError(f"dense oracle supports K <= {MAX_DENSE_MODES}, got {n_modes}")
    total_dim = d ** n_modes
    if total_dim > MAX_DENSE_DIM:
        raise ValueError(f"dense dimension {total_dim} exceeds guard {MAX_DENSE_DIM}")

    h_plus = np.zeros((total_dim, total_dim))
    h_minus = np.zeros((total_dim, total_dim))
    rho = np.ones((1, 1))
    for k in range(n_modes):
        left, right = d ** k, d ** (n_modes - k - 1)
        local = np.diag(bath.energies[k])
        h_plus += _embed(local + bath.couplings[k], left, right)
        h_minus += _embed(local - bath.couplings[k], left, right)
        rho = np.kron(rho, np.diag(bath.weights[0, k]))

    evals_plus, u_plus = np.linalg.eigh(h_plus)
    evals_minus, u_minus = np.linalg.eigh(h_minus)
    times = np.asarray(times, dtype=float)
    chi = np.empty(times.shape[0], dtype=complex)
    for j, t in enumerate(times):
        prop_minus = (u_minus * np.exp(-1j * evals_minus * t)) @ u_minus.T
        prop_plus = (u_plus * np.exp(1j * evals_plus * t)) @ u_plus.T
        chi[j] = np.trace(prop_minus @ rho @ prop_plus)
    chi *= np.exp(1j * omega_s * times)
    return chi


def _quadrature(lam: float, n: int, m: int, with_x: bool) -> float:
    d = bound_state_count(lam)
    if not (0 <= n < d and 0 <= m < d):
        raise IndexError(f"indices ({n}, {m}) out of range for {d} bound states")
    # imported here: scipy.integrate costs most of the package import time
    from scipy.integrate import quad

    big_n = lam - 0.5
    scale = 2.0 * big_n + 1.0
    z_max = scale + 60.0

    if with_x:
        def integrand(z: float) -> float:
            return (wavefunction_z(lam, n, z) * wavefunction_z(lam, m, z)
                    * math.log(scale / z) / z)
    else:
        def integrand(z: float) -> float:
            return wavefunction_z(lam, n, z) * wavefunction_z(lam, m, z) / z

    value, abserr = quad(integrand, 0.0, z_max, epsabs=1e-12, epsrel=1e-11, limit=400)
    if abserr > QUAD_ABS_TOL:
        raise RuntimeError(
            f"quadrature did not converge for lam={lam}, (n, m)=({n}, {m}): "
            f"estimated error {abserr:.3e}")
    return value


def quadrature_element(lam: float, n: int, m: int) -> float:
    """<n|x|m> by adaptive quadrature of the analytic wavefunctions.

    Integrates over z = (2N+1) exp(-x) on (0, (2N+1) + 60] with the
    Jacobian dx = -dz/z applied explicitly; the integrand decays like
    exp(-z) times a power, so the truncated tail is far below the
    1e-9 tolerance.
    """
    return _quadrature(lam, n, m, with_x=True)


def overlap_element(lam: float, n: int, m: int) -> float:
    """<n|m> by the same quadrature; identity matrix up to tolerance."""
    return _quadrature(lam, n, m, with_x=False)
