"""Shared builders for the test suite, and references that only tests use."""

import dataclasses
import math

import numpy as np

from morsebath import bath_arrays
from morsebath.bath import BathConfig, discretize
from morsebath.morse import wavefunction_z


def make_bath(lam, beta, eta=2.0, k_modes=40, omega_c=1.0):
    return discretize(BathConfig(eta=eta, omega_c=omega_c, k_modes=k_modes,
                                 lam=lam, beta=beta))


def make_arrays(lam, betas, eta=2.0, k_modes=40, omega_c=1.0):
    return bath_arrays(eta, omega_c, k_modes, lam, betas)


def renormalized(bath):
    """One-beta bath whose couplings are B_k - <B_k>, so their thermal means vanish."""
    (mean_b,) = bath.mean_b
    eye = np.eye(bath.energies.shape[1])
    return dataclasses.replace(bath, couplings=bath.couplings - mean_b[:, None, None] * eye)


def apply_map(rho0, chi_value):
    """Apply the dephasing map: populations frozen, coherence times chi.

    The [1, 0] entry (<-|rho|+> in the sigma_z eigenbasis) is multiplied
    by chi_value and the [0, 1] entry is its conjugate, so Hermiticity
    and the trace are preserved exactly.
    """
    rho = np.asarray(rho0, dtype=complex)
    out = rho.copy()
    out[1, 0] = chi_value * rho[1, 0]
    out[0, 1] = np.conj(out[1, 0])
    return out


def trace_distance(a, b):
    """Trace distance (1/2) Tr |a - b| of two 2x2 Hermitian matrices.

    Uses the closed-form 2x2 eigenvalues of the Hermitian difference.
    """
    m = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    tr = float(m[0, 0].real + m[1, 1].real)
    det = float(m[0, 0].real * m[1, 1].real - abs(m[0, 1]) ** 2)
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    e1 = 0.5 * (tr + disc)
    e2 = 0.5 * (tr - disc)
    return 0.5 * (abs(e1) + abs(e2))


def wavefunction(lam, n, x):
    """Bound-state amplitude at dimensionless coordinate x."""
    big_n = lam - 0.5
    z = (2.0 * big_n + 1.0) * math.exp(-x)
    return wavefunction_z(lam, n, z)
