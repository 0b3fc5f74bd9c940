"""Ohmic spectral density, discretization into K Morse modes, thermal data.

The environment is a star of K independent Morse oscillators sharing one
anharmonicity lam.  Frequencies and couplings follow the standard linear
discretization

    omega_k = 2 omega_c k / K,        k = 1..K,
    g_k     = sqrt( (2 omega_c / K) J(omega_k) ),

with the ohmic density J(w) = Theta(2 omega_c - w) eta (w/omega_c)
exp(-w/omega_c).  The hard cut uses the boundary convention
Theta(0) = 0, so the k = K mode carries exactly zero coupling.

``bath_arrays(eta, omega_c, k_modes, lam, betas)`` holds the K modes of
one lam as arrays, with the thermal data of any number of betas; the
correlation, Gaussian and exact-chi code, the dense oracle, the CLI and
the tests take this ``Bath``.  ``discretize(BathConfig)`` gives a
read-only per-mode view of one beta.  Nothing in the package reads it:
it exists only for the benchmark's references under ``morsebench/``,
which read one mode at a time, and goes with ROADMAP item 8.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .morse import bound_energies, ladder_matrix


@dataclass(frozen=True)
class BathConfig:
    """Parameters of ``discretize``: ``bath_arrays`` of one beta, which validates them."""

    eta: float
    omega_c: float
    k_modes: int
    lam: float
    beta: float


@dataclass(frozen=True)
class BathMode:
    """One discretized environment mode at one beta: a view of a Bath row.

    b_matrix is the coupling operator g_k (b + b^dag) in the bound-state
    basis.  weights are ground-shifted Boltzmann factors and partition is
    the correspondingly shifted partition sum Z_k = sum_n exp(-beta (E_n - E_0)).
    Only ``morsebench/`` and ``dynamics.chi_series`` read it; it goes with
    ROADMAP item 8.
    """

    omega: float
    g: float
    h_diag: np.ndarray
    b_matrix: np.ndarray
    weights: np.ndarray
    partition: float


def spectral_density(omega, eta: float, omega_c: float):
    """Ohmic spectral density with a hard cut at 2 omega_c.

    J(w) = Theta(2 omega_c - w) * eta * (w / omega_c) * exp(-w / omega_c),
    with Theta(0) = 0 so J vanishes at and beyond the cut.
    Accepts a scalar or an array of non-negative frequencies.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral_density requires omega >= 0")
    j = np.where(w < 2.0 * omega_c, eta * (w / omega_c) * np.exp(-w / omega_c), 0.0)
    if np.isscalar(omega):
        return float(j)
    return j


def _thermal(energies: np.ndarray, betas: np.ndarray):
    """Weights (n_beta, K, d) and partitions (n_beta, K) of every beta.

    Weights use the ground-energy shift exp(-beta (E_n - E_0)) / Z so
    beta as large as 1e4 cannot underflow the whole vector.
    """
    if not np.all(betas > 0.0):
        raise ValueError(f"beta must be positive, got {betas.tolist()}")
    shifted = np.exp(-betas[:, None, None] * (energies - energies[:, :1]))
    partition = shifted.sum(axis=-1)
    return shifted / partition[..., None], partition


@dataclass(frozen=True)
class Bath:
    """The K modes of one lam at one or more inverse temperatures, as arrays.

    All modes share lam and so the level count d.  omega and g are (K,);
    energies (K, d) and couplings (K, d, d) = g_k sqrt(2 lam) x hold
    H_k and B_k, which do not depend on beta.  weights (n_beta, K, d),
    partition and mean_b (n_beta, K) are the thermal data of each beta;
    mean_b is computed from weights and couplings on its first read,
    since only the Gaussian path and the bath table read it.
    """

    omega: np.ndarray
    g: np.ndarray
    energies: np.ndarray
    couplings: np.ndarray
    weights: np.ndarray
    partition: np.ndarray

    @functools.cached_property
    def mean_b(self) -> np.ndarray:
        """Thermal means <B_k> (n_beta, K), computed once per Bath."""
        # vecdot runs one BLAS dot per (beta, mode) row, the strided diagonal
        # view included, so each mean has the rounding of that mode's own dot
        return np.vecdot(self.weights, np.diagonal(self.couplings, axis1=-2, axis2=-1))


def bath_arrays(eta: float, omega_c: float, k_modes: int, lam: float, betas) -> Bath:
    """The k_modes discretized modes of lam at every beta of betas.

    The beta-free arrays are built once, the thermal data of all betas
    in one expression; ``bound_state_count`` checks lam and ``_thermal`` the betas.
    """
    if eta < 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if not omega_c > 0.0:
        raise ValueError(f"omega_c must be positive, got {omega_c}")
    if k_modes < 1:
        raise ValueError(f"k_modes must be >= 1, got {k_modes}")
    omega = 2.0 * omega_c * np.arange(1, k_modes + 1) / k_modes
    energies = bound_energies(omega, lam)
    g = np.sqrt(2.0 * omega_c / k_modes * spectral_density(omega, eta, omega_c))
    couplings = g[:, None, None] * ladder_matrix(lam)
    weights, partition = _thermal(energies, np.array(betas, dtype=float))
    return Bath(omega=omega, g=g, energies=energies, couplings=couplings,
                weights=weights, partition=partition)


def discretize(config: BathConfig) -> list[BathMode]:
    """The K discretized modes as per-mode views of ``bath_arrays`` at config.beta."""
    bath = bath_arrays(config.eta, config.omega_c, config.k_modes, config.lam, [config.beta])
    return [BathMode(omega=float(bath.omega[k]), g=float(bath.g[k]), h_diag=bath.energies[k],
                     b_matrix=bath.couplings[k], weights=bath.weights[0, k],
                     partition=float(bath.partition[0, k]))
            for k in range(config.k_modes)]
