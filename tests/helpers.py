"""Shared builders for the test suite."""

import dataclasses

import numpy as np

from morsebath import BathConfig, bath_arrays, discretize


def make_bath(lam, beta, eta=2.0, k_modes=40, omega_c=1.0):
    return discretize(BathConfig(eta=eta, omega_c=omega_c, k_modes=k_modes,
                                 lam=lam, beta=beta))


def make_arrays(lam, betas, eta=2.0, k_modes=40, omega_c=1.0):
    return bath_arrays(BathConfig(eta=eta, omega_c=omega_c, k_modes=k_modes,
                                  lam=lam, beta=betas[0]), betas)


def renormalized(bath):
    """One-beta bath whose couplings are B_k - <B_k>, so their thermal means vanish."""
    (mean_b,) = bath.mean_b
    eye = np.eye(bath.energies.shape[1])
    return dataclasses.replace(bath, couplings=bath.couplings - mean_b[:, None, None] * eye,
                               mean_b=np.zeros_like(bath.mean_b))
