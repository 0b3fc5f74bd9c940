"""Level truncation of the exact decay factor.

A mode block keeps its first m levels (`dynamics._kept_levels`), and
`dynamics._truncation_bound` states how far that can move each mode
factor.  The reference here diagonalizes the whole d x d H_pm of every
mode with plain `numpy.linalg.eigh`; each truncated factor must lie
within the bound, plus the pruning tolerance and a rounding floor, of
it.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morsebath import DEFAULT_RHO0, BathConfig, SystemConfig, bath_arrays, chi_traces
from morsebath.config import parse_config
from morsebath.dynamics import (
    _BLOCK_ELEMENTS,
    NEGLIGIBLE_TERM_MASS,
    _kept_levels,
    _truncation_bound,
)

# no impurity phase: chi of a one-mode bath is that mode's trace factor
SILENT = SystemConfig(omega_s=0.0, rho0=DEFAULT_RHO0)
TIMES = np.linspace(0.0, 20.0, 41)

# Rounding floor of a mode factor against the full-d reference:
# FLOOR_ULPS eps t_max max|E_n|.  Each eigh rounds its eigenvalues by a
# few eps ||H||, and the phases multiply that by t.  At lam = 399.8,
# beta = 4, K = 40, mode k = 38 (omega = 1.9, max|E_n| = 379, so the floor is
# 5.4e-11), the factor kept to 21 levels is 1.2e-11 from the reference,
# and the same reference built on H - E_0 is 8.7e-12 from it; kept to
# 40, 80 or 160 levels the factor does not move.
FLOOR_ULPS = 32.0


def floor(energies, t_max):
    return FLOOR_ULPS * np.finfo(float).eps * t_max * np.abs(energies).max()


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def mode_bath(bath, k):
    """One-mode bath of mode k."""
    return dataclasses.replace(
        bath, omega=bath.omega[k:k + 1], g=bath.g[k:k + 1], energies=bath.energies[k:k + 1],
        couplings=bath.couplings[k:k + 1], weights=bath.weights[:, k:k + 1],
        partition=bath.partition[:, k:k + 1], mean_b=bath.mean_b[:, k:k + 1])


def reference_factor(energies, coupling, weights, times):
    """(n_beta, n) trace factor of one mode on all of its d levels."""
    evals_plus, evecs_plus = np.linalg.eigh(np.diag(energies) + coupling)
    evals_minus, evecs_minus = np.linalg.eigh(np.diag(energies) - coupling)
    overlap = (evecs_plus.T @ evecs_minus).T
    minus = np.exp(-1j * np.outer(times, evals_minus))
    plus = np.exp(1j * np.outer(times, evals_plus))
    out = []
    for p in weights:
        w = (evecs_minus.T @ (p[:, None] * evecs_plus)) * overlap
        out.append(((minus @ w) * plus).sum(axis=-1))
    return np.array(out)


def assert_factors_within_bound(bath, times):
    """Every mode factor of the bath lies within its truncation bound of the reference."""
    d = bath.energies.shape[1]
    t_max = float(times.max())
    for k in range(bath.energies.shape[0]):
        one = mode_bath(bath, k)
        m, eig = _kept_levels(one.energies, one.couplings, one.weights, t_max)
        bound = _truncation_bound(eig, one.couplings, one.weights, t_max)[:, 0] if m < d else 0.0
        chi = np.array([trace.chi for trace in chi_traces(one, SILENT, times)])
        ref = reference_factor(bath.energies[k], bath.couplings[k], bath.weights[:, k], times)
        err = np.abs(chi - ref).max(axis=-1)
        rounding = floor(bath.energies[k], t_max)
        # the factor's terms are pruned afterwards, which moves it by up to NEGLIGIBLE_TERM_MASS
        assert np.all(err <= bound + NEGLIGIBLE_TERM_MASS + rounding), (k, m, err, bound)
        assert np.all(err <= 2 * NEGLIGIBLE_TERM_MASS + rounding), (k, m, err)
        assert np.all(bound <= NEGLIGIBLE_TERM_MASS)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lam=st.floats(min_value=46.0, max_value=150.0),
       beta=st.floats(min_value=0.5, max_value=20.0),
       eta=st.floats(min_value=0.0, max_value=0.05), k_modes=st.integers(1, 4))
def test_truncated_factors_stay_within_bound(lam, beta, eta, k_modes):
    bath = bath_arrays(BathConfig(eta=eta, omega_c=1.0, k_modes=k_modes, lam=lam, beta=beta))
    assert_factors_within_bound(bath, TIMES)


def test_truncated_factors_at_harmonic_point():
    bath = bath_arrays(BathConfig(eta=0.01, omega_c=1.0, k_modes=40, lam=399.8, beta=4.0))
    d = bath.energies.shape[1]
    kept = [_kept_levels(bath.energies[k:k + 1], bath.couplings[k:k + 1],
                         bath.weights[:, k:k + 1], 20.0)[0] for k in range(40)]
    assert max(kept[1:]) < d // 2  # the point truncates: every mode but the lowest keeps < 200
    assert_factors_within_bound(bath, TIMES)


@pytest.mark.parametrize("name", ["fig3_dephasing.cfg", "fig4_backflow.cfg",
                                  "fig5_gaussian_error.cfg"])
def test_figure_sweeps_keep_every_level(name):
    cfg = parse_config(os.path.join(CONFIGS, name))
    betas = sorted(cfg.betas)
    for lam in cfg.lambdas:
        bath = bath_arrays(BathConfig(eta=cfg.eta, omega_c=cfg.omega_c, k_modes=cfg.k_modes,
                                      lam=lam, beta=betas[0]), betas)
        d = bath.energies.shape[1]
        size = max(1, _BLOCK_ELEMENTS // (d * d))
        for start in range(0, cfg.k_modes, size):
            s = slice(start, start + size)
            m, _ = _kept_levels(bath.energies[s], bath.couplings[s], bath.weights[:, s], cfg.t_max)
            assert m == d, (lam, start, m, d)
