import math

import numpy as np
import pytest

from morsebath import (
    DEFAULT_RHO0,
    BathConfig,
    SystemConfig,
    apply_map,
    bath_arrays,
    chi_series,
    chi_traces,
    mean_field_shift,
    time_grid,
)
from morsebath.dynamics import _block_eigh
from helpers import make_arrays, make_bath, renormalized

# no impurity phase: chi of one mode is that mode's trace factor
SILENT = SystemConfig(omega_s=0.0, rho0=DEFAULT_RHO0)


def test_time_grid():
    ts = time_grid(20.0, 0.01)
    assert ts.shape == (2001,)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(20.0)
    with pytest.raises(ValueError):
        time_grid(1.0, 1.0)
    with pytest.raises(ValueError):
        time_grid(1.0, -0.1)


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(omega_s=2.0, rho0=np.array([[0.6, 0.2], [0.3, 0.4]]))
    with pytest.raises(ValueError):
        SystemConfig(omega_s=2.0, rho0=np.array([[0.9, 0.0], [0.0, 0.3]]))
    with pytest.raises(ValueError):
        SystemConfig(omega_s=2.0, rho0=np.array([[1.2, 0.0], [0.0, -0.2]]))


def test_propagator_reconstruction():
    bath = bath_arrays(BathConfig(eta=2.0, omega_c=1.0, k_modes=5, lam=2.6, beta=1.0))
    evals_plus, evecs_plus, evals_minus, evecs_minus = _block_eigh(bath.energies, bath.couplings)
    for k, (energies, b) in enumerate(zip(bath.energies, bath.couplings)):
        for sign, evals, evecs in ((1.0, evals_plus[k], evecs_plus[k]),
                                   (-1.0, evals_minus[k], evecs_minus[k])):
            rebuilt = (evecs * evals) @ evecs.T
            assert np.abs(rebuilt - (np.diag(energies) + sign * b)).max() < 1e-10


def test_mode_factor_basics(short_grid):
    modes = make_bath(lam=2.5, beta=1.0, eta=2.0, k_modes=4)
    factor = chi_series(modes[:1], SILENT, short_grid).chi
    assert factor[0] == pytest.approx(1.0 + 0.0j, abs=1e-13)
    # zero-coupling boundary mode: H+ = H-, the factor stays at one
    assert modes[-1].g == 0.0
    np.testing.assert_allclose(chi_series(modes[-1:], SILENT, short_grid).chi,
                               np.ones_like(short_grid), atol=1e-12)


def test_mode_factor_single_state_phase(short_grid):
    # lam = 1.4: one bound state, factor = exp(2 i b00 t) with unit modulus
    modes = make_bath(lam=1.4, beta=1.0, eta=2.0, k_modes=4)
    mode = modes[1]
    assert mode.count == 1
    b00 = mode.b_matrix[0, 0]
    factor = chi_series([mode], SILENT, short_grid).chi
    np.testing.assert_allclose(factor, np.exp(2j * b00 * short_grid), atol=1e-12)
    np.testing.assert_allclose(np.abs(factor), 1.0, atol=1e-13)


def test_chi_series_decoupled(system, short_grid):
    modes = make_bath(lam=2.5, beta=1.0, eta=0.0, k_modes=8)
    trace = chi_series(modes, system, short_grid)
    np.testing.assert_allclose(trace.chi, np.exp(2j * short_grid), atol=1e-12)
    np.testing.assert_allclose(np.abs(trace.chi), 1.0, atol=1e-12)


def test_chi_series_invariants(system, full_grid):
    modes = make_bath(lam=2.6, beta=7.0, eta=2.0, k_modes=40)
    trace = chi_series(modes, system, full_grid)
    assert abs(trace.chi[0] - 1.0) < 1e-12
    assert np.abs(trace.chi).max() <= 1.0 + 1e-12


def test_chi_series_factorizes(system, short_grid):
    modes = make_bath(lam=2.6, beta=4.0, eta=2.0, k_modes=10)
    full = chi_series(modes, system, short_grid).chi
    silent = SystemConfig(omega_s=0.0, rho0=DEFAULT_RHO0)
    first = chi_series(modes[:5], silent, short_grid).chi
    second = chi_series(modes[5:], silent, short_grid).chi
    recombined = np.exp(1j * system.omega_s * short_grid) * first * second
    assert np.abs(full - recombined).max() < 1e-13


def test_mean_field_phase_identity(system, short_grid):
    # bare chi equals exp(2i <B> t) times the renormalized-operator chi
    bath = make_arrays(lam=2.6, betas=[1.0], eta=2.0, k_modes=10)
    bare = chi_traces(bath, system, short_grid)[0].chi
    renorm = chi_traces(renormalized(bath), system, short_grid)[0].chi
    shift, = mean_field_shift(bath)
    assert np.abs(bare - np.exp(1j * shift * short_grid) * renorm).max() < 1e-11


def test_apply_map():
    rho = apply_map(DEFAULT_RHO0, 1.0)
    np.testing.assert_allclose(rho, DEFAULT_RHO0, atol=0.0)
    rho = apply_map(DEFAULT_RHO0, 0.0)
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=0.0)


def test_apply_map_modulus_and_positivity(rng):
    for _ in range(50):
        # random valid initial state
        amp = rng.uniform(0.0, 0.5)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p = rng.uniform(amp, 1.0 - amp)
        rho0 = np.array([[p, amp * np.conj(phase)], [amp * phase, 1.0 - p]])
        r = math.sqrt(rng.uniform(0.0, 1.0))
        chi = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rho = apply_map(rho0, chi)
        assert abs(rho[1, 0]) == pytest.approx(abs(chi) * abs(rho0[1, 0]), abs=1e-14)
        assert np.abs(rho - rho.conj().T).max() == 0.0
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        # positivity: |rho01| <= sqrt(rho00 rho11) whenever the input satisfies it
        assert abs(rho[1, 0]) <= math.sqrt(rho[0, 0].real * rho[1, 1].real) + 1e-14
