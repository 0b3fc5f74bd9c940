import math

import numpy as np
import pytest
from scipy.integrate import quad

from morsebath import (
    DEFAULT_RHO0,
    BathConfig,
    SystemConfig,
    bath_arrays,
    bound_energies,
    chi_series,
    chi_traces,
    discretize,
    spectral_density,
    time_grid,
)
from helpers import make_bath


def test_spectral_density_values():
    assert spectral_density(1.0, eta=2.0, omega_c=1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-14)
    assert spectral_density(2.5, eta=2.0, omega_c=1.0) == 0.0
    assert spectral_density(0.0, eta=2.0, omega_c=1.0) == 0.0
    # hard-cut boundary convention: J vanishes exactly at 2 omega_c
    assert spectral_density(2.0, eta=2.0, omega_c=1.0) == 0.0
    with pytest.raises(ValueError):
        spectral_density(-0.1, eta=2.0, omega_c=1.0)


def test_spectral_density_array():
    w = np.array([0.0, 1.0, 1.9999, 2.0, 3.0])
    j = spectral_density(w, eta=2.0, omega_c=1.0)
    assert j[0] == 0.0 and j[3] == 0.0 and j[4] == 0.0
    assert j[1] == pytest.approx(2.0 * math.exp(-1.0))


def test_discretize_frequencies_and_couplings():
    modes = make_bath(lam=2.5, beta=1.0, eta=2.0, k_modes=40)
    assert modes[0].omega == pytest.approx(0.05)
    assert modes[-1].omega == pytest.approx(2.0)
    # boundary mode carries exactly zero coupling
    assert modes[-1].g == 0.0
    g39 = math.sqrt(2.0 / 40.0 * spectral_density(1.95, 2.0, 1.0))
    assert modes[38].g == pytest.approx(g39, abs=1e-14)


def test_coupling_sum_matches_spectral_integral():
    modes = make_bath(lam=2.5, beta=1.0, eta=2.0, k_modes=40)
    total = sum(m.g ** 2 for m in modes)
    integral, _ = quad(lambda w: spectral_density(w, 2.0, 1.0), 0.0, 2.0)
    assert abs(total - integral) / integral < 0.03


def test_thermal_weights_reference():
    modes = make_bath(lam=2.5, beta=1.0, eta=2.0, k_modes=2)
    mode = modes[0]  # omega = 1
    p0 = 1.0 / (1.0 + math.exp(-0.6))
    np.testing.assert_allclose(mode.weights, [p0, 1.0 - p0], atol=1e-12)


def test_thermal_weights_zero_temperature_limit():
    modes = make_bath(lam=2.5, beta=1e4, eta=2.0, k_modes=4)
    for mode in modes:
        np.testing.assert_allclose(mode.weights, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("beta", [1.0, 4.0, 7.0, 10.0])
def test_thermal_normalization_and_renormalization(beta):
    modes = make_bath(lam=2.6, beta=beta, eta=0.5, k_modes=10)
    for mode in modes:
        assert abs(mode.weights.sum() - 1.0) < 1e-12
        # per-mode renormalization: thermal mean of b_tilde vanishes
        b_tilde = mode.b_matrix - mode.mean_b * np.eye(mode.count)
        assert abs(mode.weights @ np.diag(b_tilde)) < 1e-12
        assert mode.partition > 0.0


def test_thermal_data_at_second_beta():
    config = BathConfig(eta=2.0, omega_c=1.0, k_modes=2, lam=2.5, beta=1.0)
    bath = bath_arrays(config, [1.0, 10.0])
    weights, partition, mean_b = bath.weights[1, 0], bath.partition[1, 0], bath.mean_b[1, 0]
    e = bath.energies[0]
    expected = np.exp(-10.0 * (e - e[0]))
    expected /= expected.sum()
    np.testing.assert_allclose(weights, expected, atol=1e-14)
    assert partition == pytest.approx(float(np.exp(-10.0 * (e - e[0])).sum()))
    assert mean_b == pytest.approx(float(weights @ np.diag(bath.couplings[0])))
    b_tilde = bath.couplings[0] - mean_b * np.eye(e.size)
    assert abs(weights @ np.diag(b_tilde)) < 1e-13
    with pytest.raises(ValueError):
        bath_arrays(config, [1.0, 0.0])


@pytest.mark.parametrize("lam, beta, eta, k_modes", [
    (2.6, 7.0, 0.01, 40),
    (7.4, 1.0, 2.0, 40),
    (60.3, 10.0, 0.5, 3),
])
def test_discretize_is_a_view_of_bath_arrays(lam, beta, eta, k_modes):
    # the per-mode view that the dense oracle and the benchmark's references read
    config = BathConfig(eta=eta, omega_c=1.0, k_modes=k_modes, lam=lam, beta=beta)
    modes = discretize(config)
    bath = bath_arrays(config)
    assert len(modes) == k_modes
    for k, mode in enumerate(modes):
        assert np.array_equal(mode.omega, bath.omega[k])
        assert np.array_equal(mode.g, bath.g[k])
        assert np.array_equal(mode.h_diag, bath.energies[k])
        assert np.array_equal(mode.b_matrix, bath.couplings[k])
        assert np.array_equal(mode.weights, bath.weights[0, k])
    system = SystemConfig(omega_s=2.0, rho0=DEFAULT_RHO0)
    times = time_grid(5.0, 0.01)
    exact, = chi_traces(bath, system, times)
    assert np.array_equal(chi_series(modes, system, times).chi, exact.chi)


@pytest.mark.parametrize("lam, k_modes, count", [(1.6, 40, 2), (7.4, 40, 7), (399.8, 3, 400)])
def test_bath_energies_are_bound_energies(lam, k_modes, count):
    # one formula for the level energies: the array and the one-mode call give the same bits
    bath = bath_arrays(BathConfig(eta=2.0, omega_c=1.0, k_modes=k_modes, lam=lam, beta=1.0))
    assert bath.energies.shape == (k_modes, count)
    assert np.array_equal(bound_energies(bath.omega, lam), bath.energies)
    for omega, energies in zip(bath.omega, bath.energies):
        assert np.array_equal(bound_energies(float(omega), lam), energies)


def test_lambda_without_bound_state_is_rejected():
    # lam + 1/2 within 1e-9 of 1: the count is 0
    with pytest.raises(ValueError, match="binds no state"):
        make_bath(lam=0.5 + 1e-10, beta=1.0, k_modes=2)


def test_bath_config_validation():
    with pytest.raises(ValueError):
        BathConfig(eta=-1.0, omega_c=1.0, k_modes=4, lam=2.5, beta=1.0)
    with pytest.raises(ValueError):
        BathConfig(eta=1.0, omega_c=0.0, k_modes=4, lam=2.5, beta=1.0)
    with pytest.raises(ValueError):
        BathConfig(eta=1.0, omega_c=1.0, k_modes=0, lam=2.5, beta=1.0)
    with pytest.raises(ValueError):
        BathConfig(eta=1.0, omega_c=1.0, k_modes=4, lam=0.4, beta=1.0)
    with pytest.raises(ValueError):
        BathConfig(eta=1.0, omega_c=1.0, k_modes=4, lam=2.5, beta=-2.0)
