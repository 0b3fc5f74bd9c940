import math

import numpy as np
import pytest
from scipy.integrate import quad

from morsebath import (
    DEFAULT_RHO0,
    bath_arrays,
    bound_energies,
    chi_traces,
    spectral_density,
    time_grid,
)
from morsebath.bath import BathConfig, discretize
from morsebath.dynamics import SystemConfig, chi_series
from helpers import make_arrays


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
    bath = make_arrays(lam=2.5, betas=[1.0], eta=2.0, k_modes=40)
    assert bath.omega[0] == pytest.approx(0.05)
    assert bath.omega[-1] == pytest.approx(2.0)
    # boundary mode carries exactly zero coupling
    assert bath.g[-1] == 0.0
    g39 = math.sqrt(2.0 / 40.0 * spectral_density(1.95, 2.0, 1.0))
    assert bath.g[38] == pytest.approx(g39, abs=1e-14)


def test_coupling_sum_matches_spectral_integral():
    bath = make_arrays(lam=2.5, betas=[1.0], eta=2.0, k_modes=40)
    total = sum(g ** 2 for g in bath.g)
    integral, _ = quad(lambda w: spectral_density(w, 2.0, 1.0), 0.0, 2.0)
    assert abs(total - integral) / integral < 0.03


def test_thermal_weights_reference():
    bath = make_arrays(lam=2.5, betas=[1.0], eta=2.0, k_modes=2)
    weights = bath.weights[0, 0]  # omega = 1
    p0 = 1.0 / (1.0 + math.exp(-0.6))
    np.testing.assert_allclose(weights, [p0, 1.0 - p0], atol=1e-12)


def test_thermal_weights_zero_temperature_limit():
    bath = make_arrays(lam=2.5, betas=[1e4], eta=2.0, k_modes=4)
    for weights in bath.weights[0]:
        np.testing.assert_allclose(weights, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("beta", [1.0, 4.0, 7.0, 10.0])
def test_thermal_normalization_and_renormalization(beta):
    bath = make_arrays(lam=2.6, betas=[beta], eta=0.5, k_modes=10)
    for k, weights in enumerate(bath.weights[0]):
        assert abs(weights.sum() - 1.0) < 1e-12
        # per-mode renormalization: thermal mean of b_tilde vanishes
        b_tilde = bath.couplings[k] - bath.mean_b[0, k] * np.eye(bath.energies.shape[1])
        assert abs(weights @ np.diag(b_tilde)) < 1e-12
        assert bath.partition[0, k] > 0.0


def test_thermal_data_at_second_beta():
    bath = bath_arrays(2.0, 1.0, 2, 2.5, [1.0, 10.0])
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
        bath_arrays(2.0, 1.0, 2, 2.5, [1.0, 0.0])


def test_mean_b_is_computed_on_first_read_and_kept():
    # the exact path never reads the thermal means, so a Bath computes them on the
    # first read, once
    bath = bath_arrays(2.0, 1.0, 3, 2.5, [1.0, 10.0])
    chi_traces(bath, 2.0, time_grid(1.0, 0.1))
    assert "mean_b" not in vars(bath)
    mean_b = bath.mean_b
    assert bath.mean_b is mean_b and mean_b.shape == (2, 3)
    for weights, means in zip(bath.weights, mean_b):
        for w, b, mean in zip(weights, bath.couplings, means):
            assert mean == pytest.approx(float(w @ np.diag(b)), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("lam, beta, eta, k_modes", [
    (2.6, 7.0, 0.01, 40),
    (7.4, 1.0, 2.0, 40),
    (60.3, 10.0, 0.5, 3),
])
def test_discretize_is_a_view_of_bath_arrays(lam, beta, eta, k_modes):
    # the per-mode view that only the benchmark's references read; the dense oracle
    # and the other tests take the Bath
    config = BathConfig(eta=eta, omega_c=1.0, k_modes=k_modes, lam=lam, beta=beta)
    modes = discretize(config)
    bath = bath_arrays(eta, 1.0, k_modes, lam, [beta])
    assert len(modes) == k_modes
    for k, mode in enumerate(modes):
        assert np.array_equal(mode.omega, bath.omega[k])
        assert np.array_equal(mode.g, bath.g[k])
        assert np.array_equal(mode.h_diag, bath.energies[k])
        assert np.array_equal(mode.b_matrix, bath.couplings[k])
        assert np.array_equal(mode.weights, bath.weights[0, k])
    times = time_grid(5.0, 0.01)
    exact, = chi_traces(bath, 2.0, times)
    chi = chi_series(modes, SystemConfig(omega_s=2.0, rho0=DEFAULT_RHO0), times)
    assert chi.shape == times.shape and np.array_equal(chi, exact)


@pytest.mark.parametrize("lam, k_modes, count", [(1.6, 40, 2), (7.4, 40, 7), (399.8, 3, 400)])
def test_bath_energies_are_bound_energies(lam, k_modes, count):
    # one formula for the level energies: the array and the one-mode call give the same bits
    bath = bath_arrays(2.0, 1.0, k_modes, lam, [1.0])
    assert bath.energies.shape == (k_modes, count)
    assert np.array_equal(bound_energies(bath.omega, lam), bath.energies)
    for omega, energies in zip(bath.omega, bath.energies):
        assert np.array_equal(bound_energies(float(omega), lam), energies)


def test_lambda_without_bound_state_is_rejected():
    # lam + 1/2 within 1e-9 of 1: the count is 0
    with pytest.raises(ValueError, match="binds no state"):
        make_arrays(lam=0.5 + 1e-10, betas=[1.0], k_modes=2)


def test_bath_config_validation():
    # bath_arrays checks eta, omega_c and k_modes, bound_state_count lam and
    # _thermal the betas; discretize validates its BathConfig through bath_arrays
    for (eta, omega_c, k_modes, lam, beta), message in [
        ((-1.0, 1.0, 4, 2.5, 1.0), "eta must be >= 0"),
        ((1.0, 0.0, 4, 2.5, 1.0), "omega_c must be positive"),
        ((1.0, 1.0, 0, 2.5, 1.0), "k_modes must be >= 1"),
        ((1.0, 1.0, 4, 0.4, 1.0), "lam must exceed 1/2"),
        ((1.0, 1.0, 4, 2.5, -2.0), "beta must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            bath_arrays(eta, omega_c, k_modes, lam, [beta])
        with pytest.raises(ValueError, match=message):
            discretize(BathConfig(eta, omega_c, k_modes, lam, beta))

