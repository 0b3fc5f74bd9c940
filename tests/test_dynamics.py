import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from morsebath import (
    DEFAULT_RHO0,
    chi_traces,
    time_grid,
)
from morsebath import dynamics, kernels
from morsebath.dynamics import _block_eigh
from helpers import apply_map, make_arrays, mode_bath, renormalized

# no impurity phase: chi of one mode is that mode's trace factor
SILENT = 0.0


@pytest.mark.parametrize("lam, betas, times", [
    (2.6, [1.0, 4.0, 10.0], time_grid(20.0, 0.01)),  # one block of 40 modes
    (50.3, [4.0], time_grid(5.0, 0.01)),  # d = 50: a block per mode, one beta
    (3.3, [7.0], np.array([0.0, 0.4])),  # a grid of one block row
    (3.3, [1.0, 7.0], np.sort(np.random.default_rng(3).uniform(0.0, 20.0, 300))),
])
@pytest.mark.parametrize("threshold", [0.5, 1e-3])
def test_chi_until_crossed_equals_chi_traces(lam, betas, times, threshold, omega_s, monkeypatch,
                                             one_blas_thread):
    # chi_traces with a threshold gives the whole grid's prefix up to the end of the first
    # slab by which every beta has crossed, bit for bit: lam = 2.6 ends after the first
    # slab at both thresholds, lam = 50.3 only at 0.5; the grid of one row and the
    # irregular grid are one slab each
    k_modes = 40 if lam < 10 else 3
    bath = make_arrays(lam, betas, k_modes=k_modes)
    full = chi_traces(bath, omega_s, times)
    calls = []
    phase_sum = kernels.phase_sum

    def recording(weights, freqs, times, **kwargs):
        calls.append((weights.shape[1], kwargs["slab"]))
        return phase_sum(weights, freqs, times, **kwargs)

    monkeypatch.setattr(kernels, "phase_sum", recording)
    chi = chi_traces(bath, omega_s, times, threshold=threshold)
    ends = [slab.points.stop for slab in kernels.row_slabs(times)]
    crossed = [(np.abs(full[:, :end]) <= threshold).any(axis=1).all() for end in ends]
    end = ends[crossed.index(True)] if True in crossed else times.shape[0]
    np.testing.assert_array_equal(chi, full[:, :end])
    blocks = len(dynamics._mode_blocks(bath))
    assert len(calls) == blocks * (ends.index(end) + 1)
    n_rows = kernels._uniform_split(times)[0].shape[0]
    # no single-row product except the whole grid of one row
    assert all(c * slab.starts.shape[0] >= 2 or n_rows == 1 for c, slab in calls)
    if end == times.shape[0]:
        # running to the end evaluates every block row once
        assert sum(slab.starts.shape[0] for _, slab in calls) == blocks * n_rows


def test_chi_until_crossed_stops_after_the_first_slab_only_when_every_beta_crossed(omega_s):
    # chi_traces with a threshold; eta = 2: every beta falls to 0.1 within the first four
    # block rows; eta = 0.01: beta = 10 never does, so the whole grid is evaluated
    times = time_grid(20.0, 0.01)
    first = kernels.row_slabs(times)[0].points.stop
    for eta, end in ((2.0, first), (0.01, times.shape[0])):
        bath = make_arrays(2.6, [1.0, 4.0, 7.0, 10.0], eta=eta)
        assert chi_traces(bath, omega_s, times, threshold=0.1).shape == (4, end)


@pytest.mark.parametrize("eta", [2.0, 0.01])
def test_chi_traces_threshold_on_a_pool_equals_inline_and_whole_grid(eta, omega_s,
                                                                     one_blas_thread):
    # d = 50 puts each mode in a block of its own, so the pool runs many term and slab
    # tasks; eta = 2 stops after the first slab, eta = 0.01 runs to the end of the grid
    bath = make_arrays(50.3, [1.0, 4.0], eta=eta, k_modes=5)
    times = time_grid(20.0, 0.01)
    full = chi_traces(bath, omega_s, times)
    inline = chi_traces(bath, omega_s, times, threshold=0.1)
    with ThreadPoolExecutor(2) as pool:
        pooled = chi_traces(bath, omega_s, times, map_blocks=pool.map, threshold=0.1)
    np.testing.assert_array_equal(pooled, inline)
    np.testing.assert_array_equal(pooled, full[:, :pooled.shape[1]])
    assert (pooled.shape[1] < times.shape[0]) == (eta == 2.0)


def test_mode_product_multiplies_in_mode_order():
    # each mode a multiplication of its own onto the product so far, in mode order and
    # across blocks, as the whole-grid and slab paths both compute chi
    rng = np.random.default_rng(11)
    phase = np.exp(1j * rng.uniform(0.0, 40.0, 301))
    blocks = [rng.normal(size=(g, 3, 301)) + 1j * rng.normal(size=(g, 3, 301)) for g in (5, 1, 7)]
    expected = np.repeat(phase[None], 3, axis=0)
    for factors in blocks:
        for factor in factors:
            expected = expected * factor
    got = dynamics._mode_product(phase, 3, (factors.copy() for factors in blocks))
    np.testing.assert_array_equal(got, expected)


def test_time_grid():
    ts = time_grid(20.0, 0.01)
    assert ts.shape == (2001,)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(20.0)
    with pytest.raises(ValueError):
        time_grid(1.0, 1.0)
    with pytest.raises(ValueError):
        time_grid(1.0, -0.1)


def test_propagator_reconstruction():
    bath = make_arrays(lam=2.6, betas=[1.0], eta=2.0, k_modes=5)
    evals_plus, evecs_plus, evals_minus, evecs_minus = _block_eigh(bath.energies, bath.couplings)
    for k, (energies, b) in enumerate(zip(bath.energies, bath.couplings)):
        for sign, evals, evecs in ((1.0, evals_plus[k], evecs_plus[k]),
                                   (-1.0, evals_minus[k], evecs_minus[k])):
            rebuilt = (evecs * evals) @ evecs.T
            assert np.abs(rebuilt - (np.diag(energies) + sign * b)).max() < 1e-10


def test_mode_factor_basics(short_grid):
    bath = make_arrays(lam=2.5, betas=[1.0], eta=2.0, k_modes=4)
    factor, = chi_traces(mode_bath(bath, slice(None, 1)), SILENT, short_grid)
    assert factor[0] == pytest.approx(1.0 + 0.0j, abs=1e-13)
    # zero-coupling boundary mode: H+ = H-, the factor stays at one
    assert bath.g[-1] == 0.0
    boundary, = chi_traces(mode_bath(bath, slice(-1, None)), SILENT, short_grid)
    np.testing.assert_allclose(boundary, np.ones_like(short_grid), atol=1e-12)


def test_mode_factor_single_state_phase(short_grid):
    # lam = 1.4: one bound state, factor = exp(2 i b00 t) with unit modulus
    bath = mode_bath(make_arrays(lam=1.4, betas=[1.0], eta=2.0, k_modes=4), slice(1, 2))
    assert bath.energies.shape[1] == 1
    b00 = bath.couplings[0, 0, 0]
    factor, = chi_traces(bath, SILENT, short_grid)
    np.testing.assert_allclose(factor, np.exp(2j * b00 * short_grid), atol=1e-12)
    np.testing.assert_allclose(np.abs(factor), 1.0, atol=1e-13)


def test_chi_series_decoupled(omega_s, short_grid):
    bath = make_arrays(lam=2.5, betas=[1.0], eta=0.0, k_modes=8)
    chi, = chi_traces(bath, omega_s, short_grid)
    assert chi.shape == short_grid.shape
    np.testing.assert_allclose(chi, np.exp(2j * short_grid), atol=1e-12)
    np.testing.assert_allclose(np.abs(chi), 1.0, atol=1e-12)


def test_chi_series_invariants(omega_s, full_grid):
    bath = make_arrays(lam=2.6, betas=[7.0], eta=2.0, k_modes=40)
    chi, = chi_traces(bath, omega_s, full_grid)
    assert abs(chi[0] - 1.0) < 1e-12
    assert np.abs(chi).max() <= 1.0 + 1e-12


def test_chi_series_factorizes(omega_s, short_grid):
    bath = make_arrays(lam=2.6, betas=[4.0], eta=2.0, k_modes=10)
    full, = chi_traces(bath, omega_s, short_grid)
    first, = chi_traces(mode_bath(bath, slice(None, 5)), SILENT, short_grid)
    second, = chi_traces(mode_bath(bath, slice(5, None)), SILENT, short_grid)
    recombined = np.exp(1j * omega_s * short_grid) * first * second
    assert np.abs(full - recombined).max() < 1e-13


def test_mean_field_phase_identity(omega_s, short_grid):
    # bare chi equals exp(2i <B> t) times the renormalized-operator chi
    bath = make_arrays(lam=2.6, betas=[1.0], eta=2.0, k_modes=10)
    bare, = chi_traces(bath, omega_s, short_grid)
    renorm, = chi_traces(renormalized(bath), omega_s, short_grid)
    shift = 2.0 * bath.mean_b[0].sum()
    assert np.abs(bare - np.exp(1j * shift * short_grid) * renorm).max() < 1e-11


def test_default_rho0_is_a_state_with_coherence_one_quarter():
    assert np.array_equal(DEFAULT_RHO0, DEFAULT_RHO0.conj().T)
    assert DEFAULT_RHO0.trace() == 1.0
    assert np.linalg.eigvalsh(DEFAULT_RHO0).min() >= 0.0
    assert DEFAULT_RHO0[1, 0] == 0.25


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
