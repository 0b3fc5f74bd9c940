import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsebath import (
    DEFAULT_RHO0,
    blp_flows,
    dephasing_time,
    gaussian_error,
    chi_traces,
    gaussian_traces,
    time_grid,
)
from helpers import apply_map, make_arrays, trace_distance


def test_dephasing_time_exponential():
    ts = time_grid(5.0, 0.01)
    tau = dephasing_time(ts, np.exp(-ts), 0.1)
    assert tau == pytest.approx(math.log(10.0), abs=0.01)


def test_dephasing_time_no_crossing():
    ts = time_grid(5.0, 0.01)
    assert dephasing_time(ts, np.exp(1j * ts), 0.1) is None


def test_dephasing_time_interpolation():
    tau = dephasing_time(np.array([0.0, 1.0]), np.array([1.0, 0.05]), 0.1)
    assert tau == pytest.approx(0.9 / 0.95, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threshold=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       dt=st.sampled_from([0.01, 0.05, 1.0]), data=st.data())
def test_dephasing_time_lies_in_the_step_of_the_first_crossing(threshold, dt, data):
    # at the first i with |chi_i| <= threshold, |chi_(i-1)| > threshold: the two never
    # tie, and the interpolation lands in [t_(i-1), t_i], on t_i for a sample on the threshold
    first = data.draw(st.floats(threshold, 2.0, exclude_min=True))
    rest = data.draw(st.lists(st.one_of(st.just(threshold), st.just(0.0), st.floats(0.0, 2.0)),
                              max_size=40))
    row = np.array([first, *rest])
    times = np.arange(row.size) * dt
    tau = dephasing_time(times, row, threshold)
    below = np.flatnonzero(row <= threshold)
    if below.size == 0:
        assert tau is None
        return
    i = below[0]
    assert times[i - 1] <= tau <= times[i]
    if row[i] == threshold:
        assert tau == times[i]


def test_dephasing_time_threshold_monotone(omega_s, full_grid):
    bath = make_arrays(lam=2.6, betas=[4.0], eta=2.0, k_modes=20)
    chi, = chi_traces(bath, omega_s, full_grid)
    t_loose = dephasing_time(full_grid, chi, threshold=0.2)
    t_tight = dephasing_time(full_grid, chi, threshold=0.1)
    assert t_loose is not None and t_tight is not None
    assert t_loose <= t_tight


def test_dephasing_time_errors(full_grid):
    chi = np.exp(-full_grid)
    with pytest.raises(ValueError):
        dephasing_time(full_grid, chi, threshold=1.5)
    # the threshold's one default, 0.1, is ExperimentConfig.threshold's
    with pytest.raises(TypeError):
        dephasing_time(full_grid, chi)


def test_dephasing_time_shape_mismatch(full_grid):
    # a chi row shorter than its grid (a threshold prefix not sliced by the caller)
    with pytest.raises(ValueError, match="share one shape"):
        dephasing_time(full_grid, np.exp(-full_grid[:-1]), 0.1)


def test_blp_flows_example():
    report = blp_flows(np.array([1.0, 0.5, 0.7, 0.3]))
    assert report.n_minus == pytest.approx(0.2, abs=1e-14)
    assert report.n_plus == pytest.approx(0.9, abs=1e-14)
    assert report.ratio == pytest.approx(0.2 / 0.9, abs=1e-12)


def test_blp_flows_monotone_series():
    report = blp_flows(np.linspace(1.0, 0.2, 50))
    assert report.n_minus == 0.0
    assert report.ratio == 0.0


def test_blp_flows_no_outflow():
    report = blp_flows(np.linspace(0.2, 1.0, 50))
    assert report.n_plus == 0.0
    assert report.ratio is None


def test_blp_flows_telescoping(rng):
    for _ in range(20):
        x = np.abs(rng.normal(size=200)).cumsum() / 50.0
        x = np.exp(-x) * (1.0 + 0.3 * np.sin(rng.uniform(0, 6) * np.arange(200)))
        report = blp_flows(x)
        assert x[-1] - x[0] == pytest.approx(report.n_minus - report.n_plus, abs=1e-10)


def test_blp_flows_needs_two_samples():
    with pytest.raises(ValueError, match="at least two samples"):
        blp_flows(np.array([0.5]))


def test_blp_flows_plateau_tolerance():
    x = np.array([1.0, 1.0 + 5e-13, 1.0, 1.0 - 5e-13, 1.0])
    report = blp_flows(x)
    assert report.n_minus == 0.0 and report.n_plus == 0.0


def test_trace_distance_basics():
    a = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    assert trace_distance(a, a) == 0.0
    b = a.copy()
    b[0, 1] += 0.1
    b[1, 0] += 0.1
    assert trace_distance(a, b) == pytest.approx(0.1, abs=1e-14)
    assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)


def test_trace_distance_metric_properties(rng):
    def random_state():
        amp = rng.uniform(0.0, 0.5)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p = rng.uniform(amp, 1.0 - amp)
        return np.array([[p, amp * np.conj(phase)], [amp * phase, 1.0 - p]])

    for _ in range(30):
        a, b, c = random_state(), random_state(), random_state()
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-15)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12
        assert trace_distance(a, b) >= 0.0


def test_gaussian_error_zero_for_identical(omega_s, short_grid):
    bath = make_arrays(lam=2.6, betas=[4.0], eta=0.5, k_modes=10)
    chi, = chi_traces(bath, omega_s, short_grid)
    report = gaussian_error(short_grid, chi, chi, DEFAULT_RHO0)
    assert np.all(report.pointwise == 0.0)
    assert report.time_avg == 0.0


def test_gaussian_error_quarter_coherence():
    ts = np.array([0.0, 1.0, 2.0])
    report = gaussian_error(ts, np.array([1.0, 0.9, 0.8]), np.array([1.0, 0.7, 0.8]),
                            DEFAULT_RHO0)
    # |rho01(0)| = 1/4, so D = |chi - chi_G| / 4 pointwise
    assert report.pointwise[1] == pytest.approx(0.2, abs=1e-14)
    d_mid = trace_distance(apply_map(DEFAULT_RHO0, 0.9), apply_map(DEFAULT_RHO0, 0.7))
    assert d_mid == pytest.approx(0.05, abs=1e-14)
    assert report.time_avg == pytest.approx((0.0 / 4 + 0.2 / 4 + 0.0 / 4) / 2.0, abs=1e-14)


def test_gaussian_error_matches_explicit_route(omega_s, short_grid):
    bath = make_arrays(lam=2.6, betas=[7.0], eta=0.5, k_modes=10)
    chi, = chi_traces(bath, omega_s, short_grid)
    chi_gauss, = gaussian_traces(bath, omega_s, short_grid)
    report = gaussian_error(short_grid, chi, chi_gauss, DEFAULT_RHO0)
    explicit = [trace_distance(apply_map(DEFAULT_RHO0, c), apply_map(DEFAULT_RHO0, g))
                for c, g in zip(chi, chi_gauss)]
    np.testing.assert_allclose(report.pointwise * 0.25, explicit, atol=1e-13)


def test_gaussian_error_grid_mismatch(omega_s):
    bath = make_arrays(lam=2.6, betas=[4.0], eta=0.5, k_modes=5)
    times = time_grid(5.0, 0.01)
    a, = chi_traces(bath, omega_s, times)
    b, = chi_traces(bath, omega_s, time_grid(5.0, 0.05))
    with pytest.raises(ValueError, match="share one shape"):
        gaussian_error(times, a, b, DEFAULT_RHO0)
    with pytest.raises(ValueError, match="share one shape"):
        gaussian_error(times[:-1], a, a, DEFAULT_RHO0)


@pytest.mark.parametrize("times", [np.array([0.0]), np.array([1.0, 1.0]), np.empty(0),
                                   np.full(5, 2.5)], ids=["one-point", "equal-ends", "empty",
                                                          "constant"])
def test_gaussian_error_rejects_a_grid_without_a_time_span(times):
    # the trapezoidal mean divides by t_last - t_first; no nan average is returned
    chi = np.ones_like(times, dtype=complex)
    with pytest.raises(ValueError, match=r"needs 2 or more times.*got times \["):
        gaussian_error(times, chi, 0.5 * chi, DEFAULT_RHO0)
