import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from morsebath import (
    CorrelationModel,
    alpha,
    build_correlation,
    chi_traces,
    gamma_decay,
    gaussian_chi,
    gaussian_traces,
    mean_field_shift,
    offset_ratio,
    time_grid,
)
from morsebath import correlation, kernels
from helpers import make_arrays, mode_bath, reference_mean_b, reference_offset_c0


def single_term(w=1.0, delta=2.0, c0=0.0):
    return CorrelationModel(offset_c0=np.array([c0]), weights=np.array([[w]]),
                            deltas=np.array([delta]))


def test_build_single_two_level_mode():
    bath = mode_bath(make_arrays(lam=2.5, betas=[1.0], eta=2.0, k_modes=2), slice(None, 1))
    model = build_correlation(bath)
    p = bath.weights[0, 0]
    bt = bath.couplings[0] - bath.mean_b[0, 0] * np.eye(bath.energies.shape[1])
    expected_c0 = p[0] * bt[0, 0] ** 2 + p[1] * bt[1, 1] ** 2
    c0, = model.offset_c0
    assert c0 == pytest.approx(expected_c0, abs=1e-15)
    (a0,), = alpha(model, np.zeros(1))
    assert a0.real == pytest.approx(expected_c0 + (p[0] + p[1]) * bt[0, 1] ** 2, abs=1e-14)
    assert abs(a0.imag) < 1e-14


def test_offset_vanishes_at_zero_temperature():
    model = build_correlation(make_arrays(lam=2.6, betas=[1e4], eta=0.01, k_modes=40))
    c0, = model.offset_c0
    ratio, = offset_ratio(model)
    assert c0 < 1e-10
    assert ratio < 1e-8


def test_alpha_hermiticity(rng):
    model = build_correlation(make_arrays(lam=2.6, betas=[4.0], eta=0.5, k_modes=10))
    ts = rng.uniform(0.0, 20.0, size=100)
    assert alpha(model, -ts) == pytest.approx(np.conj(alpha(model, ts)), abs=1e-13)


def test_alpha_single_term():
    model = single_term(w=1.0, delta=2.0)
    (value,), = alpha(model, np.array([math.pi / 2.0]))
    assert value == pytest.approx(-1.0 + 0.0j, abs=1e-14)


def test_offset_ratio_requires_terms():
    empty = CorrelationModel(offset_c0=np.array([0.3]), weights=np.empty((0, 1)),
                             deltas=np.empty(0))
    with pytest.raises(ZeroDivisionError):
        offset_ratio(empty)
    with pytest.raises(ZeroDivisionError):
        offset_ratio(build_correlation(make_arrays(lam=2.5, betas=[1.0], eta=0.0, k_modes=4)))


def test_offset_ratio_temperature_ordering():
    hot = build_correlation(make_arrays(lam=2.6, betas=[1.0], eta=0.01, k_modes=40))
    cold = build_correlation(make_arrays(lam=2.6, betas=[10.0], eta=0.01, k_modes=40))
    assert offset_ratio(hot)[0] > offset_ratio(cold)[0]
    assert hot.offset_c0[0] > cold.offset_c0[0]


def test_offset_ratio_of_each_beta_equals_its_one_beta_model():
    # each beta's C0 is divided by that beta's own weight sum
    betas = [1.0, 10.0]
    both = offset_ratio(build_correlation(make_arrays(lam=2.6, betas=betas, eta=0.01)))
    alone = [offset_ratio(build_correlation(make_arrays(lam=2.6, betas=[b], eta=0.01)))[0]
             for b in betas]
    np.testing.assert_allclose(both, alone, rtol=1e-12)
    np.testing.assert_allclose(alone, [35.69, 2.93], rtol=1e-3)


def test_gamma_closed_forms():
    ts = np.linspace(0.0, 10.0, 7)
    pure_offset = CorrelationModel(offset_c0=np.array([0.7]), weights=np.empty((0, 1)),
                                   deltas=np.empty(0))
    np.testing.assert_allclose(gamma_decay(pure_offset, ts), [2.0 * 0.7 * ts**2], atol=1e-13)
    np.testing.assert_array_equal(gamma_decay(pure_offset, np.zeros(1)), [[0.0]])

    model = single_term(w=0.3, delta=1.7)
    expected = 8.0 * 0.3 * np.sin(1.7 * ts / 2.0) ** 2 / 1.7**2
    np.testing.assert_allclose(gamma_decay(model, ts), [expected], atol=1e-13)

    # removable singularity: |delta| below tolerance takes the t^2 branch
    degenerate = single_term(w=0.3, delta=1e-15)
    np.testing.assert_allclose(gamma_decay(degenerate, ts), [2.0 * 0.3 * ts**2], atol=1e-13)


def test_gamma_equals_double_quadrature(rng):
    model = build_correlation(make_arrays(lam=2.6, betas=[4.0], eta=0.5, k_modes=5))
    for t in rng.uniform(0.5, 20.0, size=5):
        direct, err = dblquad(lambda u, s: alpha(model, np.array([s - u]))[0, 0].real,
                              0.0, t, 0.0, lambda s: s,
                              epsabs=1e-11, epsrel=1e-11)
        assert abs(gamma_decay(model, np.array([t]))[0, 0] - 4.0 * direct) < 1e-8


def test_gamma_nonnegative(rng):
    w = rng.uniform(0.0, 1.0, size=30)
    d = rng.uniform(-3.0, 3.0, size=30)
    model = CorrelationModel(offset_c0=np.array([0.1]), weights=w[:, None], deltas=d)
    assert np.all(gamma_decay(model, np.linspace(0.0, 30.0, 500)) >= 0.0)


def harmonic_reference_model(k_modes=40, eta=0.01, omega_c=1.0, beta=4.0, levels=120):
    """Correlation terms of a strictly harmonic bath (ladder elements
    sqrt(n+1)), truncated far below the thermal tail."""
    ws, ds = [], []
    for k in range(1, k_modes + 1):
        omega = 2.0 * omega_c * k / k_modes
        j = 0.0 if omega >= 2.0 * omega_c else eta * (omega / omega_c) * math.exp(-omega / omega_c)
        g2 = 2.0 * omega_c / k_modes * j
        n = np.arange(levels)
        p = np.exp(-beta * omega * n)
        p /= p.sum()
        ws.extend(g2 * (n + 1.0) * p)
        ds.extend(np.full(levels, -omega))
        ws.extend(g2 * n * p)
        ds.extend(np.full(levels, omega))
    return CorrelationModel(offset_c0=np.zeros(1), weights=np.array(ws)[:, None],
                            deltas=np.array(ds))


def test_gamma_harmonic_limit_matches_coth_sum():
    beta, k_modes, eta, omega_c = 4.0, 40, 0.01, 1.0
    model = harmonic_reference_model(k_modes, eta, omega_c, beta)
    ts = np.linspace(0.0, 20.0, 201)[1:]
    expected = np.zeros_like(ts)
    for k in range(1, k_modes + 1):
        omega = 2.0 * omega_c * k / k_modes
        j = 0.0 if omega >= 2.0 * omega_c else eta * (omega / omega_c) * math.exp(-omega / omega_c)
        g2 = 2.0 * omega_c / k_modes * j
        expected += (8.0 * g2 / omega**2 * np.sin(omega * ts / 2.0) ** 2
                     / math.tanh(beta * omega / 2.0))
    got = gamma_decay(model, ts)
    assert np.max(np.abs(got - expected) / expected) < 0.02


def test_gaussian_chi_basics():
    bath = make_arrays(lam=2.6, betas=[4.0], eta=0.5, k_modes=10)
    model = build_correlation(bath)
    shift = mean_field_shift(bath)
    (chi0,), = gaussian_chi(model, 2.0, shift, np.zeros(1))
    assert chi0 == pytest.approx(1.0 + 0.0j, abs=1e-14)
    ts = np.linspace(0.0, 20.0, 101)
    chi = gaussian_chi(model, 2.0, shift, ts)
    assert np.all(np.abs(chi) <= 1.0 + 1e-12)
    np.testing.assert_allclose(np.abs(chi), np.exp(-gamma_decay(model, ts)), atol=1e-13)


def test_mean_field_shift():
    bath = make_arrays(lam=2.6, betas=[1.0, 4.0], eta=2.0, k_modes=5)
    for beta, shift in zip([1.0, 4.0], mean_field_shift(bath)):
        one_beta = make_arrays(lam=2.6, betas=[beta], eta=2.0, k_modes=5)
        assert shift == pytest.approx(2.0 * sum(one_beta.mean_b[0]))


def full_list_model(bath, weight_cutoff=correlation.NEGLIGIBLE_WEIGHT):
    """Weights and gaps of every ordered pair of every mode, pruned as one list.

    A beta whose pairs all weigh zero keeps none of them.
    """
    n_beta, _, d = bath.weights.shape
    rows, cols = np.nonzero(~np.eye(d, dtype=bool))
    w = (bath.weights[:, :, rows] * bath.couplings[:, rows, cols] ** 2).reshape(n_beta, -1)
    keep = kernels.kept_terms(w, weight_cutoff * w.sum(axis=-1))
    keep &= w.sum(axis=-1, keepdims=True) > 0.0
    union = keep.any(axis=0)
    w = np.where(keep, w, 0.0)[:, union]
    mode, pair = np.divmod(np.flatnonzero(union), rows.size)
    return w.T, bath.energies[mode, rows[pair]] - bath.energies[mode, cols[pair]]


def rows_listed(monkeypatch):
    """Record the per-mode row counts of every term listing build_correlation makes."""
    calls = []
    pair_weights = correlation._pair_weights

    def spy(bath, listed):
        calls.append(listed.copy())
        return pair_weights(bath, listed)

    monkeypatch.setattr(correlation, "_pair_weights", spy)
    return calls


@pytest.mark.parametrize("lam, betas, eta", [
    (399.8, [4.0], 0.01),           # the harmonic-limit benchmark point
    (7.4, [1.0, 4.0, 7.0, 10.0], 0.01),  # a fig5 point
    (60.3, [1.0, 10.0], 2.0),
])
def test_rows_left_out_leave_the_model_unchanged(lam, betas, eta, monkeypatch):
    bath = make_arrays(lam=lam, betas=betas, eta=eta, k_modes=40)
    calls = rows_listed(monkeypatch)
    model = build_correlation(bath)
    d = bath.energies.shape[1]
    assert len(calls) == 1 and calls[0].min() < d  # rows were left out, and no relisting
    weights, deltas = full_list_model(bath)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.deltas, deltas)


def test_uncoupled_bath_keeps_no_terms(monkeypatch):
    # eta = 0: every pair weighs zero, so no row is listed and no term is kept
    bath = make_arrays(lam=399.8, betas=[4.0, 1.0], eta=0.0, k_modes=40)
    calls = rows_listed(monkeypatch)
    model = build_correlation(bath)
    assert len(calls) == 1 and not calls[0].any()
    assert model.weights.shape == (0, 2) and model.deltas.shape == (0,)
    np.testing.assert_array_equal(model.offset_c0, [0.0, 0.0])
    np.testing.assert_array_equal(gamma_decay(model, np.arange(5) * 0.5), np.zeros((2, 5)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lam=st.floats(min_value=1.6, max_value=60.0),
       betas=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=3),
       eta=st.floats(min_value=0.0, max_value=2.0), k_modes=st.integers(1, 40))
def test_row_listing_equals_full_list(lam, betas, eta, k_modes):
    bath = make_arrays(lam=lam, betas=betas, eta=eta, k_modes=k_modes)
    model = build_correlation(bath)
    weights, deltas = full_list_model(bath)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.deltas, deltas)


@st.composite
def vecdot_baths(draw):
    """Baths of lam 0.6-420 (d 1-420), 1-64 modes and 1-5 betas, K d^2 <= 1e6 to bound memory."""
    lam = draw(st.floats(min_value=0.6, max_value=420.0))
    d = math.floor(lam + 0.5)
    k_modes = draw(st.integers(1, max(1, min(64, 1_000_000 // (d * d)))))
    betas = draw(st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=5))
    return make_arrays(lam=lam, betas=betas, eta=draw(st.floats(0.01, 3.0)), k_modes=k_modes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(bath=vecdot_baths())
@example(bath=make_arrays(lam=399.8, betas=[1.0, 4.0], eta=0.01, k_modes=6))
@example(bath=make_arrays(lam=2.6, betas=[1, 4, 7, 10], eta=0.01, k_modes=40))
@example(bath=make_arrays(lam=0.6, betas=[1.0], eta=2.0, k_modes=64))
def test_mean_b_and_offset_equal_the_per_mode_dots(bath):
    # bit for bit: np.vecdot runs the per-mode loop's BLAS dot on each row, where
    # (p * diag).sum(-1), einsum or a stacked matmul round differently
    np.testing.assert_array_equal(bath.mean_b, reference_mean_b(bath))
    np.testing.assert_array_equal(build_correlation(bath).offset_c0, reference_offset_c0(bath))


def test_weight_cutoff_is_read_at_each_call(monkeypatch):
    # a cutoff of 0 keeps every pair of every mode: 40 modes of 7 levels at lam = 7.4
    monkeypatch.setattr(correlation, "NEGLIGIBLE_WEIGHT", 0.0)
    bath = make_arrays(lam=7.4, betas=[1.0, 10.0], eta=0.01, k_modes=40)
    model = build_correlation(bath)
    weights, deltas = full_list_model(bath, 0.0)
    assert deltas.shape == (40 * 7 * 6,)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.deltas, deltas)


def test_rows_are_relisted_when_a_left_out_term_could_be_kept(monkeypatch):
    # a row tail far above the budget leaves out terms the pruning keeps
    monkeypatch.setattr(correlation, "_ROW_TAIL", 1e11)
    bath = make_arrays(lam=7.4, betas=[1.0, 10.0], eta=0.01, k_modes=40)
    calls = rows_listed(monkeypatch)
    model = build_correlation(bath)
    d = bath.energies.shape[1]
    assert len(calls) == 2 and calls[0].min() < d and np.all(calls[1] == d)
    weights, deltas = full_list_model(bath)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.deltas, deltas)


@pytest.mark.parametrize("lam, beta", [(2.6, 4.0), (4.2, 1.0), (2.6, 10.0), (5.3, 4.0),
                                       (2.6, 1.0)])
def test_gaussian_path_is_the_second_cumulant_of_the_exact_path(lam, beta):
    # chi_G keeps the exact factor's cumulants up to the second, and flipping the
    # coupling sign conjugates both traces, so L = log(chi / chi_G) has
    # Im L = O(eta^1.5) and Re L = O(eta^2): a tenth of eta divides max|Im L| by
    # 10^1.5 and max|Re L| by 100, where a wrong factor in C0, w, Delta, the
    # mean-field shift or Gamma would leave an O(eta) gap.  At eta = 1e-7 |Re L| is
    # still far above the pruning bound of 2 K 1e-14
    times = time_grid(20.0, 0.01)
    gaps = []
    for eta in (1e-6, 1e-7):
        bath = make_arrays(lam, [beta], eta=eta, k_modes=40)
        (chi,), (chi_gauss,) = chi_traces(bath, 0.0, times), gaussian_traces(bath, 0.0, times)
        log_ratio = np.log(chi / chi_gauss)
        gaps.append((np.abs(log_ratio.imag).max(), np.abs(log_ratio.real).max()))
    (phase, modulus), (phase_tenth, modulus_tenth) = gaps
    assert phase / phase_tenth == pytest.approx(10 ** 1.5, rel=0.02)
    assert modulus / modulus_tenth == pytest.approx(100.0, rel=0.02)
