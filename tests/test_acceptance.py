"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines with the measured figures.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from morsebath import (
    DEFAULT_RHO0,
    CorrelationModel,
    blp_flows,
    bound_energies,
    build_correlation,
    chi_traces,
    dense_chi,
    gamma_decay,
    gaussian_traces,
    ladder_matrix,
    offset_ratio,
    quadrature_element,
    time_grid,
    x_matrix,
)
from morsebath.cli import _run_sweep
from morsebath.config import ExperimentConfig
from helpers import make_arrays

OMEGA_S = 2.0


def report(num, name, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {detail} -> PASS")


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    times = time_grid(20.0, 0.01)
    worst = 0.0
    for k_modes in (1, 2):
        for lam in (2.5, 2.6):
            for beta in (1.0, 10.0):
                for eta in (0.5, 2.0):
                    bath = make_arrays(lam=lam, betas=[beta], eta=eta, k_modes=k_modes)
                    fact, = chi_traces(bath, OMEGA_S, times)
                    dense = dense_chi(bath, OMEGA_S, times)
                    worst = max(worst, float(np.abs(fact - dense).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, "oracle equivalence",
           f"max|chi_fact - chi_dense| = {worst:.3e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_02_matrix_elements_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for lam in (1.6, 2.5, 2.6, 3.5, 5.6, 10.5):
        x = x_matrix(lam)
        d = x.shape[0]
        for n in range(d):
            for m in range(n, d):
                worst = max(worst, abs(x[n, m] - quadrature_element(lam, n, m)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    report(2, "closed forms vs quadrature",
           f"max deviation = {worst:.3e} (tol 1e-8), {elapsed:.2f}s")


def test_criterion_03_harmonic_limit():
    start = time.perf_counter()
    lad = ladder_matrix(400.0)
    ladder_dev = max(abs(lad[n, n + 1] - math.sqrt(n + 1.0)) for n in range(4))
    assert ladder_dev < 0.02

    times = time_grid(20.0, 0.01)
    bath = make_arrays(lam=400.0, betas=[4.0], eta=0.01, k_modes=40)
    chi, = chi_traces(bath, OMEGA_S, times)
    chi_gauss, = gaussian_traces(bath, OMEGA_S, times)
    chi_dev = float(np.abs(chi - chi_gauss).max())
    elapsed = time.perf_counter() - start
    assert chi_dev < 0.02
    assert elapsed < 30.0
    report(3, "harmonic limit",
           f"ladder dev = {ladder_dev:.3e}, max|chi - chi_G| = {chi_dev:.3e} "
           f"(tol 0.02), {elapsed:.2f}s")


def test_criterion_04_gamma_identity():
    start = time.perf_counter()
    model = build_correlation(make_arrays(lam=2.6, betas=[4.0], eta=0.5, k_modes=5))
    w, d, c0 = model.weights[:, 0], model.deltas, model.offset_c0[0]

    def re_alpha(tau):
        return c0 + float(w @ np.cos(d * tau))

    rng = np.random.default_rng(7)
    worst = 0.0
    for t in rng.uniform(0.2, 20.0, size=20):
        # iterated quadrature of the double integral, inner then outer
        inner = lambda s: quad(re_alpha, 0.0, s, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        outer, _ = quad(inner, 0.0, float(t), epsabs=1e-11, epsrel=1e-11, limit=200)
        worst = max(worst, abs(gamma_decay(model, np.array([t]))[0, 0] - 4.0 * outer))
    assert worst < 1e-8

    # harmonic limit: reference model with strictly harmonic elements
    beta, k_modes, eta, omega_c, levels = 4.0, 40, 0.01, 1.0, 120
    ws, ds = [], []
    coth_sum_terms = []
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
        coth_sum_terms.append((g2, omega))
    harmonic = CorrelationModel(offset_c0=np.zeros(1), weights=np.array(ws)[:, None],
                                deltas=np.array(ds))
    ts = np.linspace(0.0, 20.0, 401)[1:]
    expected = np.zeros_like(ts)
    for g2, omega in coth_sum_terms:
        expected += (8.0 * g2 / omega**2 * np.sin(omega * ts / 2.0) ** 2
                     / math.tanh(beta * omega / 2.0))
    rel = float(np.max(np.abs(gamma_decay(harmonic, ts) - expected) / expected))
    elapsed = time.perf_counter() - start
    assert rel < 0.02
    assert elapsed < 10.0
    report(4, "Gamma identity",
           f"max|closed - quadrature| = {worst:.3e} (tol 1e-8), "
           f"harmonic rel dev = {rel:.3e} (tol 0.02), {elapsed:.2f}s")


def test_criterion_05_dephasing_trends():
    start = time.perf_counter()
    lambdas = tuple(1.6 + 0.1 * i for i in range(60))
    cfg = ExperimentConfig(eta=2.0, lambdas=lambdas, betas=(1.0, 4.0, 7.0, 10.0),
                           k_modes=40, t_max=20.0, dt=0.01)
    rows = _run_sweep("dephasing", cfg, threads=None)
    assert len(rows) == 240
    tau = {(round(lam, 6), beta): value for lam, beta, value in rows}
    assert all(value > 0.0 for value in tau.values())

    # (a) colder bath dephases slower at lam = 2.5
    assert tau[(2.5, 10.0)] > tau[(2.5, 1.0)]
    # (b) peak at half-integers, dip just above (beta = 10, n = 2, 3)
    assert tau[(2.5, 10.0)] > tau[(2.6, 10.0)]
    assert tau[(3.5, 10.0)] > tau[(3.6, 10.0)]
    # (c) relative offset larger at high temperature
    ratio_hot, ratio_cold = offset_ratio(
        build_correlation(make_arrays(lam=2.6, betas=[1.0, 10.0], eta=0.01)))
    assert ratio_hot > ratio_cold
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, "dephasing-time trends",
           f"tau(2.5, b10) = {tau[(2.5, 10.0)]:.3f} > tau(2.5, b1) = {tau[(2.5, 1.0)]:.3f}; "
           f"tau(2.5) > tau(2.6), tau(3.5) > tau(3.6) at b10; "
           f"offset ratio {ratio_hot:.3f} > {ratio_cold:.3f}, {elapsed:.1f}s")


def test_criterion_06_spin_limit_freeze():
    start = time.perf_counter()
    times = time_grid(20.0, 0.01)
    # dense-oracle confirmation at K = 2 before trusting the full run
    small = make_arrays(lam=1.52, betas=[1e4], eta=2.0, k_modes=2)
    dense = dense_chi(small, OMEGA_S, times)
    fact, = chi_traces(small, OMEGA_S, times)
    assert np.abs(dense - fact).max() < 1e-10
    assert float(np.abs(dense).min()) > 0.9

    bath = make_arrays(lam=1.52, betas=[1e4], eta=2.0, k_modes=40)
    min_abs = float(np.abs(chi_traces(bath, OMEGA_S, times)[0]).min())
    elapsed = time.perf_counter() - start
    assert min_abs > 0.9
    assert elapsed < 60.0
    report(6, "spin-limit freeze",
           f"min|chi| = {min_abs:.4f} (> 0.9), dense-confirmed at K=2, {elapsed:.2f}s")


def test_criterion_07_backflow_localization():
    start = time.perf_counter()
    times = time_grid(20.0, 0.01)
    flows = {}
    for lam in (2.5, 2.6):
        bath = make_arrays(lam=lam, betas=[7.0], eta=0.01, k_modes=40)
        flows[lam] = blp_flows(np.abs(chi_traces(bath, OMEGA_S, times)[0]))
    elapsed = time.perf_counter() - start
    assert flows[2.5].n_minus < 1e-9
    assert flows[2.6].n_minus > 1e-6
    assert elapsed < 60.0
    report(7, "backflow localization",
           f"n_minus(2.5) = {flows[2.5].n_minus:.3e} (< 1e-9), "
           f"n_minus(2.6) = {flows[2.6].n_minus:.3e} (> 1e-6), {elapsed:.2f}s")


def test_criterion_08_gaussian_has_no_backflow():
    start = time.perf_counter()
    times = time_grid(20.0, 0.01)
    worst = 0.0
    for lam in (2.5, 2.6, 3.5, 3.6):
        for eta in (0.01, 2.0):
            bath = make_arrays(lam=lam, betas=[1.0, 10.0], eta=eta, k_modes=40)
            for chi_gauss in gaussian_traces(bath, OMEGA_S, times):
                worst = max(worst, blp_flows(np.abs(chi_gauss)).n_minus)
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 60.0
    report(8, "Gaussian map has no backflow",
           f"max n_minus = {worst:.3e} (< 1e-12) over 16 combos, {elapsed:.2f}s")


def test_criterion_09_gaussian_error_temperature_ordering():
    start = time.perf_counter()
    times = time_grid(20.0, 0.01)
    averages = {}
    betas = [1.0, 7.0, 10.0]
    bath = make_arrays(lam=2.6, betas=betas, eta=0.01, k_modes=40)
    for beta, chi, chi_gauss in zip(betas, chi_traces(bath, OMEGA_S, times),
                                    gaussian_traces(bath, OMEGA_S, times)):
        pointwise = np.abs(chi - chi_gauss) * abs(DEFAULT_RHO0[1, 0])
        averages[beta] = float(np.trapezoid(pointwise, times) / times[-1])
    elapsed = time.perf_counter() - start
    assert averages[10.0] > averages[7.0] > averages[1.0]
    assert elapsed < 120.0
    report(9, "Gaussian error ordering",
           f"E(b10) = {averages[10.0]:.5f} > E(b7) = {averages[7.0]:.5f} "
           f"> E(b1) = {averages[1.0]:.5f}, {elapsed:.2f}s")


def test_criterion_10_offset_zero_temperature_limit():
    start = time.perf_counter()
    model = build_correlation(make_arrays(lam=2.6, betas=[1e3], eta=0.01, k_modes=40))
    c0, = model.offset_c0
    elapsed = time.perf_counter() - start
    assert c0 < 1e-10
    assert elapsed < 1.0
    report(10, "offset zero-temperature limit",
           f"C0(beta=1e3) = {c0:.3e} (< 1e-10), {elapsed:.2f}s")


def test_criterion_11_invariant_suite():
    start = time.perf_counter()
    checks = 0

    # thermal-weight normalization and per-mode renormalization
    for beta in (1.0, 4.0, 7.0, 10.0):
        bath = make_arrays(lam=2.6, betas=[beta], eta=0.5, k_modes=40)
        for k, weights in enumerate(bath.weights[0]):
            assert abs(weights.sum() - 1.0) < 1e-12
            b_tilde = bath.couplings[k] - bath.mean_b[0, k] * np.eye(bath.energies.shape[1])
            assert abs(weights @ np.diag(b_tilde)) < 1e-12
            checks += 2

    # Hermiticity / symmetry of the closed forms
    for lam in (1.6, 2.5, 2.51, 7.5, 33.3):
        x = x_matrix(lam)
        assert np.abs(x - x.T).max() < 1e-12
        checks += 1

    # energies negative and increasing
    for lam in (1.6, 2.5, 2.51, 7.5):
        e = bound_energies(1.0, lam)
        assert np.all(e < 0.0) and np.all(np.diff(e) > 0.0)
        checks += 1

    # |chi| <= 1, chi(0) = 1, telescoping flow identity
    times = time_grid(20.0, 0.01)
    bath = make_arrays(lam=2.6, betas=[7.0], eta=2.0, k_modes=40)
    chi, = chi_traces(bath, OMEGA_S, times)
    abs_chi = np.abs(chi)
    assert abs(chi[0] - 1.0) < 1e-12
    assert abs_chi.max() <= 1.0 + 1e-12
    flows = blp_flows(abs_chi)
    assert abs((abs_chi[-1] - abs_chi[0]) - (flows.n_minus - flows.n_plus)) < 1e-10
    checks += 3

    # weak-binding divergence of the highest diagonal element
    diags = [x_matrix(2.5 + eps)[-1, -1] for eps in (1e-1, 1e-2, 1e-3)]
    assert diags[0] < diags[1] < diags[2]
    checks += 1

    # sqrt(eps) suppression of transitions into the weakly bound state
    hi = abs(x_matrix(2.5 + 1e-2)[0, -1])
    lo = abs(x_matrix(2.5 + 2.5e-3)[0, -1])
    assert hi / lo == pytest.approx(2.0, rel=0.05)
    checks += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(11, "invariant suite", f"{checks} invariant checks passed, {elapsed:.2f}s")
