"""Property tests of the Bath engine.

One lam with all of its betas shares the eigendecompositions, the phase
frequencies and the correlation gaps; each beta's rows must still equal
what the one-beta calls give for that beta alone.  The exact decay
factor must also keep the invariants of a dephasing map on any bath.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morsebath import (
    bound_state_count,
    chi_traces,
    dense_chi,
    gaussian_traces,
    kernels,
    time_grid,
)
from morsebath.dynamics import _block_eigh, _phase_terms
from helpers import make_arrays, renormalized

OMEGA_S = 2.0
TIMES = time_grid(5.0, 0.05)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

lams = st.floats(min_value=0.5, max_value=12.0, exclude_min=True).filter(
    lambda lam: bound_state_count(lam) > 0)
betas = st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=4)
etas = st.floats(min_value=0.0, max_value=2.0)


def assert_rows_match_one_beta(lam, beta_list, eta, k_modes):
    bath = make_arrays(lam, beta_list, eta, k_modes)
    exact = chi_traces(bath, OMEGA_S, TIMES)
    gauss = gaussian_traces(bath, OMEGA_S, TIMES)
    assert exact.shape == gauss.shape == (len(beta_list), TIMES.shape[0])
    for beta, e, g in zip(beta_list, exact, gauss):
        one_beta = make_arrays(lam, [beta], eta, k_modes)
        assert np.abs(e - chi_traces(one_beta, OMEGA_S, TIMES)[0]).max() <= 1e-13
        assert np.abs(g - gaussian_traces(one_beta, OMEGA_S, TIMES)[0]).max() <= 1e-13


@PROPERTY
@given(lam=lams, beta_list=betas, eta=etas, k_modes=st.integers(1, 8))
def test_per_lambda_rows_match_one_beta_calls(lam, beta_list, eta, k_modes):
    assert_rows_match_one_beta(lam, beta_list, eta, k_modes)


def test_per_lambda_rows_match_when_betas_keep_different_terms():
    lam, beta_list, eta, k_modes = 7.3, [0.1, 1.0, 1e4], 2.0, 6
    bath = make_arrays(lam, beta_list, eta, k_modes)
    w, _ = _phase_terms(_block_eigh(bath.energies, bath.couplings), bath.weights)
    kept = [frozenset(np.flatnonzero(column)) for column in w.T]
    assert len(set(kept)) > 1  # the cold beta keeps fewer terms
    assert_rows_match_one_beta(lam, beta_list, eta, k_modes)


@PROPERTY
@given(lam=lams, beta_list=betas, eta=etas, k_modes=st.integers(1, 3))
def test_per_lambda_rows_match_dense_oracle(lam, beta_list, eta, k_modes):
    if bound_state_count(lam) ** k_modes > 64:
        k_modes = 1
    bath = make_arrays(lam, beta_list, eta, k_modes)
    for beta, chi in zip(beta_list, chi_traces(bath, OMEGA_S, TIMES)):
        dense = dense_chi(make_arrays(lam, [beta], eta, k_modes), OMEGA_S, TIMES)
        assert np.abs(chi - dense).max() <= 1e-10


@PROPERTY
@given(lam=lams, beta=st.floats(min_value=0.1, max_value=1e4), eta=etas,
       k_modes=st.integers(1, 40))
def test_exact_chi_invariants(lam, beta, eta, k_modes):
    bath = make_arrays(lam, [beta], eta, k_modes)
    bare, = chi_traces(bath, OMEGA_S, TIMES)
    assert abs(bare[0] - 1.0) <= 1e-13
    assert np.abs(bare).max() <= 1.0 + 1e-12
    # each mode's factor at t = 0 is the sum of its weights W, the trace of rho_k
    w, _ = _phase_terms(_block_eigh(bath.energies, bath.couplings), bath.weights)
    assert np.abs(w.reshape(k_modes, -1).sum(axis=-1) - 1.0).max() <= 1e-13
    # B = <B> + (B - <B>): the mean part only rotates the coherence at 2 <B>
    renorm, = chi_traces(renormalized(bath), OMEGA_S, TIMES)
    shift = 2.0 * bath.mean_b[0].sum()
    assert np.abs(bare - np.exp(1j * shift * TIMES) * renorm).max() <= 1e-11


@PROPERTY
@given(lam=lams, beta_list=betas, eta=st.floats(min_value=0.0, max_value=3.0),
       k_modes=st.integers(1, 60))
def test_coupling_sign_flip_conjugates_chi(lam, beta_list, eta, k_modes):
    # B -> -B swaps H_+ and H_-, so every mode factor, and chi exp(-i omega_s t) with
    # them, turns into its complex conjugate; in the Gaussian path only the
    # mean-field phase 2 <B> t changes sign
    bath = make_arrays(lam, beta_list, eta, k_modes)
    flipped = dataclasses.replace(bath, couplings=-bath.couplings)
    assert np.array_equal(flipped.mean_b, -bath.mean_b)
    bare = np.exp(-1j * OMEGA_S * TIMES)
    for traces in (chi_traces, gaussian_traces):
        for a, b in zip(traces(bath, OMEGA_S, TIMES),
                        traces(flipped, OMEGA_S, TIMES)):
            assert np.abs(a * bare - np.conj(b * bare)).max() <= 1e-12


GRIDS = {
    "blocked": np.arange(401) * 0.05,
    "blocked-offset": 3.7 + np.arange(250) * 0.05,
    "short": np.linspace(0.0, 2.0, 15),
    "irregular": np.sort(np.random.default_rng(7).uniform(0.0, 20.0, 300)),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(grid=st.sampled_from(sorted(GRIDS)), n_terms=st.integers(0, 300),
       n_cols=st.integers(1, 4), groups=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_kernel_columns_and_groups_equal_one_dim_calls(grid, n_terms, n_cols, groups, seed):
    rng = np.random.default_rng(seed)
    t = GRIDS[grid]
    w = rng.normal(size=(groups * n_terms, n_cols)) + 1j * rng.normal(size=(groups * n_terms, n_cols))
    runs = rng.uniform(-5.0, 5.0, size=(groups, n_terms))
    f = runs.ravel()
    scale = 1e-13 * max(1.0, np.abs(w).sum())
    out = kernels.phase_sum(w, f, t)
    grouped = kernels.phase_sum(w, runs, t)
    assert out.shape == (n_cols, t.shape[0])
    assert grouped.shape == (groups, n_cols, t.shape[0])
    for c in range(n_cols):
        assert np.abs(out[c] - kernels.phase_sum(w[:, c], f, t)).max() <= scale
        for k, run in enumerate(np.split(np.arange(groups * n_terms), groups)):
            assert np.abs(grouped[k, c] - kernels.phase_sum(w[run, c], f[run], t)).max() <= scale

    gw = np.abs(w.real)
    d = f.copy()
    d[: n_terms // 10] = 0.0  # removable-singularity branch
    offsets = rng.uniform(0.0, 1.0, size=n_cols)
    gamma = kernels.gamma_sum(gw, d, offsets, t)
    assert gamma.shape == (n_cols, t.shape[0])
    for c in range(n_cols):
        one = kernels.gamma_sum(gw[:, c], d, offsets[c], t)
        assert np.abs(gamma[c] - one).max() <= 1e-13 * max(1.0, np.abs(one).max())
