"""Property tests of the Bath engine.

One lam with all of its betas shares the eigendecompositions, the phase
frequencies and the correlation gaps; each beta's rows must still equal
what the one-beta calls give for that beta alone.  The exact decay
factor must also keep the invariants of a dephasing map on any bath.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morsebath import (
    BathConfig,
    SystemConfig,
    bath_arrays,
    bound_state_count,
    chi_series,
    chi_traces,
    dense_chi,
    discretize,
    gaussian_traces,
    kernels,
    mean_field_shift,
    time_grid,
)
from morsebath.dynamics import DEFAULT_RHO0, _block_eigh, _phase_terms
from helpers import renormalized

SYSTEM = SystemConfig(omega_s=2.0, rho0=DEFAULT_RHO0)
TIMES = time_grid(5.0, 0.05)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

lams = st.floats(min_value=0.5, max_value=12.0, exclude_min=True).filter(
    lambda lam: bound_state_count(lam) > 0)
betas = st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=4)
etas = st.floats(min_value=0.0, max_value=2.0)


def config(lam, beta, eta, k_modes):
    return BathConfig(eta=eta, omega_c=1.0, k_modes=k_modes, lam=lam, beta=beta)


def assert_rows_match_one_beta(lam, beta_list, eta, k_modes):
    bath = bath_arrays(config(lam, beta_list[0], eta, k_modes), beta_list)
    exact = chi_traces(bath, SYSTEM, TIMES)
    gauss = gaussian_traces(bath, SYSTEM, TIMES)
    for beta, e, g in zip(beta_list, exact, gauss):
        modes = discretize(config(lam, beta, eta, k_modes))
        one_beta = bath_arrays(config(lam, beta, eta, k_modes))
        assert np.abs(e.chi - chi_series(modes, SYSTEM, TIMES).chi).max() <= 1e-13
        assert np.abs(g.chi - gaussian_traces(one_beta, SYSTEM, TIMES)[0].chi).max() <= 1e-13


@PROPERTY
@given(lam=lams, beta_list=betas, eta=etas, k_modes=st.integers(1, 8))
def test_per_lambda_rows_match_one_beta_calls(lam, beta_list, eta, k_modes):
    assert_rows_match_one_beta(lam, beta_list, eta, k_modes)


def test_per_lambda_rows_match_when_betas_keep_different_terms():
    lam, beta_list, eta, k_modes = 7.3, [0.1, 1.0, 1e4], 2.0, 6
    bath = bath_arrays(config(lam, beta_list[0], eta, k_modes), beta_list)
    w, _ = _phase_terms(_block_eigh(bath.energies, bath.couplings), bath.weights)
    kept = [frozenset(np.flatnonzero(column)) for column in w.T]
    assert len(set(kept)) > 1  # the cold beta keeps fewer terms
    assert_rows_match_one_beta(lam, beta_list, eta, k_modes)


@PROPERTY
@given(lam=lams, beta_list=betas, eta=etas, k_modes=st.integers(1, 3))
def test_per_lambda_rows_match_dense_oracle(lam, beta_list, eta, k_modes):
    if bound_state_count(lam) ** k_modes > 64:
        k_modes = 1
    bath = bath_arrays(config(lam, beta_list[0], eta, k_modes), beta_list)
    for beta, trace in zip(beta_list, chi_traces(bath, SYSTEM, TIMES)):
        dense = dense_chi(discretize(config(lam, beta, eta, k_modes)), SYSTEM, TIMES)
        assert np.abs(trace.chi - dense.chi).max() <= 1e-10


@PROPERTY
@given(lam=lams, beta=st.floats(min_value=0.1, max_value=1e4), eta=etas,
       k_modes=st.integers(1, 40))
def test_exact_chi_invariants(lam, beta, eta, k_modes):
    bath = bath_arrays(config(lam, beta, eta, k_modes))
    bare, = chi_traces(bath, SYSTEM, TIMES)
    assert abs(bare.chi[0] - 1.0) <= 1e-13
    assert np.abs(bare.chi).max() <= 1.0 + 1e-12
    # each mode's factor at t = 0 is the sum of its weights W, the trace of rho_k
    w, _ = _phase_terms(_block_eigh(bath.energies, bath.couplings), bath.weights)
    assert np.abs(w.reshape(k_modes, -1).sum(axis=-1) - 1.0).max() <= 1e-13
    # B = <B> + (B - <B>): the mean part only rotates the coherence at 2 <B>
    renorm, = chi_traces(renormalized(bath), SYSTEM, TIMES)
    shift, = mean_field_shift(bath)
    assert np.abs(bare.chi - np.exp(1j * shift * TIMES) * renorm.chi).max() <= 1e-11


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
    f = rng.uniform(-5.0, 5.0, size=groups * n_terms)
    scale = 1e-13 * max(1.0, np.abs(w).sum())
    out = kernels.phase_sum(w, f, t)
    grouped = kernels.phase_sum(w, f, t, groups=groups)
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
