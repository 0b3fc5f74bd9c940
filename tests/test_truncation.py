"""Level truncation of the exact decay factor.

A mode block keeps its first m levels (`dynamics._kept_levels`), and
`dynamics._truncation_bound` states how far that can move each mode
factor.  The reference here diagonalizes the whole d x d H_pm of every
mode with plain `numpy.linalg.eigh`; each truncated factor must lie
within the bound, plus the pruning tolerance and a rounding floor, of
it.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morsebath import bath_arrays, chi_traces
from morsebath import dynamics
from morsebath.config import parse_config
from morsebath.dynamics import (
    _BLOCK_ELEMENTS,
    NEGLIGIBLE_TERM_MASS,
    _block_eigh,
    _kept_levels,
    _truncation_bound,
    _truncation_floor,
)
from helpers import mode_bath

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
        one = mode_bath(bath, slice(k, k + 1))
        m, eig = _kept_levels(one.energies, one.couplings, one.weights, t_max)
        bound = _truncation_bound(eig, one.couplings, one.weights, t_max)[:, 0] if m < d else 0.0
        # omega_s = 0, no impurity phase: chi of a one-mode bath is that mode's trace factor
        chi = chi_traces(one, 0.0, times)
        ref = reference_factor(bath.energies[k], bath.couplings[k], bath.weights[:, k], times)
        err = np.abs(chi - ref).max(axis=-1)
        rounding = floor(bath.energies[k], t_max)
        # the factor's terms are pruned afterwards, which moves it by up to NEGLIGIBLE_TERM_MASS
        assert np.all(err <= bound + NEGLIGIBLE_TERM_MASS + rounding), (k, m, err, bound)
        assert np.all(err <= 2 * NEGLIGIBLE_TERM_MASS + rounding), (k, m, err)
        assert np.all(bound <= NEGLIGIBLE_TERM_MASS)


TRUNCATED_BATHS = dict(lam=st.floats(min_value=46.0, max_value=150.0),
                       beta=st.floats(min_value=0.5, max_value=20.0),
                       eta=st.floats(min_value=0.0, max_value=0.05), k_modes=st.integers(1, 4))


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(**TRUNCATED_BATHS)
def test_truncated_factors_stay_within_bound(lam, beta, eta, k_modes):
    bath = bath_arrays(eta, 1.0, k_modes, lam, [beta])
    assert_factors_within_bound(bath, TIMES)


def kept_levels_trying_every_m(energies, couplings, weights, t_max):
    """`_kept_levels` as it was before it skipped tries: an eigh for every m it tries."""
    d = energies.shape[-1]
    tail = np.cumsum(weights[..., ::-1], axis=-1)[..., ::-1]
    m = int(np.count_nonzero(tail > NEGLIGIBLE_TERM_MASS, axis=-1).max())
    while 4 * m <= 3 * d:
        eig = _block_eigh(energies[:, :m], couplings[:, :m, :m])
        if _truncation_bound(eig, couplings, weights, t_max).max() <= NEGLIGIBLE_TERM_MASS:
            return m, eig
        m += max(8, m // 4)
    return d, _block_eigh(energies, couplings)


def assert_kept_levels_as_trying_every_m(bath, t_max):
    n_modes, d = bath.energies.shape
    size = max(1, _BLOCK_ELEMENTS // (d * d))
    for start in range(0, n_modes, size):
        s = slice(start, start + size)
        args = bath.energies[s], bath.couplings[s], bath.weights[:, s], t_max
        m, eig = _kept_levels(*args)
        m_ref, eig_ref = kept_levels_trying_every_m(*args)
        assert m == m_ref, (start, m, m_ref)
        assert len(eig) == len(eig_ref) == 4
        for got, ref in zip(eig, eig_ref):
            assert np.array_equal(got, ref), start


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(**TRUNCATED_BATHS)
def test_kept_levels_equal_trying_every_m(lam, beta, eta, k_modes):
    # the eigh-free floor only skips tries that fail: same m, same eigh bits
    assert_kept_levels_as_trying_every_m(bath_arrays(eta, 1.0, k_modes, lam, [beta]), 20.0)


@pytest.mark.parametrize("eta, lam, beta", [(1e-4, 46.3, 1.0), (0.01, 80.2, 10.0),
                                             (0.05, 20.7, 0.5), (0.5, 46.3, 4.0), (0.0, 30.2, 1.0)])
def test_truncation_floor_counts_each_sign_of_the_bound_at_most_once(eta, lam, beta):
    # at every m: the floor's leak, counted for both signs, is still at most the bound's
    # (equal at m = 1, where U = 1), so a floor counting one sign is half the bound's leak
    bath = bath_arrays(eta, 1.0, 2, lam, [beta, 20.0])
    d = bath.energies.shape[1]
    for m in range(1, d):
        eig = _block_eigh(bath.energies[:, :m], bath.couplings[:, :m, :m])
        bound = _truncation_bound(eig, bath.couplings, bath.weights, 20.0)
        tail = bath.weights[..., m:].sum(axis=-1)
        floor = _truncation_floor(bath.couplings, bath.weights, m, 20.0)
        assert np.all(tail + 2.0 * (floor - tail) <= bound * (1.0 + 1e-12)), m


@pytest.mark.parametrize("beta, most_calls", [(4.0, 47), (1.0, 40)])
def test_kept_levels_skip_the_tries_they_can_rule_out(beta, most_calls, monkeypatch):
    # trying every m makes 86 `_block_eigh` calls at beta = 4 and 76 at beta = 1, 46 and
    # 36 of them tries that fail; the floor rules out all but 7 and 0 of those
    bath = bath_arrays(0.01, 1.0, 40, 399.8, [beta])
    calls = []

    def counted(energies, couplings):
        calls.append(energies.shape)
        return _block_eigh(energies, couplings)

    monkeypatch.setattr(dynamics, "_block_eigh", counted)
    for k in range(40):
        dynamics._block_terms(bath, 20.0, slice(k, k + 1))
    assert 40 <= len(calls) <= most_calls
    monkeypatch.undo()
    assert_kept_levels_as_trying_every_m(bath, 20.0)


def test_truncated_factors_at_harmonic_point(monkeypatch):
    bath = bath_arrays(0.01, 1.0, 40, 399.8, [4.0])
    d = bath.energies.shape[1]
    kept = [_kept_levels(bath.energies[k:k + 1], bath.couplings[k:k + 1],
                         bath.weights[:, k:k + 1], 20.0)[0] for k in range(40)]
    assert max(kept[1:]) < d // 2  # the point truncates: every mode but the lowest keeps < 200
    assert_factors_within_bound(bath, TIMES)
    # the bound is read at each call: at 0 every coupled mode keeps all d levels
    # and all d^2 terms; the uncoupled k = K mode, whose eigenvectors cannot
    # leak, keeps every level of nonzero thermal weight
    monkeypatch.setattr(dynamics, "NEGLIGIBLE_TERM_MASS", 0.0)
    for k in range(40):
        w, _ = dynamics._block_terms(bath, 20.0, slice(k, k + 1))
        m = d if bath.g[k] > 0.0 else np.count_nonzero(bath.weights[0, k])
        assert w.shape == (m * m, 1), (k, w.shape)


@pytest.mark.parametrize("name", ["fig3_dephasing.cfg", "fig4_backflow.cfg",
                                  "fig5_gaussian_error.cfg"])
def test_figure_sweeps_keep_every_level(name):
    cfg = parse_config(os.path.join(CONFIGS, name))
    betas = sorted(cfg.betas)
    for lam in cfg.lambdas:
        bath = bath_arrays(cfg.eta, cfg.omega_c, cfg.k_modes, lam, betas)
        d = bath.energies.shape[1]
        size = max(1, _BLOCK_ELEMENTS // (d * d))
        for start in range(0, cfg.k_modes, size):
            s = slice(start, start + size)
            m, _ = _kept_levels(bath.energies[s], bath.couplings[s], bath.weights[:, s], cfg.t_max)
            assert m == d, (lam, start, m, d)
