import numpy as np
import pytest

from morsebath import (
    DEFAULT_RHO0,
    SystemConfig,
    chi_series,
    dense_chi,
    overlap_element,
    quadrature_element,
    time_grid,
    x_matrix,
)
from helpers import make_bath


def test_dense_single_mode_matches_factor(system):
    # one coupled mode (taken from a K=2 bath so g > 0)
    modes = make_bath(lam=2.5, beta=1.0, eta=2.0, k_modes=2)[:1]
    ts = time_grid(20.0, 0.05)
    dense = dense_chi(modes, system, ts)
    factor = chi_series(modes, SystemConfig(omega_s=0.0, rho0=DEFAULT_RHO0), ts).chi
    expected = np.exp(1j * system.omega_s * ts) * factor
    assert np.abs(dense.chi - expected).max() < 1e-12


def test_dense_two_modes_matches_chi_series(system):
    modes = make_bath(lam=2.6, beta=1.0, eta=0.5, k_modes=2)
    ts = time_grid(20.0, 0.01)
    dense = dense_chi(modes, system, ts)
    fact = chi_series(modes, system, ts)
    assert np.abs(dense.chi - fact.chi).max() < 1e-10


def test_dense_decoupled(system):
    modes = make_bath(lam=2.5, beta=1.0, eta=0.0, k_modes=2)
    ts = time_grid(5.0, 0.05)
    dense = dense_chi(modes, system, ts)
    np.testing.assert_allclose(dense.chi, np.exp(2j * ts), atol=1e-12)


def test_dense_guards(system, short_grid):
    modes = make_bath(lam=2.5, beta=1.0, eta=0.5, k_modes=4)
    with pytest.raises(ValueError):
        dense_chi(modes, system, short_grid)
    # 3 modes with 17 bound states each: 4913 > 4096
    big = make_bath(lam=17.1, beta=1.0, eta=0.5, k_modes=3)
    with pytest.raises(ValueError):
        dense_chi(big, system, short_grid)


def test_quadrature_elements_lambda_2_5():
    assert quadrature_element(2.5, 0, 0) == pytest.approx(0.353320244002, abs=1e-8)
    assert quadrature_element(2.5, 0, 1) == pytest.approx(0.471404520791, abs=1e-8)
    assert quadrature_element(2.5, 1, 0) == pytest.approx(
        quadrature_element(2.5, 0, 1), abs=1e-12)


def test_quadrature_index_guard():
    with pytest.raises(IndexError):
        quadrature_element(2.5, 0, 2)
    with pytest.raises(IndexError):
        overlap_element(2.5, 2, 0)


def test_closed_form_matches_quadrature_weakly_bound():
    # region II: the weakly bound state has the delicate integrand
    x = x_matrix(2.6)
    for n in range(3):
        for m in range(n, 3):
            assert x[n, m] == pytest.approx(quadrature_element(2.6, n, m), abs=1e-8)


@pytest.mark.parametrize("lam", [2.5, 2.6, 5.5])
def test_orthonormality_gram(lam):
    d = x_matrix(lam).shape[0]
    for n in range(d):
        for m in range(n, d):
            expected = 1.0 if n == m else 0.0
            assert overlap_element(lam, n, m) == pytest.approx(expected, abs=1e-8)
