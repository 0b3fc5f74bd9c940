import re

import numpy as np
import pytest

from morsebath import (
    chi_traces,
    dense_chi,
    overlap_element,
    quadrature_element,
    time_grid,
    x_matrix,
)
from helpers import make_arrays, mode_bath


def test_dense_single_mode_matches_factor(omega_s):
    # one coupled mode (taken from a K=2 bath so g > 0)
    bath = mode_bath(make_arrays(lam=2.5, betas=[1.0], eta=2.0, k_modes=2), slice(None, 1))
    ts = time_grid(20.0, 0.05)
    dense = dense_chi(bath, omega_s, ts)
    factor, = chi_traces(bath, 0.0, ts)
    expected = np.exp(1j * omega_s * ts) * factor
    assert np.abs(dense - expected).max() < 1e-12


def test_dense_two_modes_matches_chi_series(omega_s):
    bath = make_arrays(lam=2.6, betas=[1.0], eta=0.5, k_modes=2)
    ts = time_grid(20.0, 0.01)
    dense = dense_chi(bath, omega_s, ts)
    fact, = chi_traces(bath, omega_s, ts)
    assert np.abs(dense - fact).max() < 1e-10


def test_dense_decoupled(omega_s):
    bath = make_arrays(lam=2.5, betas=[1.0], eta=0.0, k_modes=2)
    ts = time_grid(5.0, 0.05)
    dense = dense_chi(bath, omega_s, ts)
    np.testing.assert_allclose(dense, np.exp(2j * ts), atol=1e-12)


def test_dense_guards(omega_s, short_grid):
    bath = make_arrays(lam=2.5, betas=[1.0], eta=0.5, k_modes=4)
    with pytest.raises(ValueError, match="K <= 3"):
        dense_chi(bath, omega_s, short_grid)
    # 3 modes with 17 bound states each: 4913 > 4096
    big = make_arrays(lam=17.1, betas=[1.0], eta=0.5, k_modes=3)
    with pytest.raises(ValueError, match="4913 exceeds"):
        dense_chi(big, omega_s, short_grid)
    # the product thermal state is that of one beta
    two_betas = make_arrays(lam=2.5, betas=[1.0, 4.0], eta=0.5, k_modes=2)
    with pytest.raises(ValueError, match="one beta, got 2 betas"):
        dense_chi(two_betas, omega_s, short_grid)


def test_quadrature_elements_lambda_2_5():
    assert quadrature_element(2.5, 0, 0) == pytest.approx(0.353320244002, abs=1e-8)
    assert quadrature_element(2.5, 0, 1) == pytest.approx(0.471404520791, abs=1e-8)
    assert quadrature_element(2.5, 1, 0) == pytest.approx(
        quadrature_element(2.5, 0, 1), abs=1e-12)


def test_quadrature_short_of_its_tolerance_raises_naming_the_element():
    # at lam = 20.3 (d = 20) quad stops short on (0, 17); scipy's IntegrationWarning came
    # first, and under an error filter it was raised in place of this RuntimeError
    with pytest.raises(RuntimeError, match=re.escape("lam=20.3, (n, m)=(0, 17)")):
        quadrature_element(20.3, 0, 17)
    x = x_matrix(14.3)
    for m in range(x.shape[0]):
        assert quadrature_element(14.3, 0, m) == pytest.approx(x[0, m], abs=1e-8)


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
