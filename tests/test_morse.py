import math

import numpy as np
import pytest

from morsebath import (
    bound_energies,
    bound_state_count,
    digamma,
    ladder_matrix,
    x_matrix,
)
from scipy.integrate import quad
from helpers import wavefunction


def test_bound_state_count():
    assert bound_state_count(2.5) == 2
    assert bound_state_count(2.51) == 3
    assert bound_state_count(1.5) == 1
    assert bound_state_count(400.0) == 400
    # half-integer detection tolerance: 1e-12 above the boundary still
    # counts as the boundary
    assert bound_state_count(2.5 + 1e-12) == 2
    with pytest.raises(ValueError):
        bound_state_count(0.5)
    with pytest.raises(ValueError):
        bound_state_count(0.2)


def test_bound_energies():
    np.testing.assert_allclose(bound_energies(1.0, 2.5), [-0.8, -0.2], atol=1e-14)
    np.testing.assert_allclose(bound_energies(2.0, 2.5), [-1.6, -0.4], atol=1e-14)
    e = bound_energies(1.0, 200.0)
    assert e[1] - e[0] == pytest.approx(0.995, abs=1e-12)


@pytest.mark.parametrize("lam", [1.6, 2.5, 2.51, 7.5])
def test_energies_negative_and_increasing(lam):
    e = bound_energies(1.0, lam)
    assert np.all(e < 0.0)
    assert np.all(np.diff(e) > 0.0)


def test_x_matrix_closed_forms_lambda_2_5():
    x = x_matrix(2.5)
    assert x[0, 0] == pytest.approx(math.log(5.0) - digamma(4.0), abs=1e-12)
    assert x[0, 0] == pytest.approx(0.353320244002, abs=1e-9)
    assert x[0, 1] == pytest.approx((2.0 / 3.0) * math.sqrt(0.5), abs=1e-12)
    assert x[0, 1] == pytest.approx(0.471404520791, abs=1e-9)
    assert x[1, 1] == pytest.approx(
        math.log(5.0) - digamma(2.0) - digamma(3.0) + digamma(4.0), abs=1e-12)
    assert x[1, 1] == pytest.approx(1.519986910669, abs=1e-9)


def test_x_matrix_symmetry(rng):
    for lam in rng.uniform(0.6, 20.0, size=12):
        x = x_matrix(float(lam))
        assert np.abs(x - x.T).max() < 1e-12


def test_ladder_rescaling():
    # (b + b^dag) = sqrt(2 lam) x; composition of the verified elements
    lad = ladder_matrix(2.5)
    assert lad[0, 1] == pytest.approx(math.sqrt(5.0) * (2.0 / 3.0) * math.sqrt(0.5), abs=1e-12)
    assert lad[0, 1] == pytest.approx(1.054092553389, abs=1e-9)


def test_ladder_harmonic_limit():
    lad = ladder_matrix(400.0)
    for n in range(4):
        assert abs(lad[n, n + 1] - math.sqrt(n + 1.0)) < 0.02
    # elements beyond the first off-diagonal decay like 1/sqrt(lam); at
    # lam = 400 the largest (n, m <= 3) magnitude sits near 0.043
    for n in range(4):
        for m in range(n + 2, 4):
            assert abs(lad[n, m]) < 0.05
    assert abs(ladder_matrix(1600.0)[1, 3]) < abs(lad[1, 3])


def test_weak_binding_divergence_and_suppression():
    # lam = 2.5 + eps: the highest-state diagonal grows without bound as
    # eps -> 0+, while transitions into it are suppressed like sqrt(eps)
    diags = []
    for eps in (1e-1, 1e-2, 1e-3):
        x = x_matrix(2.5 + eps)
        diags.append(x[-1, -1])
    assert diags[0] < diags[1] < diags[2]

    eps = 1e-2
    hi = x_matrix(2.5 + eps)
    lo = x_matrix(2.5 + eps / 4.0)
    ratio = abs(hi[0, -1]) / abs(lo[0, -1])
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_energy_and_x_shapes():
    assert bound_energies(1.0, 2.51).shape == (3,)
    assert x_matrix(2.51).shape == (3, 3)
    assert bound_energies([1.0, 2.0], 2.51).shape == (2, 3)
    # lam = 1 binds one state: no pair m > n, and the diagonal ln 2 - psi(1)
    assert bound_energies(1.0, 1.0).shape == (1,)
    assert x_matrix(1.0).shape == (1, 1)
    assert x_matrix(1.0)[0, 0] == pytest.approx(math.log(2.0) - digamma(1.0), abs=1e-12)


def test_bound_energies_rejects_any_non_positive_omega():
    # scalar 0, -1 and nan are covered through the CLI (test_spectrum_rejects_bad_omega)
    with pytest.raises(ValueError, match="omega"):
        bound_energies([1.0, 0.0], 2.5)


def test_wavefunction_normalization_and_orthogonality():
    # integrate in x: psi_n decays on both sides of the well
    norm, _ = quad(lambda x: wavefunction(2.5, 0, x) ** 2, -6.0, 60.0, limit=300)
    assert norm == pytest.approx(1.0, abs=1e-8)
    cross, _ = quad(lambda x: wavefunction(2.5, 0, x) * wavefunction(2.5, 1, x),
                    -6.0, 60.0, limit=300)
    assert abs(cross) < 1e-8


def test_wavefunction_node_count():
    xs = np.linspace(-5.0, 40.0, 3001)
    values = np.array([wavefunction(2.5, 1, x) for x in xs])
    signs = np.sign(values[np.abs(values) > 1e-13])
    flips = int(np.sum(signs[1:] != signs[:-1]))
    assert flips == 1


def test_wavefunction_index_error():
    with pytest.raises(IndexError):
        wavefunction(2.5, 2, 0.0)
