import numpy as np
import pytest

from morsebath import runner, time_grid


@pytest.fixture
def omega_s():
    """Impurity splitting of the tests that need one."""
    return 2.0


@pytest.fixture
def short_grid():
    return time_grid(5.0, 0.01)


@pytest.fixture
def full_grid():
    return time_grid(20.0, 0.01)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the test, as every CLI command runs it, restored after.

    Multithreaded OpenBLAS splits a matrix product's sum over terms by
    its row count, so only on one thread does a product row keep its
    bits whatever the number of rows.
    """
    if runner.openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter here")
    with runner.one_blas_thread():
        yield
