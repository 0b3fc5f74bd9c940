import numpy as np
import pytest

from morsebath import DEFAULT_RHO0, SystemConfig, time_grid


@pytest.fixture
def system():
    return SystemConfig(omega_s=2.0, rho0=DEFAULT_RHO0)


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
    from morsebath import cli

    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter here")
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(1)
    yield
    set_threads(saved)
