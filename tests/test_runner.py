"""The process runtime as functions: ``map_lambdas`` and ``one_blas_thread``."""

import os
import re

import pytest

from morsebath import runner

UNSORTED = [3.4, 1.6, 2.5, 7.4, 4.2]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tagged(lam):
    return lam, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3, 1000])
def test_map_lambdas_returns_results_in_sorted_lambda_order(workers):
    results = runner.map_lambdas(tagged, UNSORTED, workers)
    assert [lam for lam, _ in results] == sorted(UNSORTED)
    # one process per share, never more shares than lambdas
    shares = min(workers, len(UNSORTED)) if hasattr(os, "fork") else 1
    assert len({pid for _, pid in results}) == shares
    assert_no_child_left()


def test_map_lambdas_of_no_lambdas_is_empty():
    assert runner.map_lambdas(tagged, [], 2) == []


# at 2 workers the shares are [1.6, 3.4, 7.4] here and [2.5, 4.2] in a child
@pytest.mark.parametrize("failing", [{3.4, 4.2}, {2.5, 7.4}],
                         ids=["smallest-here", "smallest-in-child"])
def test_map_lambdas_raises_the_smallest_failing_lambda_across_shares(failing):
    def broken(lam):
        if lam in failing:
            raise ValueError(f"bad lambda {lam}")
        return lam

    with pytest.raises(ValueError, match=f"^{re.escape(f'bad lambda {min(failing)}')}$"):
        runner.map_lambdas(broken, UNSORTED, 2)
    assert_no_child_left()


def test_one_blas_thread_restores_the_caller_count_after_a_failure():
    blas = runner.openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter here")
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(2)
    try:
        with pytest.raises(KeyError), runner.one_blas_thread():
            assert get_threads() == 1
            raise KeyError("inside")
        assert get_threads() == 2
    finally:
        set_threads(saved)


def test_one_blas_thread_does_nothing_without_a_setter(monkeypatch):
    blas = runner.openblas_threads()
    monkeypatch.setattr(runner, "openblas_threads", lambda: None)
    if blas is None:
        with runner.one_blas_thread():
            pass
        return
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(2)
    try:
        with runner.one_blas_thread():
            assert get_threads() == 2
        assert get_threads() == 2
    finally:
        set_threads(saved)
