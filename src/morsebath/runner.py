"""The process the commands run in: BLAS threads, the heap, the worker count and forked workers.

``one_blas_thread`` pins numpy's bundled OpenBLAS to one thread for the
body of a ``with`` statement and restores the caller's count after it,
also when the body fails; ``main`` runs every command inside it, so no
output depends on the BLAS thread count.  Where no thread-count setter is
found (``openblas_threads`` is None) it does nothing.

``keep_heap`` has glibc's malloc keep freed blocks of up to 32 MiB in its
heap (mallopt's mmap and trim thresholds, both or neither; nothing
without glibc), so a lambda reuses the pages its predecessor freed, not
fresh ones.  The sweep commands set it once, before their first lambda,
and forked workers inherit it; ``spectrum`` and ``dynamics`` never do,
and library callers never get it.

``workers`` gives every command its worker count: ``--threads``
(default: the CPUs the process may run on) where BLAS can be pinned,
otherwise one, so workers never oversubscribe the cores and no output
depends on their count.

``map_lambdas(fn, lams, workers)`` returns ``[fn(lam) for lam in
sorted(lams)]``.  Its sorted lambdas are dealt into interleaved shares
(cost grows with lambda), one per worker and never more than there are
lambdas; this process runs the first share and forked children the
others, where the platform can fork and no other Python thread is alive
(otherwise every lambda runs here).  A forked child inherits the
imported interpreter, so it starts at no import cost, and it runs free
of this process's GIL: at d <= 8 a lambda is mostly small numpy calls
that hold it.  A child sends its (lambda, result) pairs, and its failure
as the exception itself, back pickled through a pipe, and the results
are put in lambda order once.  A share stops at its first failure, and
the smallest failing lambda's error is raised, so the error does not
depend on the worker count.  Nothing here imports the package.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import pickle
import signal
import threading
import warnings
from collections.abc import Callable, Iterable, Iterator

import numpy as np


@functools.cache
def openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None; looked up once."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            # the library numpy already loaded: dlopen returns the same handle
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """numpy's OpenBLAS on one thread in the ``with`` body; the caller's count restored after."""
    blas = openblas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    caller_threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(caller_threads)


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_heap() -> bool:
    """Have glibc's malloc keep freed blocks of up to 32 MiB; True if both settings took.

    By default glibc serves the multi-MB numpy temporaries of each lambda
    with mmap and unmaps them on free, so the next lambda faults in fresh
    pages.  Here blocks under 32 MiB come from the heap, and freed memory
    at its top is kept up to 1 GiB.  Either setting alone turns off glibc's
    dynamic mmap threshold and costs more than it saves, so the trim
    threshold is set only after the mmap threshold took (glibc's mallopt
    never refuses a trim threshold): both or neither.  Without a mallopt
    (a C library other than glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no process handle (Windows)
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1


def workers(threads: int | None) -> int:
    """The worker count of every command: ``--threads``, by default the CPUs this process may use."""
    if openblas_threads() is None:
        return 1
    if threads is not None:
        return threads
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _share(fn: Callable, lams: list[float]) -> tuple[list, tuple | None]:
    """((lam, fn(lam)) pairs, None) of the lambdas in order, or (pairs so far, (lam, exception))."""
    pairs = []
    for lam in lams:
        try:
            pairs.append((lam, fn(lam)))
        except Exception as exc:
            return pairs, (lam, exc)
    return pairs, None


def _fork() -> int:
    """``os.fork()``, without Python's warning about OpenBLAS's threads."""
    with warnings.catch_warnings():
        # Python >= 3.12 warns on fork when the OS reports more than one thread.
        # `map_lambdas` forks only while no other Python thread is alive, so those
        # are OpenBLAS's idle workers, and OpenBLAS makes fork safe with its own
        # atfork handler
        warnings.filterwarnings("ignore", message=r"This process .* is multi-threaded, use of fork",
                                category=DeprecationWarning)
        return os.fork()


def _forked_share(fn: Callable, lams: list[float]):
    """(pid, pipe) of a child that writes the pickled `_share` of lams.

    The child exits 0 only after the whole payload is written.  It leaves
    through ``os._exit`` and never returns into the caller's stack.
    """
    read, write = os.pipe()
    try:
        pid = _fork()
        if pid == 0:
            status = 1
            try:
                with open(write, "wb") as pipe:
                    pickle.dump(_share(fn, lams), pipe, pickle.HIGHEST_PROTOCOL)
                status = 0
            finally:
                os._exit(status)
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
    return pid, open(read, "rb")


def map_lambdas(fn: Callable[[float], object], lams: Iterable[float], workers: int) -> list:
    """``[fn(lam) for lam in sorted(lams)]``, the lambdas in shares over forked workers.

    Raises the smallest failing lambda's error.  No child outlives the call.
    """
    lams = sorted(lams)
    workers = max(1, min(workers, len(lams)))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    shares = [lams[i::workers] for i in range(workers)]
    children = []
    try:
        for share in shares[1:]:
            children.append((share[0], *_forked_share(fn, share)))
        pairs, failure = _share(fn, shares[0])
        failures = [] if failure is None else [failure]
        while children:
            first, pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                failures.append((first, RuntimeError(
                    f"sweep worker of lambda = {first:.12g} ended without its rows "
                    f"(wait status {status})")))
                continue
            share_pairs, failure = pickle.loads(payload)
            pairs += share_pairs
            if failure is not None:
                failures.append(failure)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [result for _, result in sorted(pairs, key=lambda pair: pair[0])]
