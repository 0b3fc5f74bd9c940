"""Weighted phase sums over a time grid: the hot loop of chi(t) and Gamma(t).

    phase_sum(weights, freqs, times)            -> complex128[n]
    gamma_sum(weights, deltas, offset, times)   -> float64[n]

Every grid the CLI builds is uniform, t_j = t0 + j dt.  Writing
j = b B + s with B = ceil(sqrt(n)) splits each exponential,

    exp(i f t_j) = exp(i f (t0 + b B dt)) * exp(i f s dt),

so a chunk of T terms costs T (n_b + B) exponentials and one matrix
product (T x n_b)^T @ (T x B) instead of T n exponentials.  Grids that
are short or not uniform take the direct outer-product path.  Work is
chunked over terms so the temporaries stay bounded in memory.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 2048

# grids shorter than this take the direct path
_MIN_BLOCKED = 16

# a grid is uniform when every point lies within this many eps * max|t|
# of t0 + j dt
_UNIFORM_EPS = 4.0

ZERO_FREQ_TOL = 1e-12


def _uniform_split(times: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Block starts t0 + b B dt and in-block offsets s dt of a uniform grid.

    Returns None when the grid is short or not uniform.
    """
    n = times.shape[0]
    if n < _MIN_BLOCKED:
        return None
    t0 = times[0]
    dt = (times[-1] - t0) / (n - 1)
    steps = np.arange(n, dtype=np.float64)
    scale = max(abs(t0), abs(times[-1]))
    if not np.abs(times - (t0 + steps * dt)).max() <= _UNIFORM_EPS * np.finfo(float).eps * scale:
        return None
    width = math.isqrt(n - 1) + 1
    starts = t0 + steps[::width] * dt
    return starts, steps[:width] * dt


def _chunks(m: int):
    for start in range(0, m, _CHUNK):
        yield slice(start, start + _CHUNK)


def _blocked_sum(factors, split: tuple[np.ndarray, np.ndarray], n: int, dtype) -> np.ndarray:
    """Sum of left^T @ right over the per-chunk (T x n_b, T x B) factor pairs.

    Entry (b, s) of the sum is the value at grid point j = b B + s; the
    padding past n is dropped.
    """
    starts, offsets = split
    acc = np.zeros((starts.shape[0], offsets.shape[0]), dtype=dtype)
    for left, right in factors:
        acc += left.T @ right
    return acc.ravel()[:n]


def phase_sum(weights: np.ndarray, freqs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """out[j] = sum_i weights[i] * exp(1j * freqs[i] * times[j])."""
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    split = _uniform_split(times)
    if split is None:
        out = np.zeros(times.shape[0], dtype=np.complex128)
        for k in _chunks(weights.shape[0]):
            out += weights[k] @ np.exp(1j * freqs[k, None] * times)
        return out
    starts, offsets = split

    def factors():
        for k in _chunks(weights.shape[0]):
            f = freqs[k, None]
            yield weights[k, None] * np.exp(1j * f * starts), np.exp(1j * f * offsets)

    return _blocked_sum(factors(), split, times.shape[0], np.complex128)


def gamma_sum(weights: np.ndarray, deltas: np.ndarray, offset: float,
              times: np.ndarray) -> np.ndarray:
    """Closed-form double time integral of the correlation function.

    out[j] = 2 * offset * t^2
             + sum_i 8 * weights[i] * sin^2(deltas[i] * t / 2) / deltas[i]^2,

    which is 4 w (1 - cos(delta t)) / delta^2 without the cancellation
    of 1 - cos at small delta t.  Terms with |delta| < ZERO_FREQ_TOL
    take the removable-singularity limit 2 * w * t^2.

    On a uniform grid t = a + b, with a a block start and b an in-block
    offset.  With x = delta a and y = delta b,

        1 - cos(x + y) = (1 - cos x) + cos x (1 - cos y) + sin x sin y,

    so each chunk is one matrix product of the rows c cos x, c sin x and
    the term sum of c (1 - cos x) against the rows 1 - cos y, sin y and
    ones, where c = 4 w / delta^2 and every 1 - cos is computed as
    2 sin^2(. / 2).  For a, b >= 0 and |delta| t small every product is
    non-negative, so nothing cancels.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    t2 = times * times
    out = 2.0 * offset * t2
    small = np.abs(deltas) < ZERO_FREQ_TOL
    if np.any(small):
        out += 2.0 * weights[small].sum() * t2
    d = deltas[~small]
    coef = 4.0 * weights[~small] / (d * d)
    split = _uniform_split(times)
    if split is None:
        for k in _chunks(d.shape[0]):
            half = np.sin(0.5 * d[k, None] * times)
            out += coef[k] @ (2.0 * half * half)
        return out
    starts, offsets = split
    ones = np.ones((1, offsets.shape[0]))

    def factors():
        for k in _chunks(d.shape[0]):
            dk, ck = d[k, None], coef[k, None]
            a = dk * starts
            half_a = np.sin(0.5 * a)
            half_b = np.sin(0.5 * dk * offsets)
            row = ck.T @ (2.0 * half_a * half_a)
            yield (np.concatenate([ck * np.cos(a), ck * np.sin(a), row]),
                   np.concatenate([2.0 * half_b * half_b, np.sin(dk * offsets), ones]))

    return out + _blocked_sum(factors(), split, times.shape[0], np.float64)
