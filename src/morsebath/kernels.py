"""Weighted phase sums over a time grid: the hot loop of chi(t) and Gamma(t).

    phase_sum(weights, freqs, times, groups=None) -> complex128[..., n]
    gamma_sum(weights, deltas, offset, times)     -> float64[..., n]

Weights come terms first: (T,) for one set of weights, or (T, c) for c
sets that share the frequencies (one per inverse temperature).  The
result is (n,) or (c, n); each extra column costs matrix-product rows,
not exponentials.

Every grid the CLI builds is uniform, t_j = t0 + j dt.  Writing
j = b B + s with B = ceil(sqrt(n)) splits each exponential,

    exp(i f t_j) = exp(i f (t0 + b B dt)) * exp(i f s dt),

so a chunk of T terms costs T (n_b + B) exponentials and one matrix
product (T x c n_b)^T @ (T x B) instead of T n exponentials.  A grid
that is not uniform, or has fewer than 2 points, splits as n_b = n
starts and the one offset 0 (B = 1), at T n exponentials.  Work is
chunked over terms so the temporaries stay bounded in memory.

``phase_sum(..., slab=...)`` evaluates only block rows b0 .. b1 - 1
of that split, the grid points b0 B .. b1 B - 1: their start table and
one matrix product with c (b1 - b0) rows.  ``row_slabs`` splits the grid
once and cuts its rows into slabs; a caller that extends a trace slab by
slab builds each chunk's offset table exp(i f s dt) once
(``offset_tables``) and passes it to every slab.  B comes from the full
grid, never from the slab, so a slab's values equal the full call's at
the same points bit for bit: the exponentials are elementwise, and with
BLAS on one thread (as the CLI runs it) a row of a matrix product does
not depend on how many rows the product has.  Multithreaded BLAS may
split a product's sum over terms by its row count, so there a slab can
round unlike the whole grid.  The row independence holds for
matrix-matrix products only: with c (b1 - b0) = 1 numpy takes its
vector-matrix path, which rounds differently, so ``row_slabs`` never
asks for a single row of a grid that has more; a grid with B = 1, whose
products are all matrix-vector, is one slab.

``kept_terms`` is the pruning rule of both term lists (mode factors and
correlation terms).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

_CHUNK = 2048

# block rows of the first slab ``row_slabs`` yields
_FIRST_SLAB_ROWS = 4

# a grid is uniform when every point lies within this many eps * max|t|
# of t0 + j dt
_UNIFORM_EPS = 4.0

ZERO_FREQ_TOL = 1e-12


def kept_terms(magnitudes: np.ndarray, tol) -> np.ndarray:
    """Mask of the terms that survive mass pruning, row by row along the last axis.

    Each row drops its entries from the smallest up while their running
    sum stays <= tol (a scalar, or one value per row), so the dropped
    mass is at most tol.  Ties at the cut are dropped lowest index
    first, which keeps exactly the set a stable argsort would.  Exact
    zeros are always dropped and never sorted.  A row with tol <= 0
    keeps everything.

    The passes are few: columns that are zero in every row are gathered
    out only when there are some; a single row finds its cut by
    ``searchsorted`` on the running sum, which is monotone for
    non-negative terms; and ties are ranked only in the rows where they
    straddle the cut.
    """
    mags = np.asarray(magnitudes, dtype=np.float64)
    rows = mags.reshape(math.prod(mags.shape[:-1]), mags.shape[-1])
    tols = np.broadcast_to(np.asarray(tol, dtype=np.float64), mags.shape[:-1]).reshape(-1, 1)
    prune = tols > 0.0
    # zeros sort first and add nothing to the running sum, so leaving out
    # the columns that are zero in every row moves no cut
    live = rows.any(axis=0)
    if not live.any():
        return np.broadcast_to(~prune, rows.shape).reshape(mags.shape).copy()
    sub = rows if live.all() else rows[:, live]
    ordered = np.sort(sub, axis=-1)
    running = np.cumsum(ordered, axis=-1)
    if running.shape[0] == 1:
        n_drop = np.searchsorted(running[0], tols[0], side="right")[None]
    else:
        n_drop = np.count_nonzero(running <= tols, axis=-1, keepdims=True)
    del running
    n_drop[~prune] = 0
    cut = np.take_along_axis(ordered, np.maximum(n_drop - 1, 0), axis=-1)
    del ordered
    cut[n_drop == 0] = -np.inf
    kept = sub > cut
    # a row keeps n - n_drop terms; fewer above the cut means ties at the cut
    # that are kept, the last ones by index
    straddle = np.count_nonzero(kept, axis=-1) < sub.shape[-1] - n_drop[:, 0]
    for i in np.flatnonzero(straddle):
        tie = sub[i] == cut[i]
        tie_drops = n_drop[i] - np.count_nonzero(sub[i] < cut[i])
        kept[i] |= tie & (np.cumsum(tie) > tie_drops)
    if sub is rows:
        return kept.reshape(mags.shape)
    keep = np.broadcast_to(~prune, rows.shape).copy()
    keep[:, live] = kept
    return keep.reshape(mags.shape)


def _uniform_split(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block starts t0 + b B dt and in-block offsets s dt of a uniform grid.

    A grid with fewer than 2 points, or not uniform, splits as starts =
    times and offsets = [0.0].
    """
    n = times.shape[0]
    if n >= 2:
        t0 = times[0]
        dt = (times[-1] - t0) / (n - 1)
        steps = np.arange(n, dtype=np.float64)
        scale = max(abs(t0), abs(times[-1]))
        if np.abs(times - (t0 + steps * dt)).max() <= _UNIFORM_EPS * np.finfo(float).eps * scale:
            width = math.isqrt(n - 1) + 1
            return t0 + steps[::width] * dt, steps[:width] * dt
    return times, np.zeros(1)


def _chunks(m: int, groups: int = 1):
    """Slices of at most _CHUNK terms in all over `groups` runs of m terms; one if m = 0."""
    size = max(1, _CHUNK // groups)
    for start in range(0, max(m, 1), size):
        yield slice(start, start + size)


def _blocked_sum(factors, shape: tuple[int, int], n: int) -> np.ndarray:
    """Sum of left^T @ right over (g, T, c n_b) and (g, T, B) factor pairs.

    Entry (b, s) of each product is the value at grid point j = b B + s;
    the result has shape (g, c, n), the padding past n dropped.
    """
    parts = (left.swapaxes(1, 2) @ right for left, right in factors)
    acc = next(parts)
    for part in parts:
        acc += part
    return acc.reshape(shape + (-1,))[..., :n]


class Slab(NamedTuple):
    """Block rows b0 .. b1 - 1 of a grid's split (see ``_uniform_split``)."""

    starts: np.ndarray  # their block starts t0 + b B dt
    offsets: np.ndarray  # the grid's B in-block offsets s dt
    points: slice  # their grid points b0 B .. min(b1 B, n) - 1


def row_slabs(times: np.ndarray) -> list[Slab]:
    """The block rows of the split of ``times`` in slabs, in grid order.

    The first slab holds _FIRST_SLAB_ROWS rows and the second the rest
    of the grid.  A caller that has seen enough after the first slab
    skips the rest; one that has not pays one extra call, not extra
    exponentials or product rows.  A slab never holds a single row
    unless the grid has only one: a lone last row stays in the first
    slab.  A grid split with one offset (B = 1: not uniform, or fewer
    than 2 points) is one slab, because there every product is a
    matrix-vector product, and its rounding depends on the row count.
    A slab's values equal the whole grid's only with BLAS on one thread.
    """
    times = np.asarray(times, dtype=np.float64)
    starts, offsets = _uniform_split(times)
    n_rows, width = starts.shape[0], offsets.shape[0]
    edges = [0, n_rows] if width == 1 or n_rows <= _FIRST_SLAB_ROWS + 1 else [
        0, _FIRST_SLAB_ROWS, n_rows]
    return [Slab(starts[b0:b1], offsets, slice(b0 * width, min(b1 * width, times.shape[0])))
            for b0, b1 in zip(edges, edges[1:])]


def offset_tables(freqs: np.ndarray, offsets: np.ndarray,
                  groups: int | None = None) -> Iterator[np.ndarray]:
    """exp(i f s dt) of each chunk of terms ``phase_sum`` takes, (g, chunk, B), in chunk order.

    ``offsets`` are those of the grid's split, as every ``Slab`` of it
    holds.  A caller that evaluates several slabs keeps the tables in a
    list and passes it to each.  Here and in the start tables each
    exponential is taken in place (``_unit_phases``).
    """
    f = np.ascontiguousarray(freqs, dtype=np.float64).reshape(groups or 1, -1, 1)
    for k in _chunks(f.shape[1], f.shape[0]):
        yield _unit_phases(f[:, k], offsets)


def _unit_phases(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """exp(i f x) of real f and x, broadcast against each other.

    f x is written into the imaginary plane of the table, then its cos
    into the real plane and its sin over itself: the values of
    np.exp(1j * f * x) with no temporary and no complex exponential.
    """
    table = np.empty(np.broadcast_shapes(f.shape, x.shape), dtype=np.complex128)
    np.multiply(f, x, out=table.imag)
    np.cos(table.imag, out=table.real)
    np.sin(table.imag, out=table.imag)
    return table


def phase_sum(weights: np.ndarray, freqs: np.ndarray, times: np.ndarray,
              groups: int | None = None, slab: Slab | None = None,
              tables: list[np.ndarray] | None = None) -> np.ndarray:
    """out[..., j] = sum_i weights[i, ...] * exp(1j * freqs[i] * times[j]).

    With ``groups = g`` the T terms are g consecutive runs of T / g terms,
    each summed on its own, and the result gains a leading axis of
    length g: one call serves the modes of a block, whose factors are
    multiplied, not added, afterwards.

    With a ``slab`` of the grid's split (see ``row_slabs``) only its
    block rows are evaluated, and the last axis holds their grid points.
    ``tables`` are the ``offset_tables`` of the same terms and grid;
    without them each call builds its own.

    The result is bit-reproducible only with numpy's OpenBLAS on one
    thread, as the CLI pins it: a multithreaded BLAS may split a
    product's sum over terms by its thread and row counts, so a library
    caller that compares bits pins BLAS too.
    """
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    g = 1 if groups is None else groups
    cols = weights.shape[1:]
    c = math.prod(cols)
    w = weights.reshape(g, weights.shape[0] // g, c)
    f = freqs.reshape(g, -1, 1)
    if slab is None:
        (starts, offsets), n = _uniform_split(times), times.shape[0]
    else:
        starts, offsets, points = slab
        n = points.stop - points.start
    rights = offset_tables(freqs, offsets, groups) if tables is None else iter(tables)

    def factors():
        left = None
        for k in _chunks(w.shape[1], g):
            phase = _unit_phases(f[:, k], starts)
            m = phase.shape[1]
            # the consumer has finished with a chunk's left before it asks for the next
            if left is None or left.shape[1] != m:
                left = np.empty((g, m, c, starts.shape[0]), dtype=np.complex128)
            np.multiply(w[:, k, :, None], phase[:, :, None, :], out=left)
            yield left.reshape(g, m, c * starts.shape[0]), next(rights)

    out = _blocked_sum(factors(), (g, c), n)
    return out.reshape(((g,) if groups is not None else ()) + cols + (n,))


def gamma_sum(weights: np.ndarray, deltas: np.ndarray, offset,
              times: np.ndarray) -> np.ndarray:
    """Closed-form double time integral of the correlation function.

    out[..., j] = 2 * offset * t^2
                  + sum_i 8 * weights[i, ...] * sin^2(deltas[i] * t / 2) / deltas[i]^2,

    which is 4 w (1 - cos(delta t)) / delta^2 without the cancellation
    of 1 - cos at small delta t.  offset is a scalar, or one value per
    weight column.  Terms with |delta| < ZERO_FREQ_TOL take the
    removable-singularity limit 2 * w * t^2.

    Each grid point is t = a + b, with a a block start and b an in-block
    offset (see ``_uniform_split``).  With x = delta a and y = delta b,

        1 - cos(x + y) = (1 - cos x) + cos x (1 - cos y) + sin x sin y,

    so each chunk is one matrix product of the rows c cos x, c sin x and
    the term sum of c (1 - cos x) against the rows 1 - cos y, sin y and
    ones, where c = 4 w / delta^2 and every 1 - cos is computed as
    2 sin^2(. / 2).  For a, b >= 0 and |delta| t small every product is
    non-negative, so nothing cancels.  With the one offset b = 0 of an
    unsplit grid the identity still holds exactly and the product keeps
    only the term sum of c (1 - cos x).

    Correlation terms come in pairs +delta, -delta, so the five trig
    tables (cos x, sin x and 2 sin^2(x / 2) over the starts, 2 sin^2(y / 2)
    and sin y over the offsets) are taken once per distinct |delta| of a
    chunk and gathered into term order.  That is exact.  Per-term tables
    would differ only in the sin x and sin y rows, both by the factor
    sign(delta): numpy's sin and cos are odd and even to the bit (the
    tests check this build).  IEEE products are sign-symmetric, so every
    product in the matrix product, and with it the sum, equals the one
    of per-term tables (sign^2 = 1).
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    cols = weights.shape[1:]
    w = weights.reshape(weights.shape[0], math.prod(cols))
    t2 = times * times
    out = np.zeros((w.shape[1], times.shape[0]))
    out += 2.0 * np.asarray(offset, dtype=np.float64).reshape(-1, 1) * t2
    small = np.abs(deltas) < ZERO_FREQ_TOL
    if np.any(small):
        out += 2.0 * w[small].sum(axis=0)[:, None] * t2
    d = deltas[~small]
    coef = 4.0 * w[~small] / (d * d)[:, None]
    starts, offsets = _uniform_split(times)
    c, n_b, width = coef.shape[1], starts.shape[0], offsets.shape[0]

    def factors():
        left = None
        for k in _chunks(d.shape[0]):
            u, term = np.unique(np.abs(d[k]), return_inverse=True)
            a = u[:, None] * starts
            half_a = np.sin(0.5 * a)
            half_b = np.sin(0.5 * u[:, None] * offsets)
            m = term.shape[0]
            # the consumer has finished with a chunk's factors before it asks for the next
            if left is None or left.shape[0] != 2 * m + 1:
                left, right = np.empty((2 * m + 1, c * n_b)), np.empty((2 * m + 1, width))
            np.multiply(coef[k, :, None], np.cos(a)[term][:, None],
                        out=left[:m].reshape(m, c, n_b))
            np.multiply(coef[k, :, None], np.sin(a)[term][:, None],
                        out=left[m:2 * m].reshape(m, c, n_b))
            left[2 * m] = (coef[k].T @ (2.0 * half_a * half_a)[term]).ravel()
            np.take(2.0 * half_b * half_b, term, axis=0, out=right[:m])
            np.take(np.sin(u[:, None] * offsets), term, axis=0, out=right[m:2 * m])
            right[2 * m] = 1.0
            yield left[None], right[None]

    out = out + _blocked_sum(factors(), (1, w.shape[1]), times.shape[0])[0]
    return out.reshape(cols + (-1,))
