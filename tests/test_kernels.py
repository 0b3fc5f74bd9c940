import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from morsebath import kernels, time_grid
from helpers import reference_exp_phase_sum, reference_gamma_sum, reference_offset_tables


def reference_phase_sum(w, f, t):
    out = np.zeros(len(t), dtype=complex)
    for wi, fi in zip(w, f):
        out += wi * np.exp(1j * fi * t)
    return out


def test_phase_sum_against_reference(rng):
    w = rng.normal(size=37) + 1j * rng.normal(size=37)
    f = rng.uniform(-5.0, 5.0, size=37)
    t = np.linspace(0.0, 20.0, 101)
    np.testing.assert_allclose(kernels.phase_sum(w, f, t), reference_phase_sum(w, f, t),
                               atol=1e-12)


def test_phase_sum_empty():
    for n in (5, 50):
        t = np.linspace(0.0, 1.0, n)
        np.testing.assert_array_equal(kernels.phase_sum(np.empty(0, complex), np.empty(0), t),
                                      np.zeros(n, complex))


def test_gamma_sum_branches():
    for n in (5, 33):
        t = np.linspace(0.0, 10.0, n)
        w = np.array([0.4, 0.2])
        d = np.array([1.3, 1e-14])
        got = kernels.gamma_sum(w, d, 0.05, t)
        expected = (2.0 * 0.05 * t**2
                    + 4.0 * 0.4 * (1.0 - np.cos(1.3 * t)) / 1.3**2
                    + 2.0 * 0.2 * t**2)
        np.testing.assert_allclose(got, expected, atol=1e-13)
        np.testing.assert_allclose(kernels.gamma_sum(np.empty(0), np.empty(0), 0.05, t),
                                   2.0 * 0.05 * t**2, atol=1e-15)


@pytest.mark.parametrize("t_max, dt", [(20.0, 0.01), (5.0, 0.05), (5.0, 0.01), (100.0, 0.1),
                                       (1.0, 0.003)])
def test_uniform_split_covers_cli_grids(t_max, dt):
    times = time_grid(t_max, dt)
    starts, offsets = kernels._uniform_split(times)
    width = offsets.shape[0]
    assert width == int(np.ceil(np.sqrt(times.shape[0])))
    assert starts.shape[0] * width >= times.shape[0] > (starts.shape[0] - 1) * width
    grid = (starts[:, None] + offsets[None, :]).ravel()[:times.shape[0]]
    np.testing.assert_allclose(grid, times, rtol=0.0, atol=1e-13 * t_max)


def test_uniform_split_leaves_short_and_irregular_grids_unsplit(rng):
    jittered = np.linspace(0.0, 20.0, 2001)
    jittered[700] += 1e-9
    for times in (np.empty(0), np.array([0.7]), jittered, np.sort(rng.uniform(0.0, 20.0, 300))):
        starts, offsets = kernels._uniform_split(times)
        assert starts is times
        np.testing.assert_array_equal(offsets, [0.0])
    starts, offsets = kernels._uniform_split(np.array([0.5, 1.5]))
    np.testing.assert_array_equal(starts, [0.5])
    np.testing.assert_array_equal(offsets, [0.0, 1.0])


GRIDS = {
    "cli-grid": np.arange(2001) * 0.01,
    "offset-start": 3.7 + np.arange(250) * 0.05,
    "negative-start": np.linspace(-2.0, 11.0, 1000),
    "sixteen-points": np.linspace(0.5, 1.5, 16),
    "fifteen-points": np.linspace(0.0, 2.0, 15),
    "irregular": np.sort(np.random.default_rng(7).uniform(0.0, 20.0, 400)),
    "two-points": np.array([0.3, 1.9]),
    "one-point": np.array([2.5]),
}


@pytest.mark.parametrize("name", GRIDS)
def test_phase_sum_blocked_matches_direct(name, rng):
    # the blocked kernel against the direct term-by-term sum
    t = GRIDS[name]
    w = rng.normal(size=200) + 1j * rng.normal(size=200)
    f = rng.uniform(-5.0, 5.0, size=200)
    np.testing.assert_allclose(kernels.phase_sum(w, f, t), reference_phase_sum(w, f, t),
                               rtol=0.0, atol=1e-12)


def test_tables_equal_complex_exp(rng):
    # cos and sin written into the two planes give the values of np.exp(1j * f * x), at
    # f = +-0 too (only the sign of an exact zero may differ, which == does not see)
    f = np.concatenate([[0.0, -0.0], rng.uniform(-5.0, 5.0, 600), rng.uniform(-1e8, 1e8, 600),
                        rng.normal(size=600) * 1e-9])
    x = np.concatenate([[0.0, -0.0], rng.uniform(-20.0, 20.0, 40)])
    (table,) = kernels.offset_tables(f, x)
    np.testing.assert_array_equal(table[0], np.exp(1j * f[:, None] * x))


@pytest.mark.parametrize("groups", [None, 40])
@pytest.mark.parametrize("name", GRIDS)
def test_phase_sum_equals_the_exp_kernel_bit_for_bit(name, groups, rng, one_blas_thread):
    # offset tables, the whole grid and each slab, with and without shared tables, against
    # the kernel that took every table with np.exp, over more than one chunk of terms
    t = GRIDS[name]
    per_group = (2 * kernels._CHUNK + 7) // (groups or 1)
    terms = (groups or 1) * per_group
    f = rng.uniform(-5.0, 5.0, size=terms)
    slabs = kernels.row_slabs(t)
    tables = list(kernels.offset_tables(f, slabs[0].offsets, groups=groups))
    expected = list(reference_offset_tables(f, slabs[0].offsets, groups=groups))
    assert len(tables) == len(expected) > 1
    for got, want in zip(tables, expected):
        np.testing.assert_array_equal(got, want)
    for cols in [(), (4,)]:
        w = rng.normal(size=(terms, *cols)) + 1j * rng.normal(size=(terms, *cols))
        np.testing.assert_array_equal(kernels.phase_sum(w, f, t, groups=groups),
                                      reference_exp_phase_sum(w, f, t, groups=groups))
        for slab in slabs:
            want = reference_exp_phase_sum(w, f, t, groups=groups, slab=slab)
            for slab_tables in (tables, None):
                np.testing.assert_array_equal(
                    kernels.phase_sum(w, f, t, groups=groups, slab=slab, tables=slab_tables), want)


@pytest.mark.parametrize("n", [2001, 11])
@pytest.mark.parametrize("delta", np.concatenate([-np.logspace(-6, 1, 15),
                                                  np.logspace(-6, 1, 15)]))
def test_gamma_sum_matches_sine_form(delta, n):
    # 8 w sin^2(delta t / 2) / delta^2 has no cancellation; keep |delta| t <= 3
    # so the reference stays away from the zeros of sin
    t = np.linspace(0.0, min(20.0, 3.0 / abs(delta)), n)
    w = 0.7
    expected = 8.0 * w * np.sin(0.5 * delta * t) ** 2 / delta**2
    got = kernels.gamma_sum(np.array([w]), np.array([delta]), 0.0, t)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_gamma_sum_blocked_matches_direct(rng):
    # the blocked kernel against 8 w sin^2(delta t / 2) / delta^2 summed term by term,
    # with 2 w t^2 for |delta| < ZERO_FREQ_TOL
    w = np.abs(rng.normal(size=300))
    d = rng.uniform(-4.0, 4.0, size=300)
    d[:5] = [4.5e-3, -4.5e-3, 1e-6, 1e-13, 0.0]
    big = np.abs(d) >= kernels.ZERO_FREQ_TOL
    for name, t in GRIDS.items():
        sines = np.sin(0.5 * np.multiply.outer(d[big], t))
        expected = (2.0 * (0.1 + w[~big].sum()) * t**2
                    + (8.0 * w[big] / d[big] ** 2) @ (sines * sines))
        # where the grid crosses t = 0 a block start and its offsets differ in sign, the
        # split products are not all non-negative, and the error scales with max Gamma
        atol = 0.0 if t.min() >= 0.0 else 1e-13 * expected.max()
        np.testing.assert_allclose(kernels.gamma_sum(w, d, 0.1, t), expected,
                                   rtol=1e-13, atol=atol, err_msg=name)


GAMMA_GRIDS = {
    "cli-grid": time_grid(20.0, 0.01),
    "two-points": np.arange(2) * 0.01,
    "irregular": GRIDS["irregular"],
}


def paired_deltas(rng, pairs, unpaired, repeats, small):
    """Shuffled gaps: +-|delta| pairs, lone terms, repeats of a drawn |delta|, near-zero gaps."""
    magnitudes = 10.0 ** rng.uniform(-11.0, 1.5, size=pairs + unpaired)
    d = np.concatenate([magnitudes[:pairs], -magnitudes[:pairs],
                        magnitudes[pairs:] * rng.choice([-1.0, 1.0], size=unpaired)])
    if repeats and d.size:  # equal |delta| in another mode, either sign
        d = np.concatenate([d, rng.choice(d, size=repeats) * rng.choice([-1.0, 1.0], size=repeats)])
    d = np.concatenate([d, rng.choice([0.0, -0.0, 1e-13, -1e-13, 9e-13], size=small)])
    return rng.permutation(d)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=st.sampled_from(sorted(GAMMA_GRIDS)), cols=st.sampled_from([None, 1, 4]),
       pairs=st.integers(0, 400), unpaired=st.integers(0, 30), repeats=st.integers(0, 30),
       small=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(grid="cli-grid", cols=4, pairs=1500, unpaired=7, repeats=20, small=2, seed=1)
@example(grid="irregular", cols=None, pairs=1100, unpaired=0, repeats=0, small=0, seed=2)
@example(grid="two-points", cols=1, pairs=0, unpaired=0, repeats=0, small=1, seed=3)
def test_gamma_sum_equals_the_per_term_tables_bit_for_bit(grid, cols, pairs, unpaired, repeats,
                                                          small, seed):
    # one trig table per distinct |delta| against one per term, over several chunks of
    # terms whose +-delta partners may fall in different chunks
    rng = np.random.default_rng(seed)
    t = GAMMA_GRIDS[grid]
    d = paired_deltas(rng, pairs, unpaired, repeats, small)
    w = rng.random(d.shape if cols is None else (d.size, cols))
    offset = 0.3 if cols is None else rng.random(cols)
    np.testing.assert_array_equal(kernels.gamma_sum(w, d, offset, t),
                                  reference_gamma_sum(w, d, offset, t))


def test_sin_is_odd_and_cos_even_to_the_bit(rng):
    # the premise of gamma_sum's shared tables, on arguments like the kernel's
    starts, offsets = kernels._uniform_split(time_grid(20.0, 0.01))
    u = np.concatenate([10.0 ** rng.uniform(-12.0, 2.0, size=2000), [1e-12, 0.5, 1.0, 2.0]])
    for x in (u[:, None] * starts, 0.5 * (u[:, None] * starts), u[:, None] * offsets,
              0.5 * u[:, None] * offsets):
        np.testing.assert_array_equal(np.sin(-x).view(np.uint64), (-np.sin(x)).view(np.uint64))
        np.testing.assert_array_equal(np.cos(-x).view(np.uint64), np.cos(x).view(np.uint64))


def stable_kept(mags, tol):
    """The pruning rule as a stable argsort states it."""
    keep = np.ones(mags.shape, dtype=bool)
    if tol > 0.0:
        order = np.argsort(mags, kind="stable")
        keep[:] = False
        keep[order[np.cumsum(mags[order]) > tol]] = True
    return keep


def test_kept_terms_matches_stable_argsort(rng):
    for _ in range(200):
        size = int(rng.integers(1, 60))
        mags = rng.exponential(size=size) * 10.0 ** rng.uniform(-16, 0)
        mags[rng.random(size) < 0.3] = 0.0  # planted zeros, as from underflowed weights
        # ties straddling the cut: equal values, a tolerance inside their running sum
        tie = rng.choice(size, size=int(rng.integers(0, size + 1)), replace=False)
        mags[tie] = mags.max() if tie.size else 0.0
        below = np.sort(mags)
        tol = float(np.cumsum(below)[int(rng.integers(0, size))]) * rng.choice([1.0, 1.0 + 1e-9, 0.5])
        np.testing.assert_array_equal(kernels.kept_terms(mags, tol), stable_kept(mags, tol))


@pytest.mark.parametrize("size", [1_000, 10_000, 100_000])
def test_kept_terms_single_rows_with_ties_at_the_cut(size, rng):
    # one row, no zeros (no column is gathered out), the cut found on the running sum;
    # a run of equal terms is planted across the cut and the tolerance set inside it,
    # at its ends and on a running-sum value exactly
    for _ in range(6):
        mags = rng.exponential(size=size) * 10.0 ** rng.uniform(-16, 0) + 1e-300
        ordered = np.sort(mags)
        value = ordered[int(rng.integers(size // 10, size - size // 10))]
        mags[rng.choice(size, size=int(rng.integers(2, size // 20)), replace=False)] = value
        ordered = np.sort(mags)
        running = np.cumsum(ordered)
        first, last = (np.searchsorted(ordered, value, side=side) for side in ("left", "right"))
        for tol in (running[(first + last) // 2], running[first], running[last - 1],
                    running[(first + last) // 2] * (1.0 + 1e-9), np.nextafter(running[first], 0.0),
                    running[int(rng.integers(0, size))]):
            tol = float(tol)
            np.testing.assert_array_equal(kernels.kept_terms(mags, tol), stable_kept(mags, tol))
        # the same rows, two at a time, take the running-sum count and the per-row tie pass
        tols = [float(running[(first + last) // 2]), float(running[last - 1])]
        np.testing.assert_array_equal(kernels.kept_terms(np.stack([mags, mags[::-1]]), np.array(tols)),
                                      [stable_kept(mags, tols[0]), stable_kept(mags[::-1], tols[1])])


def test_kept_terms_rows_and_edge_cases(rng):
    mags = np.abs(rng.normal(size=(3, 4, 25)))
    mags[0, 1, :10] = 0.0
    tols = rng.uniform(0.0, 3.0, size=(3, 4))
    tols[2, 3] = 0.0  # keeps everything, zeros included
    got = kernels.kept_terms(mags, tols)
    for i in range(3):
        for j in range(4):
            np.testing.assert_array_equal(got[i, j], stable_kept(mags[i, j], tols[i, j]))
    ties = np.full(6, 0.1)
    np.testing.assert_array_equal(kernels.kept_terms(ties, 0.25),
                                  [False, False, True, True, True, True])
    assert kernels.kept_terms(np.zeros(4), 1e-14).sum() == 0
    assert kernels.kept_terms(np.zeros(4), 0.0).all()
    assert kernels.kept_terms(np.empty((2, 0)), 1e-14).shape == (2, 0)


SLAB_GRIDS = {
    "two-points": np.arange(2) * 0.01,
    "sixteen-points": np.arange(16) * 0.01,
    "cli-grid": np.arange(2001) * 0.01,
    "irregular": GRIDS["irregular"],
}


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(grid=st.sampled_from(sorted(SLAB_GRIDS)), groups=st.sampled_from([1, 40]),
       cols=st.sampled_from([1, 4]), data=st.data(), seed=st.integers(0, 2**32 - 1))
@example(grid="cli-grid", groups=40, cols=4, data=None, seed=1)
@example(grid="cli-grid", groups=1, cols=1, data=None, seed=2)
def test_row_slabs_equal_the_full_phase_sum(grid, groups, cols, data, seed, one_blas_thread):
    # bit for bit: every slab row_slabs yields, and on a split grid any other slab of
    # c * rows >= 2, against the same grid points of the whole-grid call, over several
    # chunks of terms
    rng = np.random.default_rng(seed)
    t = SLAB_GRIDS[grid]
    chunk = kernels._CHUNK // groups
    per_group = 2 * chunk + 7 if data is None else data.draw(st.integers(0, 3 * chunk))
    w = rng.normal(size=(groups * per_group, cols)) + 1j * rng.normal(size=(groups * per_group, cols))
    f = rng.uniform(-5.0, 5.0, size=groups * per_group)
    full = kernels.phase_sum(w, f, t, groups=groups)
    slabs = kernels.row_slabs(t)
    tables = list(kernels.offset_tables(f, slabs[0].offsets, groups=groups))
    starts, offsets = kernels._uniform_split(t)
    n_rows, width = starts.shape[0], offsets.shape[0]
    if data is not None and width > 1 and cols * n_rows >= 2:
        b0 = data.draw(st.integers(0, n_rows - 1))
        b1 = data.draw(st.integers(b0 + 1, n_rows))
        if cols * (b1 - b0) < 2:
            b0, b1 = (b0, b1 + 1) if b1 < n_rows else (b0 - 1, b1)
        slabs.append(kernels.Slab(starts[b0:b1], offsets,
                                  slice(b0 * width, min(b1 * width, t.shape[0]))))
    for slab in slabs:
        for slab_tables in (tables, None):
            got = kernels.phase_sum(w, f, t, groups=groups, slab=slab, tables=slab_tables)
            np.testing.assert_array_equal(got, full[..., slab.points])


def test_row_slabs_tile_the_grid_and_never_hold_a_lone_row():
    # a slab of c * rows = 1 would take numpy's vector-matrix path, which rounds unlike the
    # matrix product of the whole grid; so a slab holds at least 2 rows (c * rows >= 2 for
    # every column count c), unless the grid has one row and the slab is the whole-grid call.
    # A grid of one offset (B = 1) has only matrix-vector products and is one slab.
    grids = [np.arange(n) * 0.01 for n in [*range(0, 120), 2001, 2025, 2026]]
    for times in grids + [GRIDS["irregular"], GRIDS["irregular"][:2]]:
        starts, offsets = kernels._uniform_split(times)
        n_rows, width = starts.shape[0], offsets.shape[0]
        slabs = kernels.row_slabs(times)
        rows = [(slab.points.start // width, -(-slab.points.stop // width)) for slab in slabs]
        edges = [0] + [b1 for _, b1 in rows]
        assert [b0 for b0, _ in rows] == edges[:-1] and edges[-1] == n_rows
        for slab, (b0, b1) in zip(slabs, rows):
            assert b1 - b0 >= 2 or ((b0, b1) == (0, n_rows) and n_rows <= 1)
            assert width > 1 or (b0, b1) == (0, n_rows)
            assert slab.points == slice(b0 * width, min(b1 * width, times.shape[0]))
            np.testing.assert_array_equal(slab.starts, starts[b0:b1])
            assert slab.offsets is offsets or np.array_equal(slab.offsets, offsets)
        if width > 1 and n_rows > kernels._FIRST_SLAB_ROWS + 1:
            assert rows[0] == (0, kernels._FIRST_SLAB_ROWS)
