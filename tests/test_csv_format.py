"""Property tests of the column formatter behind the pointwise file.

`cli._fmt_column` must give the bytes of ``f"{x:.11e}"`` for every value
of its fixed-width class and leave every other value to ``_fmt``.  The
draws aim at the places where its float64 rounding could go wrong:
decimal ties and their neighbours, powers of ten and their neighbours,
and the edges of the class.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morsebath import cli, time_grid
from morsebath.config import parse_config_text
from helpers import sweep_rows

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def from_bits(bits):
    return float(np.int64(bits).view(np.float64))


def step(value_and_direction):
    value, direction = value_and_direction
    return float(np.nextafter(value, direction * math.inf)) if direction else value


def with_neighbours(values):
    return st.tuples(values, st.sampled_from([-1, 0, 1])).map(step)


# positive doubles are ordered as their bit patterns
in_class = st.integers(int(np.float64(1e-99).view(np.int64)),
                       int(np.float64(1e99).view(np.int64)) - 1).map(from_bits)
# the double nearest to d.ddddddddddd5e(k): its 12-digit rounding is a tie to the last bit
decimal_ties = with_neighbours(st.builds(lambda digits, exp: float(f"{digits}5e{exp - 12}"),
                                         st.integers(10**11, 10**12 - 1), st.integers(-99, 98)))
powers_of_ten = with_neighbours(st.integers(-99, 99).map(lambda k: float(f"1e{k}")))
outside_class = st.one_of(
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e-100, 1e99]),
    in_class.map(lambda v: -v),
    st.floats(min_value=5e-324, max_value=1e-100),
    st.floats(min_value=1e99, allow_infinity=False),
)
values = st.lists(st.one_of(in_class, decimal_ties, powers_of_ten, st.just(0.0), outside_class),
                  min_size=1, max_size=100)


def fixed_width(v):
    return (v == 0.0 and math.copysign(1.0, v) > 0) or 1e-99 <= v < 1e99


@PROPERTY
@given(values)
def test_fmt_column_equals_fmt_on_its_class(xs):
    chars, wide = cli._fmt_column(np.array(xs))
    assert chars.shape == (len(xs), 17)
    for v, row, is_wide in zip(xs, chars, wide):
        assert is_wide == (not fixed_width(v)), v
        if not is_wide:
            assert row.tobytes().decode("ascii") == f"{v:.11e}", v


@settings(PROPERTY, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_fmt_column_on_random_decimal_ties(seed):
    # float64 rounding picks the wrong side of about 1 tie in 300 once the
    # margin is 1e-4 or less; 1000 ties a draw find those
    rng = np.random.default_rng(seed)
    ties = np.array([float(f"{digits}5e{exp - 12}") for digits, exp in
                     zip(rng.integers(10**11, 10**12, 1000), rng.integers(-99, 99, 1000))])
    xs = np.concatenate([ties, np.nextafter(ties, math.inf), np.nextafter(ties, -math.inf)])
    chars, wide = cli._fmt_column(xs)
    assert not wide.any()
    assert chars.view("S17").ravel().tolist() == [f"{v:.11e}".encode() for v in xs]


@PROPERTY
@given(values)
def test_pointwise_block_equals_fmt_lines(xs):
    times = np.arange(len(xs)) * 0.01
    times[-1] = 1e-100  # a time outside the class takes the per-line path too
    blocks = cli._pointwise_blocks([(2.5, 1.0, 0.0, np.array(xs))], 0.01, times)
    text = b"".join(blocks).decode()
    prefix = f"{2.5:.11e},{1.0:.11e},{0.01:.11e},"
    reference = "lambda,beta,eta,t,e_chi\n" + "".join(
        f"{prefix}{t:.11e},{v:.11e}\n" for t, v in zip(times, xs))
    assert text == reference


EDGES = [
    1e-99, float(np.nextafter(1e-99, 0.0)), float(np.nextafter(1e99, 0.0)), 1e99, 0.0,  # class edges
    -0.0, -1.0, -1e-99, -2.5e10, math.nan, math.inf, -math.inf, 5e-324,  # outside the class
    1.5e-99, 9.87654321012e-99, 9.99999999999e98, 1.0e98, 1e-98,  # exponents -99, 98
    1.234567890125e-3, 2.000000000005e7, 9.999999999995e5, 9.9999999999949e5,  # rounding margin
    1.00000000000049e-7, 0.1, 1.0, 10.0, 123.456,
]


def test_fmt_column_at_the_edges_of_its_fields():
    chars, wide = cli._fmt_column(np.array(EDGES))
    for v, row, is_wide in zip(EDGES, chars, wide):
        assert is_wide == (not fixed_width(v)), v
        if not is_wide:
            assert row.tobytes().decode("ascii") == f"{v:.11e}", v
    zeros = {math.copysign(1.0, v): bool(w) for v, w in zip(EDGES, wide) if v == 0.0}
    assert zeros == {1.0: False, -1.0: True}
    chars, wide = cli._fmt_column(np.empty(0))
    assert chars.shape == (0, 17) and chars.dtype == np.uint8 and wide.shape == (0,)


def test_pointwise_blocks_of_a_sweep_with_wide_rows_equal_fmt_lines():
    text = ("k_modes = 8\neta = 0.01\nlambda = 2.5,3.1\nbeta = 1,7\n"
            "omega_s = 2.0\nt_max = 5.0\ndt = 0.05\n")
    cfg = parse_config_text(text)
    times = time_grid(cfg.t_max, cfg.dt)
    rows = sweep_rows("gaussian-error", cfg, 1)
    wide = {(0, 0): math.nan, (0, 7): -1e-3, (1, 50): 1e-120, (2, 100): 1e99,
            (3, 0): -0.0, (3, 99): math.inf, (3, 100): -math.inf}
    for (row, i), value in wide.items():
        rows[row][3][i] = value
    # a prefix of another width between two of the usual one
    rows[1] = (1e-120, *rows[1][1:])
    text = b"".join(cli._pointwise_blocks(rows, cfg.eta, times)).decode()
    reference = "lambda,beta,eta,t,e_chi\n" + "".join(
        f"{lam:.11e},{beta:.11e},{cfg.eta:.11e},{t:.11e},{e:.11e}\n"
        for lam, beta, _, errors in rows for t, e in zip(times, errors))
    assert text == reference


def fstring_csv(header, *columns):
    """``cli._csv`` as it was: ``str`` of each integer, ``f"{x:.11e}"`` of any other value."""
    fields = [map(str, column) if np.asarray(column).dtype.kind in "iu"
              else map(lambda v: f"{v:.11e}", column) for column in columns]
    return "".join([header + "\n", *(",".join(row) + "\n" for row in zip(*fields))]).encode()


@PROPERTY
@given(values, st.integers(0, 2**32 - 1))
def test_csv_equals_the_fstring_writer(xs, seed):
    # float columns with their negatives, integer columns of any width and sign, a list
    # of Python floats and one of Python ints, in every order
    rng = np.random.default_rng(seed)
    x = np.array(xs)
    n = len(xs)
    columns = [x, -x, list(xs), np.arange(n), rng.integers(-10**15, 10**15, n), [7] * n,
               rng.normal(size=n) * 10.0 ** rng.integers(-120, 120, n)]
    order = rng.permutation(len(columns))[:int(rng.integers(1, len(columns) + 1))]
    table = [columns[i] for i in order]
    assert cli._csv("a,b", *table) == fstring_csv("a,b", *table)


def test_csv_equals_the_fstring_writer_on_values_outside_the_fixed_width_class():
    outside = [-1.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-100, 9.99999999999e98, 1e99,
               -1e-100, -9.99999999999e98, -1e99, 5e-324, -2.5e-7]
    x = np.array(EDGES + outside)
    n = x.size
    columns = [np.arange(n), x, -x, [-3] * n, np.abs(x), list(range(n, 0, -1)), x[::-1]]
    assert cli._csv("h", *columns) == fstring_csv("h", *columns)
    for k in range(len(columns) + 1):  # every prefix of the columns, and none
        assert cli._csv("h", *columns[:k]) == fstring_csv("h", *columns[:k])
    # no rows, and columns of unequal length: the rows of the shortest
    assert cli._csv("h", [], np.arange(3)) == fstring_csv("h", [], np.arange(3)) == b"h\n"
    assert cli._csv("h", x[:5], np.arange(3)) == fstring_csv("h", x[:5], np.arange(3))
