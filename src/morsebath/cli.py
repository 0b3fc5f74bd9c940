"""Command-line experiment runner emitting deterministic CSV.

Subcommands: spectrum, bath, correlation, dynamics, sweep-dephasing,
sweep-backflow, gaussian-error, oracle-check.  File outputs are byte
identical across runs of the same configuration, and across BLAS thread
counts where numpy's bundled OpenBLAS can be pinned: every subcommand
then computes with it on one thread.  Floats are written in scientific
notation with 12 significant digits, as ``f"{x:.11e}"`` writes them.
Every table, and the 480k-row pointwise file of gaussian-error, is
built a column at a time (``_fmt_column``): a value's digits are its
float64 product with a power of ten, rounded, which gives those bytes
whenever the product lies more than 1e-3 (over twice its rounding
error) from a rounding boundary.  The line of a value within that
margin is written with ``f"{x:.11e}"``, and so is the line of a value
whose magnitude is not finite or lies outside [1e-99, 1e99) (except 0).  A
table writes a negative value as "-" and its magnitude; the pointwise
file writes the line of a negative value or -0.0 with ``f"{x:.11e}"``.
Each value's 17 bytes are one record of five whole fields, "d.dd",
three digit triples and "e+dd", each gathered from a table in one pass,
and each line one record of its prefix, the two values and separators.
Every output is written as bytes: each table and each pointwise block
is a bytes object, and stdout is written through its binary buffer.
An output file that cannot be written ends the command with an error
naming it: an empty path, a missing directory, a directory as the path
or two outputs naming one file before any work, and any other failure
before or while writing, which then leaves none of the files it created.

Every command builds its ``Bath`` of one lambda and its betas with
``_bath`` and writes its tables with ``_csv``.  The three sweeps are
``cmd_sweep``, whose table ``_SWEEPS`` gives each command its CSV
columns; each computes chi with one ``dynamics.chi_traces`` call per
lambda.  ``sweep-dephasing`` passes its threshold and takes tau_d from
the prefix of slabs that ``chi_traces`` returns, which has the bytes of
the whole trace where BLAS is pinned.

``main`` runs every command inside ``runner.one_blas_thread``, and every
command takes its worker count from ``runner.workers``.  A sweep's task
is one lambda with all of its betas: ``cmd_sweep`` maps ``_sweep_point``
over its lambdas with ``runner.map_lambdas``, which runs them on forked
workers, and writes the rows in (lambda, beta) order.  ``dynamics`` runs
on a pool of threads in this process, one thread for one worker: its
work is large eigendecompositions, exponentials and matrix products that
release the GIL, and its block factors would otherwise be pickled back.
It submits its Gaussian path, then the term build of each mode block of
its exact path, then each block's phase sum, and multiplies the block
factors in mode order.  A failure names the lambda and betas of its
point; a sweep reports the smallest failing lambda at every worker
count.  Quantities that can be undefined (no threshold crossing, no
outflow, no time-dependent correlation) are recorded with
the sentinel value -1.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import os
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import runner
from .bath import Bath, bath_arrays
from .config import ConfigError, ExperimentConfig, parse_config
from .correlation import alpha, build_correlation, gamma_decay, gaussian_traces, offset_ratio
from .dynamics import DEFAULT_RHO0, chi_traces, time_grid
from .morse import bound_energies, bound_state_count, x_matrix
from .observables import blp_flows, dephasing_time, gaussian_error
from .oracle import MAX_DENSE_MODES, dense_chi, overlap_element, quadrature_element

UNDEFINED = -1.0


def _fmt(x: float) -> str:
    return f"{x:.11e}"


_SCI_WIDTH = len(_fmt(0.0))
_TRIPLES = np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(),
                         dtype=np.uint8).reshape(1000, 3)
# a value's bytes as five whole fields, each gathered from a table:
# "d.dd" of the leading three digits, three triples and "e+dd" of the exponent
_SCI_RECORD = np.dtype([("lead", "V4"), ("d3", "V3"), ("d6", "V3"), ("d9", "V3"), ("exp", "V4")])
_LEADS = np.insert(_TRIPLES, 1, ord("."), axis=1).view("V4").ravel()
_DIGITS = _TRIPLES.view("V3").ravel()
_EXP_LOW = -99
_EXPS = np.frombuffer("".join(f"e{k:+03d}" for k in range(_EXP_LOW, 100)).encode(), dtype="V4")
_POW10_LOW = -100
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_LOW, 121)])  # correctly rounded
# y = x * 10**(11 - e) is off by two roundings (10**k and the product), each within
# 2**-53 relative, so by less than 2 ulp(1.0) * 1e12 = 4.4e-4: a wider margin
# leaves no y whose float rounding can differ from that of the exact value
_ROUNDING_MARGIN = 1e-3


def _fmt_column(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``_fmt(v)`` for each v of ``x``, as the rows of an (n, _SCI_WIDTH) uint8 array.

    Also returns the mask of the undecided rows, whose bytes are not
    ``_fmt``'s and whose lines the caller writes with ``_fmt``: a v outside
    the fixed-width class (+0.0, or 1e-99 <= v < 1e99), that is negative,
    -0.0, nan, inf or of a three-digit exponent, and a v whose y = v *
    10**(11 - e) in float64, e the decimal exponent, lies within
    _ROUNDING_MARGIN of a half-integer, of 1e11 or of 1e12, where round(y)
    could differ from the exact 12 digits.
    """
    x = np.asarray(x, dtype=np.float64)
    positive = (x >= 1e-99) & (x < 1e99)
    wide = ~(positive | ((x == 0.0) & ~np.signbit(x)))
    v = np.where(positive, x, 1.0)
    exponent = np.floor(np.log10(v)).astype(np.int64)
    y = v * _POW10[11 - exponent - _POW10_LOW]
    # log10 can be one off next to a power of ten
    exponent += (y >= 1e12).astype(np.int64) - (y < 1e11)
    y = v * _POW10[11 - exponent - _POW10_LOW]
    undecided = positive & ((np.abs(y - np.floor(y) - 0.5) <= _ROUNDING_MARGIN)
                            | (y < 1e11 + _ROUNDING_MARGIN) | (y > 1e12 - 1.0))
    digits = np.where(positive & ~undecided, np.rint(y), 0.0).astype(np.int64)
    high, low = np.divmod(digits, 1_000_000)
    record = np.empty(x.size, dtype=_SCI_RECORD)
    record["lead"] = _LEADS[high // 1000]
    record["d3"] = _DIGITS[high % 1000]
    record["d6"] = _DIGITS[low // 1000]
    record["d9"] = _DIGITS[low % 1000]
    # clipped: an exponent of -100 or 100 occurs only in an undecided row
    record["exp"] = np.take(_EXPS, exponent - _EXP_LOW, mode="clip")
    return record.view(np.uint8).reshape(x.size, _SCI_WIDTH), wide | undecided


def _csv(header: str, *columns: Iterable) -> bytes:
    """A CSV table as bytes: the header line, then one line per row of the columns.

    A column of integers is written as integers (``str``), any other with
    ``_fmt``.  Each row is one record of whole fields, each followed by a
    comma or the newline: an integer column gives its ``str`` padded with
    NUL to the column's widest, and a float column a sign byte ("-" or
    NUL) and the ``_fmt_column`` bytes of its magnitude.  The NULs are
    deleted from the table at the end.  A row holding a value that
    ``_fmt_column`` leaves undecided is written with ``_fmt`` on its own line.
    """
    arrays = [np.asarray(column) for column in columns]
    n = min((a.shape[0] for a in arrays), default=0)
    fields, values, undecided = [], [], np.zeros(n, dtype=bool)
    for i, a in enumerate(arrays):
        end = (f"end{i}", "S1")
        if a.dtype.kind in "iu":
            digits = a[:n].astype("S")
            fields += [(f"int{i}", digits.dtype), end]
            values.append((f"int{i}", digits))
            continue
        x = a[:n].astype(np.float64)
        chars, column_undecided = _fmt_column(np.abs(x))
        undecided |= column_undecided
        fields += [(f"sign{i}", "S1"), (f"float{i}", f"V{_SCI_WIDTH}"), end]
        values += [(f"sign{i}", np.where(np.signbit(x), b"-", b"\0")),
                   (f"float{i}", chars.view(f"V{_SCI_WIDTH}")[:, 0])]
    lines = np.empty(n, dtype=fields)
    for name, value in values:
        lines[name] = value
    for i in range(len(arrays)):
        lines[f"end{i}"] = b"\n" if i == len(arrays) - 1 else b","
    pieces, start = [(header + "\n").encode()], 0
    for i in np.flatnonzero(undecided):
        row = (str(a[i]) if a.dtype.kind in "iu" else _fmt(a[i]) for a in arrays)
        pieces += [lines[start:i], (",".join(row) + "\n").encode()]
        start = i + 1
    pieces.append(lines[start:])
    return b"".join(pieces).translate(None, b"\0")


def _check_outputs(*paths: str | None) -> None:
    """Fail, naming the path, if an output cannot be a file of its own.

    That is an output whose directory does not exist, one that is a
    directory, or one that names the same file as an earlier output.
    Commands call this before their work, so a typo in a path costs no
    run; it creates nothing.
    """
    seen = set()
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, "is a directory", path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, "no such directory", path)
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"two outputs name the file {path!r}")
        seen.add(real)


def _write_outputs(*outputs: tuple[str | None, Iterable[bytes]]) -> None:
    """Open every (path, blocks) output, then write each block of newline-terminated lines.

    Blocks are bytes.  A path of None is stdout, written through its
    binary buffer.  Every file is opened before any is written.  If an
    open or a write fails, the files this call created are removed, so
    a failed command leaves no new file, and the error names the path.
    """
    path, created = None, []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path, _ in outputs:
                if path is None:
                    sys.stdout.flush()
                    handles.append(sys.stdout.buffer)
                    continue
                new = not os.path.lexists(path)
                handles.append(stack.enter_context(open(path, "wb")))
                if new:
                    created.append(path)
            for (path, blocks), handle in zip(outputs, handles):
                for block in blocks:
                    handle.write(block)
                if path is None:
                    handle.flush()
                else:
                    handle.close()
    except OSError as exc:
        for done in created:
            os.unlink(done)
        if exc.filename is None:
            exc.filename = path or "<stdout>"
        raise


def _bath(cfg: ExperimentConfig, lam: float, betas: list[float]) -> Bath:
    """The K modes of cfg at lam, with the thermal data of every beta."""
    return bath_arrays(cfg.eta, cfg.omega_c, cfg.k_modes, lam, betas)


def _one_point(args: argparse.Namespace, max_modes: int | None = None):
    """(cfg, lam, beta, bath, times) of a one-point config; more than max_modes modes fail."""
    cfg = parse_config(args.config)
    try:
        lam, beta = cfg.single_point()
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    if max_modes is not None and cfg.k_modes > max_modes:
        raise ConfigError(f"{args.config}: field k_modes: {args.command} needs "
                          f"k_modes <= {max_modes}, got {cfg.k_modes}")
    return cfg, lam, beta, _bath(cfg, lam, [beta]), time_grid(cfg.t_max, cfg.dt)


def cmd_spectrum(args: argparse.Namespace) -> int:
    energies = bound_energies(args.omega, args.lam)
    n, m = np.triu_indices(len(energies))
    _write_outputs((args.out, [_csv("n,energy", range(len(energies)), energies),
                               _csv("n,m,x_element", n, m, x_matrix(args.lam)[n, m])]))
    return 0


def cmd_bath(args: argparse.Namespace) -> int:
    *_, bath, _ = _one_point(args)
    k_modes, count = bath.energies.shape
    _write_outputs((args.out, [_csv("k,omega_k,g_k,count,mean_b,z_k", range(1, k_modes + 1),
                                    bath.omega, bath.g, [count] * k_modes, bath.mean_b[0],
                                    bath.partition[0])]))
    return 0


def cmd_correlation(args: argparse.Namespace) -> int:
    *_, bath, times = _one_point(args)
    model = build_correlation(bath)
    alpha_t, = alpha(model, times)
    gamma_t, = gamma_decay(model, times)
    c0, = model.offset_c0
    c_at_0, = model.weights.sum(axis=0)
    try:
        ratio, = offset_ratio(model)
    except ZeroDivisionError:  # no time-dependent terms (eta = 0)
        ratio = UNDEFINED
    _write_outputs((args.out, [
        _csv("t,re_alpha,im_alpha,gamma", times, alpha_t.real, alpha_t.imag, gamma_t),
        _csv("c0,c_at_0,offset_ratio", [c0], [c_at_0], [ratio])]))
    return 0


def cmd_dynamics(args: argparse.Namespace) -> int:
    cfg, lam, beta, bath, times = _one_point(args)
    _check_outputs(args.out)
    with (_failure_names("dynamics point", lam, [beta]),
          ThreadPoolExecutor(max_workers=runner.workers(args.threads)) as pool):
        gauss_future = pool.submit(gaussian_traces, bath, cfg.omega_s, times)
        chi, = chi_traces(bath, cfg.omega_s, times, map_blocks=pool.map)
        chi_gauss, = gauss_future.result()
    # the scalar abs: numpy's array abs differs from it in the last bit on some values
    abs_chi = np.array([abs(c) for c in chi])
    _write_outputs((args.out, [_csv(
        "t,re_chi,im_chi,abs_chi,re_chi_gauss,im_chi_gauss,abs_chi_gauss",
        times, chi.real, chi.imag, abs_chi,
        chi_gauss.real, chi_gauss.imag, [abs(g) for g in chi_gauss])]))
    # invertibility proxy, reported for every run: the least value of the abs_chi column
    print(f"min |chi| = {_fmt(float(abs_chi.min()))}", file=sys.stderr)
    return 0


def _lambda_rows(command: str, cfg: ExperimentConfig, lam: float, betas: list[float]) -> list:
    """Rows of the sweep command for every beta at one lambda, in the order of betas."""
    bath = _bath(cfg, lam, betas)
    times = time_grid(cfg.t_max, cfg.dt)
    chi = chi_traces(bath, cfg.omega_s, times,
                     threshold=cfg.threshold if command == "sweep-dephasing" else None)
    if command == "sweep-dephasing":
        taus = [dephasing_time(times[:chi.shape[1]], row, threshold=cfg.threshold)
                for row in chi]
        return [(lam, beta, UNDEFINED if tau is None else tau) for beta, tau in zip(betas, taus)]
    if command == "sweep-backflow":
        flows = [blp_flows(np.abs(row)) for row in chi]
        return [(lam, beta, f.n_minus, f.n_plus, UNDEFINED if f.ratio is None else f.ratio)
                for beta, f in zip(betas, flows)]
    if command == "gaussian-error":
        chi_gauss = gaussian_traces(bath, cfg.omega_s, times)
        reports = [gaussian_error(times, e, g, DEFAULT_RHO0) for e, g in zip(chi, chi_gauss)]
        return [(lam, beta, r.time_avg, r.pointwise) for beta, r in zip(betas, reports)]
    raise ValueError(f"unknown sweep command {command!r}")


@contextlib.contextmanager
def _failure_names(what: str, lam: float, betas: list[float]) -> Iterator[None]:
    """Re-raise a failure inside the ``with`` statement as a RuntimeError naming the point."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{what} lambda = {lam:.12g}, beta = "
                           f"{', '.join(f'{b:.12g}' for b in betas)}: "
                           f"{type(exc).__name__}: {exc}") from exc


def _sweep_point(command: str, cfg: ExperimentConfig, lam: float) -> list:
    """Rows of every beta at one lambda; a failure names the lambda and betas."""
    betas = sorted(cfg.betas)
    with _failure_names("sweep point", lam, betas):
        return _lambda_rows(command, cfg, lam, betas)


# sweep command -> CSV columns after lambda,beta,eta
_SWEEPS = {
    "sweep-dephasing": ("tau_d",),
    "sweep-backflow": ("n_minus", "n_plus", "ratio"),
    "gaussian-error": ("time_avg_error",),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    """One row per (lambda, beta) of the sweep; gaussian-error also writes pointwise_out if set."""
    columns = _SWEEPS[args.command]
    cfg = parse_config(args.config)
    pointwise_out = cfg.pointwise_out if args.command == "gaussian-error" else None
    _check_outputs(args.out, pointwise_out)
    # freed memory kept for the next lambda; forked sweep workers inherit it
    runner.keep_heap()
    points = runner.map_lambdas(functools.partial(_sweep_point, args.command, cfg), cfg.lambdas,
                                runner.workers(args.threads))
    rows = [row for point in points for row in point]
    lams, betas, *values = zip(*rows)
    table = _csv(",".join(("lambda", "beta", "eta", *columns)),
                 lams, betas, [cfg.eta] * len(rows), *values[:len(columns)])
    pointwise = [] if pointwise_out is None else [
        (pointwise_out, _pointwise_blocks(rows, cfg.eta, time_grid(cfg.t_max, cfg.dt)))]
    _write_outputs((args.out, [table]), *pointwise)
    if args.command == "sweep-dephasing":
        # a tau_d in the first step, 0 < tau_d <= t_1 = dt, is interpolated from
        # t = 0: the grid does not resolve that crossing, and a smaller dt moves it
        for lam, beta, tau in rows:
            if 0.0 < tau <= cfg.dt:
                print(f"warning: lambda = {lam:.12g}, beta = {beta:.12g}: tau_d = {_fmt(tau)} "
                      f"falls in the first time step (t_1 = {_fmt(cfg.dt)}) and is "
                      "interpolated from t = 0; check it at a smaller dt", file=sys.stderr)
    return 0


def _pointwise_blocks(rows: list, eta: float, times: np.ndarray) -> Iterator[bytes]:
    """The pointwise file: its header, then the lines of one (lambda, beta) at a time."""
    yield b"lambda,beta,eta,t,e_chi\n"
    t_chars, t_undecided = _fmt_column(times)
    field = f"V{_SCI_WIDTH}"
    lines = None
    for lam, beta, _, pointwise in rows:
        prefix = f"{_fmt(lam)},{_fmt(beta)},{_fmt(eta)},"
        # the t, comma and newline fields are filled once, for every prefix of one width
        if lines is None or lines.dtype["prefix"].itemsize != len(prefix):
            lines = np.empty(len(times), dtype=[("prefix", f"V{len(prefix)}"), ("t", field),
                                                ("comma", "V1"), ("e_chi", field), ("end", "V1")])
            lines["t"] = t_chars.view(field)[:, 0]
            lines["comma"] = np.void(b",")
            lines["end"] = np.void(b"\n")
        lines["prefix"] = np.void(prefix.encode())
        e_chars, e_undecided = _fmt_column(pointwise)
        lines["e_chi"] = e_chars.view(field)[:, 0]
        pieces, start = [], 0
        for i in np.flatnonzero(t_undecided | e_undecided):
            pieces += [lines[start:i], f"{prefix}{_fmt(times[i])},{_fmt(pointwise[i])}\n".encode()]
            start = i + 1
        pieces.append(lines[start:])
        yield b"".join(pieces)


def cmd_oracle_check(args: argparse.Namespace) -> int:
    cfg, lam, _, bath, times = _one_point(args, max_modes=MAX_DENSE_MODES)
    fact, = chi_traces(bath, cfg.omega_s, times)
    chi_dev = float(np.abs(fact - dense_chi(bath, cfg.omega_s, times)).max())

    d = bound_state_count(lam)
    xm = x_matrix(lam)
    elem_dev = max(abs(xm[n, m] - quadrature_element(lam, n, m))
                   for n in range(d) for m in range(n, d))
    gram_dev = max(abs(overlap_element(lam, n, m) - (1.0 if n == m else 0.0))
                   for n in range(d) for m in range(n, d))

    checks = [
        ("factorized_vs_dense_chi", chi_dev, 1e-10),
        ("closed_form_vs_quadrature", elem_dev, 1e-8),
        ("wavefunction_orthonormality", gram_dev, 1e-8),
    ]
    print(f"{'check':<30} {'max_deviation':>15} {'tolerance':>10}  status")
    for name, dev, tol in checks:
        print(f"{name:<30} {dev:>15.3e} {tol:>10.0e}  {'PASS' if dev < tol else 'FAIL'}")
    return 0 if all(dev < tol for _, dev, tol in checks) else 1


def _finite(raw: str) -> float:
    """Value of --lambda and --omega: a finite number."""
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {raw!r}")
    return value


def _output_path(raw: str) -> str:
    """Value of --out: a path that is not empty."""
    if not raw:
        raise argparse.ArgumentTypeError("need a path, got ''")
    return raw


def _worker_count(raw: str) -> int:
    """Value of --threads: an integer >= 1."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsebath",
        description="Dephasing of a two-level impurity against a bath of Morse oscillators.")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum_p = sub.add_parser("spectrum", help="bound-state energies and x elements of one oscillator")
    spectrum_p.add_argument("--lambda", dest="lam", type=_finite, required=True,
                            help="anharmonicity parameter (> 0.5)")
    spectrum_p.add_argument("--omega", type=_finite, default=1.0, help="harmonic frequency")
    spectrum_p.add_argument("--out", type=_output_path, default=None,
                            help="output CSV path (default stdout)")
    spectrum_p.set_defaults(func=cmd_spectrum)

    for name, func, with_threads in (
        ("bath", cmd_bath, False),
        ("correlation", cmd_correlation, False),
        ("dynamics", cmd_dynamics, True),
        *((name, cmd_sweep, True) for name in _SWEEPS),
        ("oracle-check", cmd_oracle_check, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file")
        if name != "oracle-check":
            p.add_argument("--out", type=_output_path, default=None,
                           help="output CSV path (default stdout)")
        if with_threads:
            p.add_argument("--threads", type=_worker_count, default=None,
                           help="worker count (default: available parallelism; "
                                "1 where BLAS cannot be pinned to one thread)")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # BLAS pinned to one thread: no output depends on the BLAS thread count
    with runner.one_blas_thread():
        try:
            return args.func(args)
        except (ValueError, ZeroDivisionError, IndexError, RuntimeError, OSError,
                MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def console_main() -> int:
    """``main()`` of ``python -m morsebath.cli`` and the ``morsebath`` script.

    Once main has returned and closed its outputs, every object is moved
    out of the garbage collector's reach, so the exit skips its final walk.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(console_main())
