"""Command-line experiment runner emitting deterministic CSV.

Subcommands: spectrum, bath, correlation, dynamics, sweep-dephasing,
sweep-backflow, gaussian-error, oracle-check.  File outputs are byte
identical across runs of the same configuration and across BLAS thread
counts, since every subcommand computes with numpy's OpenBLAS pinned to
one thread; floats are written in scientific notation with 12
significant digits, as ``f"{x:.11e}"`` writes them.  The 480k-row
pointwise file of gaussian-error is built a column at a time: a value's
digits are its float64 product with a power of ten, rounded, which gives
those bytes whenever the product lies more than 1e-3 (over twice its
rounding error) from a rounding boundary; a value within that margin,
and one that is negative, not finite or outside [1e-99, 1e99) (except
+0.0), is written with ``f"{x:.11e}"`` itself.  An output file that
cannot be written ends the command with an error naming its path: a
missing directory before any work, and any other failure before or
while writing, which then leaves none of the files it created.

``sweep-dephasing`` needs each trace only up to its first threshold
crossing.  It evaluates chi of a lambda one slab of block rows of the
full grid's split at a time (``dynamics.chi_until_crossed``) and stops
at the block row that ends the first slab by which every beta has
crossed, or at the end of the grid; tau_d comes from that prefix, and
its bytes are those of the whole trace.  A slab rounds as the whole
grid does only with BLAS on one thread, so where BLAS cannot be pinned
the sweep computes the whole trace.  The other sweeps need the whole
trace and compute it at once.

The three sweeps and dynamics run their work on a pool of threads in this
process, of ``--threads`` workers (default: the CPUs the process may run
on), and only where BLAS can be pinned; otherwise the tasks run in the
calling thread.  A sweep submits one task per lambda, covering all of
its betas and running its mode blocks inline; rows are ordered
lexicographically by (lambda, beta) no matter how the tasks were
scheduled.  ``dynamics`` submits its Gaussian path, then each mode block
of its exact path in mode order, and multiplies the block factors in
mode order.  A failure names the lambda and betas of its point.
Quantities that can be undefined (no threshold crossing, no outflow, no
time-dependent correlation) are recorded with the sentinel value -1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import errno
import functools
import glob
import os
import sys
from collections.abc import Iterable, Iterator
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import numpy as np

from .bath import BathConfig, bath_arrays, discretize
from .config import ConfigError, ExperimentConfig, parse_config
from .correlation import alpha, build_correlation, gamma_decay, offset_ratio
from .dynamics import (DephasingTrace, SystemConfig, chi_series, chi_traces, chi_until_crossed,
                       gaussian_traces, time_grid)
from .morse import bound_energies, bound_state_count, x_matrix
from .observables import blp_flows, dephasing_time, gaussian_error
from .oracle import dense_chi, overlap_element, quadrature_element

UNDEFINED = -1.0


def _fmt(x: float) -> str:
    return f"{x:.11e}"


_SCI_WIDTH = len(_fmt(0.0))
_TRIPLES = np.frombuffer("".join(f"{i:03d}" for i in range(1000)).encode(),
                         dtype=np.uint8).reshape(1000, 3)
_POW10_LOW = -100
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_LOW, 121)])  # correctly rounded
# y = x * 10**(11 - e) is off by two roundings (10**k and the product), each within
# 2**-53 relative, so by less than 2 ulp(1.0) * 1e12 = 4.4e-4: a wider margin
# leaves no y whose float rounding can differ from that of the exact value
_ROUNDING_MARGIN = 1e-3


def _fmt_column(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``_fmt(v)`` for each v of ``x``, as the rows of an (n, _SCI_WIDTH) uint8 array.

    Also returns the mask of the rows left unwritten: those of a v outside the
    fixed-width class (+0.0, or 1e-99 <= v < 1e99), that is, negative, -0.0,
    nan, inf or of a three-digit exponent; the caller writes them with ``_fmt``.
    The 12 digits of the others are round(y) for y = v * 10**(11 - e) in
    float64, e the decimal exponent; a y within _ROUNDING_MARGIN of a
    half-integer, of 1e11 or of 1e12, where that rounding could differ from
    the exact one, is written with ``_fmt`` in its row.
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
    chars = np.empty((x.size, _SCI_WIDTH), dtype=np.uint8)
    lead = _TRIPLES[high // 1000]
    chars[:, 0] = lead[:, 0]
    chars[:, 1] = ord(".")
    chars[:, 2:4] = lead[:, 1:]
    chars[:, 4:7] = _TRIPLES[high % 1000]
    chars[:, 7:10] = _TRIPLES[low // 1000]
    chars[:, 10:13] = _TRIPLES[low % 1000]
    chars[:, 13] = ord("e")
    chars[:, 14] = np.where(exponent < 0, ord("-"), ord("+"))
    chars[:, 15:] = _TRIPLES[np.abs(exponent), 1:]
    for i in np.flatnonzero(undecided):
        chars[i] = np.frombuffer(_fmt(x[i]).encode(), dtype=np.uint8)
    return chars, wide


def _csv_text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _check_outputs(*paths: str | None) -> None:
    """Fail, naming the file, if the directory of an output path does not exist.

    Commands call this before their work, so a typo in a path costs no
    run; it creates nothing.
    """
    for path in paths:
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, "no such directory", path)


def _write_outputs(*outputs: tuple[str | None, Iterable[str]]) -> None:
    """Open every (path, blocks) output, then write each block of newline-terminated lines.

    A path of None is stdout.  Every file is opened before any is
    written.  If an open or a write fails, the files this call created
    are removed, so a failed command leaves no new file, and the error
    names the path.
    """
    path, created = None, []
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path, _ in outputs:
                if path is None:
                    handles.append(sys.stdout)
                    continue
                new = not os.path.lexists(path)
                handles.append(stack.enter_context(
                    open(path, "w", encoding="utf-8", newline="\n")))
                if new:
                    created.append(path)
            for (path, blocks), handle in zip(outputs, handles):
                for text in blocks:
                    handle.write(text)
                if handle is not sys.stdout:
                    handle.close()
    except OSError as exc:
        for done in created:
            os.unlink(done)
        if exc.filename is None:
            exc.filename = path or "<stdout>"
        raise


def _system(cfg: ExperimentConfig) -> SystemConfig:
    return SystemConfig(omega_s=cfg.omega_s, rho0=cfg.rho0)


def _bath_config(cfg: ExperimentConfig, lam: float, beta: float) -> BathConfig:
    return BathConfig(eta=cfg.eta, omega_c=cfg.omega_c, k_modes=cfg.k_modes,
                      lam=lam, beta=beta)


def cmd_spectrum(args: argparse.Namespace) -> int:
    energies = bound_energies(args.omega, args.lam)
    x = x_matrix(args.lam)
    lines = ["n,energy"]
    for n, energy in enumerate(energies):
        lines.append(f"{n},{_fmt(energy)}")
    lines.append("n,m,x_element")
    for n in range(len(energies)):
        for m in range(n, len(energies)):
            lines.append(f"{n},{m},{_fmt(x[n, m])}")
    _write_outputs((args.out, [_csv_text(lines)]))
    return 0


def cmd_bath(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    lam, beta = cfg.single_point()
    bath = bath_arrays(_bath_config(cfg, lam, beta))
    count = bath.energies.shape[1]
    lines = ["k,omega_k,g_k,count,mean_b,z_k"]
    for k, (omega, g, mean_b, z) in enumerate(
            zip(bath.omega, bath.g, bath.mean_b[0], bath.partition[0]), start=1):
        lines.append(f"{k},{_fmt(omega)},{_fmt(g)},{count},{_fmt(mean_b)},{_fmt(z)}")
    _write_outputs((args.out, [_csv_text(lines)]))
    return 0


def cmd_correlation(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    lam, beta = cfg.single_point()
    model = build_correlation(bath_arrays(_bath_config(cfg, lam, beta)))
    times = time_grid(cfg.t_max, cfg.dt)
    alpha_t, = alpha(model, times)
    gamma_t, = gamma_decay(model, times)
    lines = ["t,re_alpha,im_alpha,gamma"]
    for t, a, g in zip(times, alpha_t, gamma_t):
        lines.append(f"{_fmt(t)},{_fmt(a.real)},{_fmt(a.imag)},{_fmt(g)}")
    c0, = model.offset_c0
    c_at_0, = model.weights.sum(axis=0)
    try:
        ratio, = offset_ratio(model)
    except ZeroDivisionError:  # no time-dependent terms (eta = 0)
        ratio = UNDEFINED
    lines.append("c0,c_at_0,offset_ratio")
    lines.append(f"{_fmt(c0)},{_fmt(c_at_0)},{_fmt(ratio)}")
    _write_outputs((args.out, [_csv_text(lines)]))
    return 0


def cmd_dynamics(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    lam, beta = cfg.single_point()
    bath = bath_arrays(_bath_config(cfg, lam, beta))
    system = _system(cfg)
    times = time_grid(cfg.t_max, cfg.dt)
    _check_outputs(args.out)
    with _failure_names("dynamics point", lam, [beta]), _executor(args.threads) as pool:
        gauss_future = pool.submit(gaussian_traces, bath, system, times)
        exact, = chi_traces(bath, system, times, map_blocks=pool.map)
        gauss, = gauss_future.result()
    lines = ["t,re_chi,im_chi,abs_chi,re_chi_gauss,im_chi_gauss,abs_chi_gauss"]
    for t, c, g in zip(times, exact.chi, gauss.chi):
        lines.append(f"{_fmt(t)},{_fmt(c.real)},{_fmt(c.imag)},{_fmt(abs(c))},"
                     f"{_fmt(g.real)},{_fmt(g.imag)},{_fmt(abs(g))}")
    _write_outputs((args.out, [_csv_text(lines)]))
    # invertibility proxy, reported for every run
    print(f"min |chi| = {_fmt(float(np.abs(exact.chi).min()))}", file=sys.stderr)
    return 0


def _lambda_rows(kind: str, cfg: ExperimentConfig, lam: float, betas: list[float]) -> list:
    """Sweep rows of every beta at one lambda, in the order of betas."""
    bath = bath_arrays(_bath_config(cfg, lam, betas[0]), betas)
    system = _system(cfg)
    times = time_grid(cfg.t_max, cfg.dt)
    if kind == "dephasing":
        if _openblas_threads() is not None:
            chi = chi_until_crossed(bath, system, times, cfg.threshold)
        else:
            chi = np.array([trace.chi for trace in chi_traces(bath, system, times)])
        rows = []
        for beta, row in zip(betas, chi):
            trace = DephasingTrace(times=times[:row.shape[0]], chi=row)
            tau = dephasing_time(trace, cfg.rho0, threshold=cfg.threshold)
            rows.append((lam, beta, tau if tau is not None else UNDEFINED))
        return rows
    exact = chi_traces(bath, system, times)
    if kind == "backflow":
        rows = []
        for beta, trace in zip(betas, exact):
            flows = blp_flows(np.abs(trace.chi))
            ratio = flows.ratio if flows.ratio is not None else UNDEFINED
            rows.append((lam, beta, flows.n_minus, flows.n_plus, ratio))
        return rows
    if kind == "gaussian-error":
        gauss = gaussian_traces(bath, system, times)
        rows = []
        for beta, e, g in zip(betas, exact, gauss):
            report = gaussian_error(e, g, cfg.rho0)
            rows.append((lam, beta, report.time_avg, report.pointwise))
        return rows
    raise ValueError(f"unknown sweep kind {kind!r}")


@contextlib.contextmanager
def _failure_names(what: str, lam: float, betas: list[float]) -> Iterator[None]:
    """Re-raise a failure inside the ``with`` statement as a RuntimeError naming the point."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(f"{what} lambda = {lam:.12g}, beta = "
                           f"{', '.join(f'{b:.12g}' for b in betas)}: "
                           f"{type(exc).__name__}: {exc}") from exc


def _sweep_point(kind: str, cfg: ExperimentConfig, lam: float) -> list:
    """Rows of every beta at one lambda; a failure names the lambda and betas."""
    betas = sorted(cfg.betas)
    with _failure_names("sweep point", lam, betas):
        return _lambda_rows(kind, cfg, lam, betas)


@functools.cache
def _openblas_threads():
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


class _Inline(Executor):
    """Executor that runs each task in the calling thread as it is submitted."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _executor(threads: int | None) -> Executor:
    """Thread pool of ``threads`` workers, or `_Inline` where the tasks run serially.

    The worker count defaults to the CPUs this process may run on,
    where the platform says.  A pool is used only for more than one
    worker, and only where ``main`` can pin BLAS to one thread, so the
    workers do not oversubscribe the cores.
    """
    workers = threads
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers > 1 and _openblas_threads() is not None:
        return ThreadPoolExecutor(max_workers=workers)
    return _Inline()


def _run_sweep(kind: str, cfg: ExperimentConfig, threads: int | None) -> list:
    """Rows of every (lambda, beta) of the sweep, one task per lambda on `_executor`."""
    point = functools.partial(_sweep_point, kind, cfg)
    with _executor(threads) as pool:
        blocks = list(pool.map(point, sorted(cfg.lambdas)))
    return sorted((row for rows in blocks for row in rows), key=lambda row: (row[0], row[1]))


def cmd_sweep_dephasing(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    _check_outputs(args.out)
    rows = _run_sweep("dephasing", cfg, args.threads)
    lines = ["lambda,beta,eta,tau_d"]
    for lam, beta, tau in rows:
        lines.append(f"{_fmt(lam)},{_fmt(beta)},{_fmt(cfg.eta)},{_fmt(tau)}")
    _write_outputs((args.out, [_csv_text(lines)]))
    return 0


def cmd_sweep_backflow(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    _check_outputs(args.out)
    rows = _run_sweep("backflow", cfg, args.threads)
    lines = ["lambda,beta,eta,n_minus,n_plus,ratio"]
    for lam, beta, n_minus, n_plus, ratio in rows:
        lines.append(f"{_fmt(lam)},{_fmt(beta)},{_fmt(cfg.eta)},"
                     f"{_fmt(n_minus)},{_fmt(n_plus)},{_fmt(ratio)}")
    _write_outputs((args.out, [_csv_text(lines)]))
    return 0


def cmd_gaussian_error(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    _check_outputs(args.out, cfg.pointwise_out)
    rows = _run_sweep("gaussian-error", cfg, args.threads)
    lines = ["lambda,beta,eta,time_avg_error"]
    for lam, beta, time_avg, _ in rows:
        lines.append(f"{_fmt(lam)},{_fmt(beta)},{_fmt(cfg.eta)},{_fmt(time_avg)}")
    pointwise = [] if cfg.pointwise_out is None else [
        (cfg.pointwise_out, _pointwise_blocks(rows, cfg.eta, time_grid(cfg.t_max, cfg.dt)))]
    _write_outputs((args.out, [_csv_text(lines)]), *pointwise)
    return 0


def _pointwise_blocks(rows: list, eta: float, times: np.ndarray) -> Iterator[str]:
    """The pointwise file: its header, then the lines of one (lambda, beta) at a time."""
    yield "lambda,beta,eta,t,e_chi\n"
    t_chars, t_wide = _fmt_column(times)
    for lam, beta, _, pointwise in rows:
        prefix = f"{_fmt(lam)},{_fmt(beta)},{_fmt(eta)},"
        e_chars, e_wide = _fmt_column(pointwise)
        lines = np.empty((len(times), len(prefix) + 2 * _SCI_WIDTH + 2), dtype=np.uint8)
        lines[:, :len(prefix)] = np.frombuffer(prefix.encode(), dtype=np.uint8)
        lines[:, len(prefix):len(prefix) + _SCI_WIDTH] = t_chars
        lines[:, -_SCI_WIDTH - 2] = ord(",")
        lines[:, -_SCI_WIDTH - 1:-1] = e_chars
        lines[:, -1] = ord("\n")
        pieces, start = [], 0
        for i in np.flatnonzero(t_wide | e_wide):
            pieces += [str(lines[start:i], "ascii"),
                       f"{prefix}{_fmt(times[i])},{_fmt(pointwise[i])}\n"]
            start = i + 1
        pieces.append(str(lines[start:], "ascii"))
        yield "".join(pieces)


def cmd_oracle_check(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    lam, beta = cfg.single_point()
    if cfg.k_modes > 3:
        raise ConfigError(f"field k_modes: oracle-check needs k_modes <= 3, got {cfg.k_modes}")
    modes = discretize(_bath_config(cfg, lam, beta))
    system = _system(cfg)
    times = time_grid(cfg.t_max, cfg.dt)

    fact = chi_series(modes, system, times)
    dense = dense_chi(modes, system, times)
    chi_dev = float(np.abs(fact.chi - dense.chi).max())

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
    failed = False
    print(f"{'check':<30} {'max_deviation':>15} {'tolerance':>10}  status")
    for name, dev, tol in checks:
        status = "PASS" if dev < tol else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name:<30} {dev:>15.3e} {tol:>10.0e}  {status}")
    return 1 if failed else 0


def _worker_count(raw: str) -> int:
    """Value of --threads: an integer >= 1."""
    if not raw.strip().isdigit() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsebath",
        description="Dephasing of a two-level impurity against a bath of Morse oscillators.")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum_p = sub.add_parser("spectrum", help="bound-state energies and x elements of one oscillator")
    spectrum_p.add_argument("--lambda", dest="lam", type=float, required=True,
                            help="anharmonicity parameter (> 0.5)")
    spectrum_p.add_argument("--omega", type=float, default=1.0, help="harmonic frequency")
    spectrum_p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    spectrum_p.set_defaults(func=cmd_spectrum)

    for name, func, with_threads in (
        ("bath", cmd_bath, False),
        ("correlation", cmd_correlation, False),
        ("dynamics", cmd_dynamics, True),
        ("sweep-dephasing", cmd_sweep_dephasing, True),
        ("sweep-backflow", cmd_sweep_backflow, True),
        ("gaussian-error", cmd_gaussian_error, True),
        ("oracle-check", cmd_oracle_check, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="configuration file")
        if name != "oracle-check":
            p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        if with_threads:
            p.add_argument("--threads", type=_worker_count, default=None,
                           help="worker count (default: available parallelism)")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # BLAS pinned to one thread: no output depends on the BLAS thread count
    blas = _openblas_threads()
    if blas is not None:
        get_threads, set_threads = blas
        caller_threads = get_threads()
        set_threads(1)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, IndexError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if blas is not None:
            set_threads(caller_threads)


if __name__ == "__main__":
    sys.exit(main())
