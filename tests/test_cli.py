import itertools
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from morsebath import cli, dynamics, kernels, observables
from morsebath.cli import main
from morsebath.config import ConfigError, parse_config_text

SCI = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
k_modes = 8
omega_c = 1.0
eta = 2.0
lambda = 2.5
beta = 1.0
omega_s = 2.0
t_max = 5.0
dt = 0.05
"""


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def test_config_parsing_defaults_and_ranges():
    cfg = parse_config_text("eta = 2\nlambda = 1.6:2.0:0.1\nbeta = 1,4\n")
    assert cfg.k_modes == 40 and cfg.omega_c == 1.0 and cfg.omega_s == 2.0
    assert cfg.t_max == 20.0 and cfg.dt == 0.01
    np.testing.assert_allclose(cfg.lambdas, [1.6, 1.7, 1.8, 1.9, 2.0])
    assert cfg.betas == (1.0, 4.0)
    np.testing.assert_allclose(cfg.rho0, [[0.5, 0.25], [0.25, 0.5]])


def test_config_errors_name_field_and_line():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config_text("eta = 2\nlambda = 0.4\nbeta = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("eta = 2\nbogus_key = 3\nlambda = 2.5\nbeta = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("eta = 2\neta = 3\nlambda = 2.5\nbeta = 1\n")
    with pytest.raises(ConfigError, match="beta"):
        parse_config_text("eta = 2\nlambda = 2.5\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config_text("eta = 2\nlambda = 2.5\nbeta = 1\ndt = 30.0\n")
    with pytest.raises(ConfigError, match="rho0"):
        parse_config_text("eta = 2\nlambda = 2.5\nbeta = 1\nrho0 = 1,0,0,0.5\n")


def test_config_rejects_second_order_phase_key():
    # the Gaussian surrogate has one phase convention; the key that chose another is gone
    with pytest.raises(ConfigError, match="line 3: unknown key 'gauss_second_order_phase'"):
        parse_config_text("eta = 2\nlambda = 2.5\ngauss_second_order_phase = true\nbeta = 1\n")


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_exit_2_at_parse_time(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "parse_config", lambda *args: pytest.fail("command ran"))
    cfg = write_config(tmp_path, BASE)
    for command in ("sweep-dephasing", "dynamics"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", cfg, "--threads", value])
        assert exit_info.value.code == 2
        assert "--threads: need an integer >= 1" in capsys.readouterr().err


def test_spectrum_output(capsys):
    assert main(["spectrum", "--lambda", "2.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,energy"
    assert out[1].startswith("0,") and out[2].startswith("1,")
    assert float(out[1].split(",")[1]) == pytest.approx(-0.8)
    assert float(out[2].split(",")[1]) == pytest.approx(-0.2)
    block = out.index("n,m,x_element")
    rows = out[block + 1:]
    assert len(rows) == 3  # upper triangle incl. diagonal for d = 2
    assert float(rows[1].split(",")[2]) == pytest.approx(0.4714045207910316)
    for field in out[1].split(",")[1:]:
        assert SCI.match(field)


def test_spectrum_rejects_bad_lambda(capsys):
    assert main(["spectrum", "--lambda", "0.4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_spectrum_rejects_lambda_binding_no_state(capsys):
    # lam + 1/2 within 1e-9 of 1: no level, so no headers-only output
    assert main(["spectrum", "--lambda", "0.5000000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "binds no state" in captured.err


@pytest.mark.parametrize("omega", ["0", "-1", "nan"])
def test_spectrum_rejects_bad_omega(omega, capsys):
    assert main(["spectrum", "--lambda", "2.5", "--omega", omega]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "omega" in err


def test_bath_csv(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "bath.csv"
    assert main(["bath", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["k", "omega_k", "g_k", "count", "mean_b", "z_k"]
    assert len(rows) == 9
    assert float(rows[-1][2]) == 0.0  # boundary mode
    assert rows[1][3] == "2"


def test_correlation_csv(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "corr.csv"
    assert main(["correlation", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_alpha,im_alpha,gamma"
    summary = lines.index("c0,c_at_0,offset_ratio")
    assert summary == len(lines) - 2
    c0, c_at_0, ratio = (float(v) for v in lines[-1].split(","))
    assert ratio == pytest.approx(c0 / c_at_0)
    assert len(lines) == 1 + 101 + 2  # header + grid rows + summary block


def test_correlation_without_coupling_writes_sentinel_ratio(tmp_path):
    # eta = 0: no time-dependent terms, so C0 / C(0) is undefined and written as -1
    cfg = write_config(tmp_path, BASE.replace("eta = 2.0", "eta = 0.0"))
    out = tmp_path / "corr.csv"
    assert main(["correlation", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_alpha,im_alpha,gamma"
    assert len(lines) == 1 + 101 + 2
    for row in lines[1:102]:
        assert [float(v) for v in row.split(",")[1:]] == [0.0, 0.0, 0.0]
    assert lines[-2] == "c0,c_at_0,offset_ratio"
    assert [float(v) for v in lines[-1].split(",")] == [0.0, 0.0, -1.0]


def test_dynamics_csv_and_invertibility_report(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "dyn.csv"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "min |chi|" in err
    rows = read_rows(out)
    assert rows[0] == ["t", "re_chi", "im_chi", "abs_chi",
                       "re_chi_gauss", "im_chi_gauss", "abs_chi_gauss"]
    assert len(rows) == 102
    first = [float(v) for v in rows[1]]
    assert first[1] == pytest.approx(1.0, abs=1e-12)  # chi(0) = 1
    assert first[3] == pytest.approx(1.0, abs=1e-12)
    assert first[6] == pytest.approx(1.0, abs=1e-12)


def test_sweep_dephasing_rows_and_determinism(tmp_path):
    text = BASE.replace("lambda = 2.5", "lambda = 1.6,1.7").replace("beta = 1.0", "beta = 4,1")
    cfg = write_config(tmp_path, text)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(out2), "--threads", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    assert rows[0] == ["lambda", "beta", "eta", "tau_d"]
    assert len(rows) == 5  # 2 lambdas x 2 betas
    # lexicographic (lambda, beta) ordering regardless of config order
    pairs = [(float(r[0]), float(r[1])) for r in rows[1:]]
    assert pairs == sorted(pairs)


def test_sweep_parallel_matches_serial(tmp_path):
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(serial), "--threads", "1"]) == 0
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(parallel), "--threads", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def run_cli(args, blas_threads=None):
    """Run the CLI in a fresh process with OPENBLAS_NUM_THREADS set, or unset if None."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "morsebath.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_sweep_pool_bytes_with_blas_env_unset(tmp_path):
    # fig3-style sweep, d from 2 to 20; OPENBLAS_NUM_THREADS unset, 1 and 2
    text = ("k_modes = 40\neta = 2.0\nlambda = 1.6,2.6,7.5,20.1\nbeta = 1,4,7,10\n"
            "t_max = 20.0\ndt = 0.01\nthreshold = 0.1\n")
    cfg = write_config(tmp_path, text)
    outputs = set()
    for blas_threads in (None, 1, 2):
        for workers in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}_workers{workers}.csv"
            proc = run_cli(["sweep-dephasing", "--config", cfg, "--out", str(out),
                            "--threads", workers], blas_threads)
            assert proc.returncode == 0, proc.stderr
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


@pytest.mark.parametrize("beta", [1.0, 0.1])
def test_dynamics_bytes_do_not_depend_on_blas_threads(tmp_path, beta):
    # at d = 400 the eigendecompositions round differently with 2 BLAS threads than with 1;
    # at beta = 0.1 the three coupled modes keep all 400 levels, at beta = 1 every mode keeps fewer
    if cli._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter here")
    cfg = write_config(tmp_path, f"k_modes = 4\neta = 2.0\nlambda = 399.8\nbeta = {beta}\n")
    outputs = []
    for blas_threads in (2, 1):
        out = tmp_path / f"blas{blas_threads}.csv"
        proc = run_cli(["dynamics", "--config", cfg, "--out", str(out)], blas_threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.fixture
def blas_threads():
    """Getter of numpy's OpenBLAS thread count, set to 2 for the test and restored after."""
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter here")
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(saved)


def test_sweep_pool_pins_blas_and_restores_caller_count(tmp_path, monkeypatch, blas_threads):
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6,2.7").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "s.csv")
    seen = []
    lambda_rows = cli._lambda_rows

    def recording(*args):
        seen.append(blas_threads())
        return lambda_rows(*args)

    def failing(*args):
        seen.append(blas_threads())
        raise FloatingPointError("overflow in a layer")

    monkeypatch.setattr(cli, "_lambda_rows", recording)
    assert main(["sweep-dephasing", "--config", cfg, "--out", out, "--threads", "2"]) == 0
    assert seen == [1, 1, 1]
    assert blas_threads() == 2
    monkeypatch.setattr(cli, "_lambda_rows", failing)
    assert main(["sweep-dephasing", "--config", cfg, "--out", out, "--threads", "2"]) == 2
    assert seen[3:] and set(seen[3:]) == {1}  # tasks not started are cancelled
    assert blas_threads() == 2


def test_openblas_lookup_runs_once_per_process(tmp_path, monkeypatch):
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    patterns = []
    glob = cli.glob.glob
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: patterns.append(pattern) or glob(pattern))
    cli._openblas_threads.cache_clear()
    for _ in range(2):
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(tmp_path / "s.csv"),
                     "--threads", "2"]) == 0
    assert len(patterns) == 1


def test_sweep_runs_serially_without_blas_setter(tmp_path, monkeypatch):
    text = BASE.replace("lambda = 2.5", "lambda = 1.6,2.5,3.4").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    pooled = tmp_path / "pooled.csv"
    serial = tmp_path / "serial.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(pooled), "--threads", "2"]) == 0
    threads = []
    lambda_rows = cli._lambda_rows

    def recording(*args):
        threads.append(threading.get_ident())
        return lambda_rows(*args)

    monkeypatch.setattr(cli, "_lambda_rows", recording)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(serial), "--threads", "2"]) == 0
    assert threads == [threading.get_ident()] * 3
    assert serial.read_bytes() == pooled.read_bytes()


@pytest.mark.parametrize("config", [
    "k_modes = 40\neta = 0.01\nlambda = 399.8\nbeta = 1\n",
    "k_modes = 40\neta = 0.01\nlambda = 399.8\nbeta = 4\n",
    "configs/demo_dynamics.cfg",
], ids=["harmonic-beta1", "harmonic-beta4", "demo"])
def test_dynamics_bytes_across_worker_counts(config, tmp_path, monkeypatch):
    if config.endswith(".cfg"):
        cfg = os.path.join(ROOT, config)
    else:
        cfg = write_config(tmp_path, config)
    block_threads = []
    block_factors = dynamics._block_factors

    def recording(*args):
        block_threads.append(threading.get_ident())
        return block_factors(*args)

    monkeypatch.setattr(dynamics, "_block_factors", recording)
    blas = cli._openblas_threads()
    outputs = set()
    for workers in ("1", "2", "3"):
        out = tmp_path / f"workers{workers}.csv"
        block_threads.clear()
        assert main(["dynamics", "--config", cfg, "--out", str(out), "--threads", workers]) == 0
        outputs.add(out.read_bytes())
        # pooled, no block runs in the calling thread; serial, every block does
        serial = workers == "1" or blas is None
        assert block_threads
        assert all((ident == threading.get_ident()) == serial for ident in block_threads)
    # without the BLAS setter the blocks run in the calling thread; BLAS is pinned here
    # instead of in main, so that only the pool changes
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    if blas is not None:
        get_threads, set_threads = blas
        saved = get_threads()
        set_threads(1)
    block_threads.clear()
    try:
        out = tmp_path / "serial.csv"
        assert main(["dynamics", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    finally:
        if blas is not None:
            set_threads(saved)
    outputs.add(out.read_bytes())
    assert block_threads and set(block_threads) == {threading.get_ident()}
    assert len(outputs) == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_dynamics_block_failure_exits_2_and_stops_the_pool(workers, tmp_path, monkeypatch,
                                                           capsys):
    cfg = write_config(tmp_path, "k_modes = 8\neta = 0.01\nlambda = 50.3\nbeta = 4\n")
    out = tmp_path / "d.csv"
    calls = itertools.count()
    phase_sum = kernels.phase_sum

    def failing_once(*args, **kwargs):
        if next(calls) == 3:
            raise FloatingPointError("overflow in a layer")
        return phase_sum(*args, **kwargs)

    monkeypatch.setattr(kernels, "phase_sum", failing_once)
    before = set(threading.enumerate())
    assert main(["dynamics", "--config", cfg, "--out", str(out), "--threads", workers]) == 2
    err = capsys.readouterr().err
    assert "error: dynamics point lambda = 50.3, beta = 4: FloatingPointError" in err
    assert not out.exists()
    assert set(threading.enumerate()) == before


def test_cli_import_loads_no_process_pool_or_integrator():
    code = ("import sys, morsebath.cli; "
            "print(sorted(m for m in ('multiprocessing', 'scipy.integrate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_root_exports_resolve_once():
    import morsebath

    assert len(set(morsebath.__all__)) == len(morsebath.__all__)
    for name in morsebath.__all__:
        assert hasattr(morsebath, name), name


SLAB_BASE = BASE.replace("t_max = 5.0", "t_max = 10.0").replace("dt = 0.05", "dt = 0.01")
SLAB_ROWS = 32  # B = ceil(sqrt(1001)) grid points per block row of SLAB_BASE's grid


def full_grid_dephasing(text):
    """tau_d rows and sweep-dephasing bytes from the whole-grid chi_traces of every point."""
    cfg = parse_config_text(text)
    times = dynamics.time_grid(cfg.t_max, cfg.dt)
    betas = sorted(cfg.betas)
    taus, lines = [], ["lambda,beta,eta,tau_d"]
    for lam in sorted(cfg.lambdas):
        bath = cli.bath_arrays(cli._bath_config(cfg, lam, betas[0]), betas)
        for beta, trace in zip(betas, dynamics.chi_traces(bath, cli._system(cfg), times)):
            tau = observables.dephasing_time(trace, cfg.rho0, threshold=cfg.threshold)
            taus.append(cli.UNDEFINED if tau is None else tau)
            lines.append(",".join(cli._fmt(x) for x in (lam, beta, cfg.eta, taus[-1])))
    return taus, cli._csv_text(lines).encode()


def assert_sweep_dephasing_bytes(tmp_path, text, expected):
    cfg = write_config(tmp_path, text)
    for workers in ("1", "2"):
        out = tmp_path / f"tau{workers}.csv"
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(out),
                     "--threads", workers]) == 0
        assert out.read_bytes() == expected


@pytest.mark.parametrize("case, changes", [
    ("all-cross-early", {"lambda = 2.5": "lambda = 1.6,2.5,4.2", "beta = 1.0": "beta = 1,4,10",
                         "k_modes = 8": "k_modes = 40"}),
    ("some-never-cross", {"lambda = 2.5": "lambda = 1.6,2.5,4.2,6.1",
                          "beta = 1.0": "beta = 1,4,10", "eta = 2.0": "eta = 0.01"}),
    ("betas-cross-in-different-slabs", {"lambda = 2.5": "lambda = 2.5,4.2",
                                        "beta = 1.0": "beta = 1,4,10", "eta = 2.0": "eta = 0.5"}),
    ("one-beta", {"lambda = 2.5": "lambda = 2.5,3.3", "beta = 1.0": "beta = 7"}),
])
def test_sweep_dephasing_equals_full_grid_rows(case, changes, tmp_path, one_blas_thread):
    # the sweep stops each lambda at the slab where every beta has crossed; its bytes
    # must be those of the whole-grid traces.  Every lambda evaluates its first slab
    # (rows 0 to 3) on its own; in some-never-cross some lambdas go on to the end of
    # the grid, and in betas-cross-in-different-slabs the first slab holds some
    # crossings but not all
    text = SLAB_BASE
    for old, new in changes.items():
        text = text.replace(old, new)
    taus, expected = full_grid_dephasing(text)
    first_slab_end = 4 * SLAB_ROWS * 0.01
    if case == "some-never-cross":
        assert cli.UNDEFINED in taus and max(taus) > 0.0
    elif case == "betas-cross-in-different-slabs":
        assert 0.0 < min(taus) < first_slab_end < max(taus)
    else:
        assert 0.0 < min(taus) and max(taus) < first_slab_end
    assert_sweep_dephasing_bytes(tmp_path, text, expected)


def test_sweep_dephasing_takes_whole_traces_where_blas_cannot_be_pinned(tmp_path,
                                                                       monkeypatch):
    # a slab rounds as the whole grid only with BLAS on one thread; without a way to pin
    # it, the sweep computes every trace on the whole grid, as every other sweep does
    def no_slabs(*args):
        raise AssertionError("chi_until_crossed called with BLAS unpinned")

    text = SLAB_BASE.replace("lambda = 2.5", "lambda = 1.6,2.5").replace("beta = 1.0",
                                                                         "beta = 1,4,10")
    _, expected = full_grid_dephasing(text)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    monkeypatch.setattr(cli, "chi_until_crossed", no_slabs)
    assert_sweep_dephasing_bytes(tmp_path, text, expected)


@pytest.mark.parametrize("row", [1, 2, 4])
def test_sweep_dephasing_crossing_at_a_block_row_start(row, tmp_path, one_blas_thread):
    # |chi| falls monotonically here; a threshold halfway between |chi| at j = row B - 1
    # and j = row B puts the first crossing at the first point of block row `row`, and
    # the interpolation reads the last point of the row before; row 4 starts the second
    # slab
    text = SLAB_BASE.replace("eta = 2.0", "eta = 0.2").replace("beta = 1.0", "beta = 4")
    cfg = parse_config_text(text)
    bath = cli.bath_arrays(cli._bath_config(cfg, 2.5, 4.0), [4.0])
    times = dynamics.time_grid(cfg.t_max, cfg.dt)
    trace, = dynamics.chi_traces(bath, cli._system(cfg), times)
    j = row * SLAB_ROWS
    above, below = (float(x) for x in np.abs(trace.chi[j - 1:j + 1]))
    text += f"threshold = {0.5 * (above + below)!r}\n"
    (tau,), expected = full_grid_dephasing(text)
    assert np.abs(trace.chi[:j]).min() == above > 0.5 * (above + below) > below
    assert times[j - 1] < tau < times[j]
    assert_sweep_dephasing_bytes(tmp_path, text, expected)


def test_sweep_dephasing_sentinel_when_no_decay(tmp_path):
    text = BASE.replace("eta = 2.0", "eta = 0.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "s.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[1][3]) == -1.0


def test_sweep_backflow_csv(tmp_path):
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6").replace("eta = 2.0", "eta = 0.01")
    cfg = write_config(tmp_path, text.replace("beta = 1.0", "beta = 7"))
    out = tmp_path / "flow.csv"
    assert main(["sweep-backflow", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["lambda", "beta", "eta", "n_minus", "n_plus", "ratio"]
    assert len(rows) == 3
    for row in rows[1:]:
        n_minus, n_plus = float(row[3]), float(row[4])
        assert n_minus >= 0.0 and n_plus >= 0.0


def test_gaussian_error_csv_with_pointwise(tmp_path):
    # lambda = 3.1, beta = 1 starts from e_chi = 0 exactly; others hold e_chi < 1e-15
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,3.1").replace("beta = 1.0", "beta = 1,7")
    pointwise = tmp_path / "pointwise.csv"
    cfg = write_config(tmp_path, text + f"pointwise_out = {pointwise}\n")
    points = cli._run_sweep("gaussian-error", parse_config_text(text), 1)
    values = np.concatenate([point[3] for point in points])
    assert (values == 0.0).any() and ((values > 0.0) & (values < 1e-15)).any()
    times = dynamics.time_grid(5.0, 0.05)
    reference = "lambda,beta,eta,t,e_chi\n" + "".join(
        f"{cli._fmt(lam)},{cli._fmt(beta)},{cli._fmt(2.0)},{cli._fmt(t)},{cli._fmt(e)}\n"
        for lam, beta, _, errors in points for t, e in zip(times, errors))
    summaries = []
    for workers in ("1", "2"):
        out = tmp_path / f"gauss{workers}.csv"
        pointwise.unlink(missing_ok=True)
        assert main(["gaussian-error", "--config", cfg, "--out", str(out),
                     "--threads", workers]) == 0
        assert pointwise.read_bytes() == reference.encode()
        summaries.append(out.read_bytes())
    assert summaries[0] == summaries[1]
    rows = read_rows(out)
    assert rows[0] == ["lambda", "beta", "eta", "time_avg_error"]
    assert len(rows) == 5
    assert all(float(row[3]) >= 0.0 for row in rows[1:])


@pytest.mark.parametrize("command", ["sweep-dephasing", "gaussian-error"])
@pytest.mark.parametrize("path", ["/nonexistent/dir/x.csv", "/dev/full"])
def test_unwritable_output_exits_2_naming_the_path(command, path, tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, BASE)
    if path.startswith("/nonexistent/"):  # found before any point is computed
        monkeypatch.setattr(cli, "_sweep_point", lambda *args: pytest.fail("a point was computed"))
    assert main([command, "--config", cfg, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert not os.path.exists(path) or path == "/dev/full"


@pytest.mark.parametrize("path", ["/nonexistent/dir/pw.csv", "/dev/full", "{tmp}"])
def test_unwritable_pointwise_out_exits_2_naming_the_path(path, tmp_path, capsys, monkeypatch):
    # a missing directory is found before the sweep; a directory as the path fails at its
    # open, after the sweep, and /dev/full at its write; none leaves a summary file
    path = path.format(tmp=tmp_path)
    cfg = write_config(tmp_path, BASE + f"pointwise_out = {path}\n")
    out = tmp_path / "gauss.csv"
    if path.startswith("/nonexistent/"):
        monkeypatch.setattr(cli, "_sweep_point", lambda *args: pytest.fail("a point was computed"))
    assert main(["gaussian-error", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert not out.exists()


def test_oracle_check_passes(tmp_path, capsys):
    text = BASE.replace("k_modes = 8", "k_modes = 2")
    cfg = write_config(tmp_path, text)
    assert main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_oracle_check_rejects_large_k(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["oracle-check", "--config", cfg]) == 2
    assert "k_modes" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["bath", "--config", "/nonexistent/x.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_scientific_notation_everywhere(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "dyn.csv"
    main(["dynamics", "--config", cfg, "--out", str(out)])
    for row in read_rows(out)[1:]:
        for field in row:
            assert SCI.match(field), field


def test_sweep_failure_names_lambda_and_betas(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in a layer")

    monkeypatch.setattr(cli, "dephasing_time", broken)
    text = BASE.replace("lambda = 2.5", "lambda = 2.6,1.6").replace("beta = 1.0", "beta = 4,1")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "s.csv"
    for workers in ("1", "2"):
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(out),
                     "--threads", workers]) == 2
        err = capsys.readouterr().err
        assert "lambda = 1.6, beta = 1, 4" in err
        assert "FloatingPointError: overflow in a layer" in err
        assert not out.exists()
