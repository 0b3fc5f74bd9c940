import itertools
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest

from morsebath import cli, config, dynamics, kernels, observables, oracle, runner
from morsebath.cli import main
from morsebath.config import ConfigError, parse_config_text
from helpers import sweep_rows

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


def exit_code(argv):
    """The status of main, returned or, for an argument argparse rejects, exited with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_parsing_defaults_and_ranges():
    cfg = parse_config_text("eta = 2\nlambda = 1.6:2.0:0.1\nbeta = 1,4\n")
    assert cfg.k_modes == 40 and cfg.omega_c == 1.0 and cfg.omega_s == 2.0
    assert cfg.t_max == 20.0 and cfg.dt == 0.01
    np.testing.assert_allclose(cfg.lambdas, [1.6, 1.7, 1.8, 1.9, 2.0])
    assert cfg.betas == (1.0, 4.0)
    # 1.999999 lies 1e-6 short of the grid point 2.0, far less than half a step, and
    # ends the range at 1.9; 0.1 + 3 * 0.2 rounds past the stop 0.7 by far less than
    # 1e-9 of a step, and is kept
    short = parse_config_text("eta = 2\nlambda = 1:1.999999:0.1\nbeta = 1\n").lambdas
    assert len(short) == 10 and short[-1] == 1.0 + 9 * 0.1
    past = parse_config_text("eta = 2\nlambda = 2.5\nbeta = 0.1:0.7:0.2\n").betas
    assert len(past) == 4 and past[-1] == 0.7000000000000001 > 0.7


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
    with pytest.raises(ConfigError, match=re.escape("field lambda: repeated value 2.6")):
        parse_config_text("eta = 2\nlambda = 2.6,2.6\nbeta = 4\n")
    with pytest.raises(ConfigError, match=re.escape("field beta: repeated value 4.0")):
        parse_config_text("eta = 2\nlambda = 2.6\nbeta = 4,1,4\n")


def test_repeated_lambda_exits_2_naming_the_file(tmp_path, capsys):
    # computed lam = 2.6 twice and wrote four identical rows
    cfg = write_config(tmp_path, "k_modes = 3\neta = 2\nlambda = 2.6,2.6\nbeta = 4,4\n")
    out = tmp_path / "s.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: field lambda: repeated value 2.6\n"
    assert not out.exists()


@pytest.mark.parametrize("k_modes, message", [
    ("100000000000000000000000", "k_modes must be < 2**60, got 100000000000000000000000"),
    ("9223372036854775807", "k_modes must be < 2**60, got 9223372036854775807"),
    ("-100000000000000000000000", "field k_modes: must be >= 1, got -100000000000000000000000"),
], ids=["1e23", "2**63-1", "-1e23"])
def test_k_modes_past_int64_exits_2_with_an_error_line(k_modes, message, tmp_path, capsys):
    # 10**23 crashed the finite check with a TypeError traceback (exit 1), and 2**63 - 1
    # gave np.arange no points, so `bath` wrote a table of no modes (exit 0)
    cfg = write_config(tmp_path, BASE.replace("k_modes = 8", f"k_modes = {k_modes}"))
    assert main(["bath", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


# a valid value of every config key
KEY_VALUES = {"eta": "2", "lambda": "2.5", "beta": "1,4", "k_modes": "8", "omega_c": "1",
              "omega_s": "2", "t_max": "5", "dt": "0.05", "threshold": "0.2",
              "pointwise_out": "e.csv"}


@pytest.mark.parametrize("key", sorted(config._KEYS))
def test_every_key_given_twice_is_rejected(key):
    lines = [f"{key} = {KEY_VALUES[key]}"]
    lines += [f"{other} = {KEY_VALUES[other]}" for other in ("eta", "lambda", "beta") if other != key]
    lines += [f"{key} = {KEY_VALUES[key]}"]
    with pytest.raises(ConfigError, match=re.escape(
            f"line {len(lines)}: duplicate key {key!r} (first set on line 1)")):
        parse_config_text("\n".join(lines) + "\n")


def test_readme_configuration_table_lists_the_config_keys():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    keys = {key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])}
    assert keys == set(config._KEYS)


def test_config_rejects_second_order_phase_key(tmp_path, capsys):
    # the Gaussian surrogate has one phase convention; the key that chose another is gone
    with pytest.raises(ConfigError, match="line 3: unknown key 'gauss_second_order_phase'"):
        parse_config_text("eta = 2\nlambda = 2.5\ngauss_second_order_phase = true\nbeta = 1\n")
    # pure dephasing scales the one coherence by chi, so the initial state is no setting
    cfg = write_config(tmp_path, "eta = 2\nlambda = 2.5\nrho0 = 0.5,0.25,0.25,0.5\nbeta = 1\n")
    assert main(["dynamics", "--config", cfg]) == 2
    assert "line 3: unknown key 'rho0'" in capsys.readouterr().err


def test_configs_compare_and_hash_by_value():
    text = "eta = 2\nlambda = 1.6:2.0:0.1\nbeta = 1,4\npointwise_out = e.csv\n"
    assert parse_config_text(text) == parse_config_text(text)
    assert hash(parse_config_text(text)) == hash(parse_config_text(text))
    assert parse_config_text(text) != parse_config_text(text.replace("eta = 2", "eta = 3"))


@pytest.mark.parametrize("field, value", [
    ("omega_s", "nan"),  # wrote nan rows and exited 0
    ("t_max", "inf"),  # ended in an OverflowError traceback
    ("eta", "nan"),  # failed inside eigh
    ("eta", "inf"),
    ("omega_c", "inf"),
    ("dt", "nan"),
    ("threshold", "nan"),
    ("lambda", "2.5,inf"),
    ("lambda", "1.6:inf:0.1"),
    ("beta", "1,nan"),
])
def test_non_finite_config_values_exit_2_naming_the_field(field, value, tmp_path, capsys):
    lines = [line for line in BASE.splitlines() if not line.startswith(f"{field} =")]
    cfg = write_config(tmp_path, "\n".join(lines + [f"{field} = {value}"]) + "\n")
    out = tmp_path / "d.csv"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"field {field}:" in err and "must be finite" in err
    assert not out.exists()


# superscript digits pass str.isdigit but not int: argparse then named the private
# _worker_count in place of this message
@pytest.mark.parametrize("value", ["0", "-2", "\u00b2", "\u00b9"])
def test_threads_below_one_exit_2_at_parse_time(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "parse_config", lambda *args: pytest.fail("command ran"))
    cfg = write_config(tmp_path, BASE)
    for command in ("sweep-dephasing", "dynamics"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", cfg, "--threads", value])
        assert exit_info.value.code == 2
        assert f"--threads: need an integer >= 1, got {value!r}" in capsys.readouterr().err


def test_threads_of_other_decimal_digits_parse():
    args = cli.build_parser().parse_args(["dynamics", "--config", "run.cfg", "--threads", "\u0663"])
    assert args.threads == 3


@pytest.mark.parametrize("field, value, message", [
    ("omega_c", "0", "field omega_c: must be positive, got 0.0"),
    ("eta", "-0.5", "field eta: must be >= 0, got -0.5"),
    ("beta", "0", "field beta: entries must be positive, got 0.0"),
    ("t_max", "-1", "field t_max: must be positive, got -1.0"),
    ("threshold", "0", "field threshold: must lie in (0, 1), got 0.0"),
    ("threshold", "1", "field threshold: must lie in (0, 1), got 1.0"),
    ("lambda", "2.5:3", "line {line}: field lambda: range must be start:stop:step"),
    ("lambda", "2.5:3:0", "line {line}: field lambda: need step > 0 and stop >= start"),
    ("beta", "4:1:1", "line {line}: field beta: need step > 0 and stop >= start"),
    (None, "k_modes 8", "line {line}: expected 'key = value', got 'k_modes 8'"),
])
def test_config_errors_exit_2_naming_the_field(field, value, message, tmp_path, capsys):
    lines = [line for line in BASE.splitlines() if field is None or not line.startswith(f"{field} =")]
    lines.append(value if field is None else f"{field} = {value}")
    cfg = write_config(tmp_path, "\n".join(lines) + "\n")
    assert main(["bath", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}: {message.format(line=len(lines))}\n"


def test_empty_lambda_or_beta_list_is_rejected():
    # no config text gives an empty list: a direct construction does
    with pytest.raises(ConfigError, match="field lambda: empty grid"):
        config.ExperimentConfig(eta=1.0, lambdas=(), betas=(1.0,))
    with pytest.raises(ConfigError, match="field beta: empty list"):
        config.ExperimentConfig(eta=1.0, lambdas=(2.5,), betas=())


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
    assert exit_code(["spectrum", "--lambda", "2.5", "--omega", omega]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "omega" in err


@pytest.mark.parametrize("argv, flag", [
    (["--lambda", "inf"], "--lambda"),  # ended in an OverflowError traceback
    (["--lambda", "nan"], "--lambda"),
    (["--lambda", "abc"], "--lambda"),
    (["--lambda", "2.5", "--omega", "inf"], "--omega"),  # exited 0 with -inf energies
    (["--lambda", "2.5", "--omega=-inf"], "--omega"),
], ids=["lambda-inf", "lambda-nan", "lambda-abc", "omega-inf", "omega-minus-inf"])
def test_spectrum_rejects_non_finite_flags_at_parse_time(argv, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["spectrum", *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: need a finite number" in captured.err


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
    rows = read_rows(out)
    # the invertibility proxy is the least value of the abs_chi column
    assert err == f"min |chi| = {min((row[3] for row in rows[1:]), key=float)}\n"
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


def test_tau_d_in_the_first_time_step_is_named_on_stderr(tmp_path, capsys):
    # just above lam = 5/2 the crossing falls inside the first step at dt = 0.01 (at
    # dt = 1e-3 it lies at 0.00228): the line names that point only, the CSV is as before
    text = ("k_modes = 40\nomega_c = 1.0\neta = 2.0\nlambda = 2.501,2.6\nbeta = 1\n"
            "omega_s = 2.0\nt_max = 20.0\ndt = 0.01\n")
    out = tmp_path / "tau.csv"
    argv = ["sweep-dephasing", "--config", write_config(tmp_path, text), "--out", str(out),
            "--threads", "1"]
    assert main(argv) == 0
    rows = read_rows(out)
    assert rows[1] == ["2.50100000000e+00", "1.00000000000e+00", "2.00000000000e+00",
                       "9.00000039930e-03"]
    assert float(rows[2][3]) > 0.1
    assert capsys.readouterr().err.splitlines() == [
        "warning: lambda = 2.501, beta = 1: tau_d = 9.00000039930e-03 falls in the first "
        "time step (t_1 = 1.00000000000e-02) and is interpolated from t = 0; check it at a "
        "smaller dt"]


def test_first_step_guard_is_silent_on_the_fig3_config(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    argv = ["sweep-dephasing", "--config", os.path.join(ROOT, "configs", "fig3_dephasing.cfg"),
            "--out", str(out), "--threads", "1"]
    assert main(argv) == 0
    taus = [float(row[3]) for row in read_rows(out)[1:]]
    assert len(taus) == 240 and min(taus) > 0.1
    assert capsys.readouterr().err == ""


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
    if runner.openblas_threads() is None:
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
    blas = runner.openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread-count setter here")
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(saved)


def test_sweep_pool_pins_blas_and_restores_caller_count(tmp_path, monkeypatch, blas_threads):
    # a lambda may run in a forked worker, whose memory the caller never sees, so
    # each records its OpenBLAS thread count in a file of its own
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6,2.7").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    out = str(tmp_path / "s.csv")
    records = tmp_path / "records"
    lambda_rows = cli._lambda_rows

    def record(lam):
        (records / f"{lam}-{os.getpid()}").write_text(str(blas_threads()))

    def seen():
        return sorted(int(path.read_text()) for path in records.iterdir())

    def recording(command, cfg, lam, betas):
        record(lam)
        return lambda_rows(command, cfg, lam, betas)

    def failing(command, cfg, lam, betas):
        record(lam)
        raise FloatingPointError("overflow in a layer")

    records.mkdir()
    monkeypatch.setattr(cli, "_lambda_rows", recording)
    assert main(["sweep-dephasing", "--config", cfg, "--out", out, "--threads", "2"]) == 0
    assert seen() == [1, 1, 1]
    assert len({path.name.split("-")[1] for path in records.iterdir()}) == 2  # two processes
    assert blas_threads() == 2
    for path in records.iterdir():
        path.unlink()
    monkeypatch.setattr(cli, "_lambda_rows", failing)
    assert main(["sweep-dephasing", "--config", cfg, "--out", out, "--threads", "2"]) == 2
    assert seen() == [1, 1]  # each of the two shares stops at its first failure
    assert blas_threads() == 2
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The calls of os.fork made during the test, counted in the calling process."""
    if runner.openblas_threads() is None:
        pytest.skip("sweeps fork only where numpy's bundled OpenBLAS can be pinned")
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


# 5 lambdas: at 3 workers the shares are [1.6, 4.2] here, [2.5, 7.4] and [3.4]
# in two children; at 2 workers [1.6, 3.4, 7.4] here and [2.5, 4.2] in one
FIVE_LAMBDAS = BASE.replace("lambda = 2.5", "lambda = 3.4,1.6,2.5,7.4,4.2").replace(
    "beta = 1.0", "beta = 4,1")


@pytest.mark.parametrize("command", list(cli._SWEEPS))
def test_sweep_bytes_across_forked_worker_counts(command, tmp_path, forks):
    outputs = set()
    for workers in (1, 2, 3):
        pointwise = tmp_path / f"pointwise{workers}.csv"
        text = FIVE_LAMBDAS + (f"pointwise_out = {pointwise}\n" if command == "gaussian-error"
                               else "")
        cfg = write_config(tmp_path, text, name=f"workers{workers}.cfg")
        out = tmp_path / f"workers{workers}.csv"
        forks.clear()
        assert main([command, "--config", cfg, "--out", str(out),
                     "--threads", str(workers)]) == 0
        assert len(forks) == workers - 1
        outputs.add((out.read_bytes(), pointwise.read_bytes() if pointwise.exists() else None))
        assert_no_child_left()
    assert len(outputs) == 1
    (table, pointwise), = outputs
    assert len(table.splitlines()) == 11
    assert (pointwise is None) == (command != "gaussian-error")


def test_sweep_rows_are_keyed_by_the_command():
    cfg = parse_config_text(BASE)
    for command, columns in cli._SWEEPS.items():
        row, = cli._lambda_rows(command, cfg, 2.5, [1.0])
        assert row[:2] == (2.5, 1.0)
        # gaussian-error's rows also carry the pointwise error
        assert len(row) == 2 + len(columns) + (command == "gaussian-error")
    with pytest.raises(ValueError, match="unknown sweep command 'dephasing'"):
        cli._lambda_rows("dephasing", cfg, 2.5, [1.0])


@pytest.mark.parametrize("failing", [{3.4, 4.2}, {4.2, 7.4}, {2.5}])
def test_sweep_failure_names_the_smallest_failing_lambda_at_every_worker_count(
        failing, tmp_path, monkeypatch, capsys, forks):
    # {3.4, 4.2} fails first in a child at 3 workers and here at 2, {4.2, 7.4} the
    # other way round, {2.5} only in a child
    cfg = write_config(tmp_path, FIVE_LAMBDAS)
    out = tmp_path / "s.csv"
    lambda_rows = cli._lambda_rows

    def broken(command, cfg, lam, betas):
        if lam in failing:
            raise FloatingPointError(f"overflow at {lam}")
        return lambda_rows(command, cfg, lam, betas)

    monkeypatch.setattr(cli, "_lambda_rows", broken)
    smallest = min(failing)
    for workers in ("1", "2", "3"):
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(out),
                     "--threads", workers]) == 2
        assert capsys.readouterr().err == (f"error: sweep point lambda = {smallest}, "
                                           f"beta = 1, 4: FloatingPointError: overflow at "
                                           f"{smallest}\n")
        assert not out.exists()
        assert_no_child_left()
    assert len(forks) == 3


def test_sweep_worker_killed_by_a_signal_exits_2_naming_its_lambda(tmp_path, monkeypatch,
                                                                   capsys, forks):
    text = BASE.replace("lambda = 2.5", "lambda = 1.6,2.5,3.4").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "s.csv"
    caller = os.getpid()
    lambda_rows = cli._lambda_rows

    def killed(command, cfg, lam, betas):
        if lam == 2.5:  # the child's share is [2.5]
            assert os.getpid() != caller
            os.kill(os.getpid(), signal.SIGKILL)
        return lambda_rows(command, cfg, lam, betas)

    monkeypatch.setattr(cli, "_lambda_rows", killed)
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(out), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep worker of lambda = 2.5 ") and "wait status" in err
    assert not out.exists()
    assert len(forks) == 1
    assert_no_child_left()


def test_interrupted_sweep_kills_and_reaps_its_workers(tmp_path, monkeypatch, forks):
    text = BASE.replace("lambda = 2.5", "lambda = 1.6,2.5").replace("beta = 1.0", "beta = 1,4")
    caller = os.getpid()

    def stuck(command, cfg, lam, betas):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cli, "_lambda_rows", stuck)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        sweep_rows("sweep-dephasing", parse_config_text(text), 2)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


def test_sweep_does_not_fork_while_another_thread_is_alive(tmp_path, forks):
    cfg = write_config(tmp_path, FIVE_LAMBDAS)
    serial = tmp_path / "serial.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(serial), "--threads", "1"]) == 0
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        out = tmp_path / "threaded.csv"
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 0
    finally:
        release.set()
        waiting.join()
    assert forks == []
    assert out.read_bytes() == serial.read_bytes()


def stub_fork(message):
    """An os.fork that warns message as a DeprecationWarning and returns 4242; it forks nothing."""
    def fork():
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return 4242
    return fork


@pytest.mark.filterwarnings("error")
def test_fork_ignores_only_the_multithreaded_fork_warning(monkeypatch):
    # the warning of Python >= 3.12, whose fork counts OpenBLAS's idle threads
    monkeypatch.setattr(os, "fork", stub_fork("This process (pid=1) is multi-threaded, "
                                              "use of fork() may lead to deadlocks in the child."))
    assert runner._fork() == 4242
    monkeypatch.setattr(os, "fork", stub_fork("fork() is deprecated"))
    with pytest.raises(DeprecationWarning, match=re.escape("fork() is deprecated")):
        runner._fork()


def test_worker_count_never_exceeds_the_lambda_count(tmp_path, forks):
    text = BASE.replace("lambda = 2.5", "lambda = 1.6,2.5,3.4").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "s.csv"
    assert main(["sweep-dephasing", "--config", cfg, "--out", str(out), "--threads", "1000"]) == 0
    assert forks == [os.getpid()] * 2
    assert_no_child_left()


def test_console_main_freezes_the_collector_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    assert cli.console_main() == 3
    assert calls == ["main", "freeze"]


def fake_mallopt(monkeypatch, results=None):
    """Serve ``ctypes.CDLL(None)`` as a C library whose mallopt returns the results in turn.

    With results None the library has no mallopt.  Returns the (param, value) calls.
    """
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return results[len(calls) - 1]

    libc = types.SimpleNamespace() if results is None else types.SimpleNamespace(mallopt=mallopt)
    cdll = runner.ctypes.CDLL
    monkeypatch.setattr(runner.ctypes, "CDLL",
                        lambda name, *args, **kwargs: libc if name is None else
                        cdll(name, *args, **kwargs))
    return calls


# glibc's M_MMAP_THRESHOLD = -3 at 32 MiB, then M_TRIM_THRESHOLD = -1 at 1 GiB
BOTH_SETTINGS = [(-3, 32 << 20), (-1, 1 << 30)]


@pytest.mark.parametrize("results, took, calls", [
    ([1, 1], True, BOTH_SETTINGS),
    ([0], False, BOTH_SETTINGS[:1]),  # the trim threshold is not set alone
    ([1, 0], False, BOTH_SETTINGS),
], ids=["both", "mmap-refused", "trim-refused"])
def test_keep_heap_sets_both_thresholds_in_one_call(results, took, calls, monkeypatch):
    made = fake_mallopt(monkeypatch, results)
    assert runner.keep_heap() is took
    assert made == calls


def test_keep_heap_takes_on_glibc():
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("not a glibc process")
    assert runner.keep_heap() is True


def test_gaussian_error_bytes_without_mallopt(tmp_path, monkeypatch):
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,3.1").replace("beta = 1.0", "beta = 1,7")
    outputs = []
    for side in ("glibc", "no-mallopt"):
        if side == "no-mallopt":
            fake_mallopt(monkeypatch)
            assert runner.keep_heap() is False
        cfg = write_config(tmp_path, text + f"pointwise_out = {tmp_path / side}.pw\n", side)
        out = tmp_path / f"{side}.csv"
        assert main(["gaussian-error", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{side}.pw").read_bytes()))
    assert outputs[0] == outputs[1]


def test_a_sweep_keeps_the_heap_once_before_its_first_point(tmp_path, monkeypatch, capsys):
    # the heap setting pays only across the lambdas of a sweep; at one dynamics point it
    # raised the peak RSS
    events = []
    monkeypatch.setattr(runner, "keep_heap", lambda: events.append("keep heap") or True)
    sweep_point = cli._sweep_point
    monkeypatch.setattr(cli, "_sweep_point",
                        lambda *args: events.append("point") or sweep_point(*args))
    sweep = write_config(tmp_path, BASE.replace("lambda = 2.5", "lambda = 2.5,2.6"))
    assert main(["sweep-dephasing", "--config", sweep, "--out", str(tmp_path / "s.csv"),
                 "--threads", "1"]) == 0
    assert events == ["keep heap", "point", "point"]
    events.clear()
    assert main(["spectrum", "--lambda", "2.6", "--out", str(tmp_path / "spectrum.csv")]) == 0
    assert main(["dynamics", "--config", write_config(tmp_path, BASE, "point.cfg"),
                 "--out", str(tmp_path / "dynamics.csv")]) == 0
    assert events == []


def test_openblas_lookup_runs_once_per_process(tmp_path, monkeypatch):
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6").replace("beta = 1.0", "beta = 1,4")
    cfg = write_config(tmp_path, text)
    patterns = []
    glob = runner.glob.glob
    monkeypatch.setattr(runner.glob, "glob",
                        lambda pattern: patterns.append(pattern) or glob(pattern))
    runner.openblas_threads.cache_clear()
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
    monkeypatch.setattr(runner, "openblas_threads", lambda: None)
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

    def recording(task):
        def run(*args):
            block_threads.append(threading.get_ident())
            return task(*args)
        return run

    # a block's tasks: its term build, then its phase sum
    for name in ("_block_terms", "_slab_factors"):
        monkeypatch.setattr(dynamics, name, recording(getattr(dynamics, name)))
    blas = runner.openblas_threads()
    outputs = set()
    for workers in ("1", "2", "3"):
        out = tmp_path / f"workers{workers}.csv"
        block_threads.clear()
        assert main(["dynamics", "--config", cfg, "--out", str(out), "--threads", workers]) == 0
        outputs.add(out.read_bytes())
        # pooled, no block runs in the calling thread; at one worker every block runs on one thread
        assert block_threads and threading.get_ident() not in block_threads
        if workers == "1" or blas is None:
            assert len(set(block_threads)) == 1
    # without the BLAS setter every block runs on one thread; BLAS is pinned here,
    # before the setter is hidden from main, so that only the pool changes
    block_threads.clear()
    with runner.one_blas_thread():
        monkeypatch.setattr(runner, "openblas_threads", lambda: None)
        out = tmp_path / "serial.csv"
        assert main(["dynamics", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    outputs.add(out.read_bytes())
    assert block_threads and threading.get_ident() not in block_threads
    assert len(set(block_threads)) == 1
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


def test_benchmark_imports_and_tracer_wraps_resolve(tmp_path):
    # the benchmark's modules import names from the package and its tracer wraps the
    # CLI's per-point function; all of them must resolve, and nothing is written there
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import run, checks, tracer, host_noise, morsebath.cli as cli; "
            "tracer.install(tracer.Tracer()); print(hasattr(cli._sweep_point, '__wrapped__'))")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "morsebench")],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


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
    taus, lines = [], ["lambda,beta,eta,tau_d\n"]
    for lam in sorted(cfg.lambdas):
        bath = cli._bath(cfg, lam, betas)
        for beta, chi in zip(betas, dynamics.chi_traces(bath, cfg.omega_s, times)):
            tau = observables.dephasing_time(times, chi, threshold=cfg.threshold)
            taus.append(-1.0 if tau is None else tau)
            lines.append(f"{lam:.11e},{beta:.11e},{cfg.eta:.11e},{taus[-1]:.11e}\n")
    return taus, "".join(lines).encode()


def assert_sweep_dephasing_bytes(tmp_path, text, expected):
    cfg = write_config(tmp_path, text)
    for workers in ("1", "2"):
        out = tmp_path / f"tau{workers}.csv"
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(out),
                     "--threads", workers]) == 0
        assert out.read_bytes() == expected


ALL_CROSS_EARLY = {"lambda = 2.5": "lambda = 1.6,2.5,4.2", "beta = 1.0": "beta = 1,4,10",
                   "k_modes = 8": "k_modes = 40"}


@pytest.mark.parametrize("case, changes", [
    ("all-cross-early", ALL_CROSS_EARLY),
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


def test_sweep_dephasing_stops_at_the_first_slab_where_blas_cannot_be_pinned(monkeypatch):
    # without a way to pin BLAS the sweep still passes its threshold: every lambda of
    # this config stops after its first slab.  A slab rounds as the whole grid only with
    # BLAS on one thread, so here tau_d equals the whole-grid values to rounding
    text = SLAB_BASE
    for old, new in ALL_CROSS_EARLY.items():
        text = text.replace(old, new)
    taus, _ = full_grid_dephasing(text)
    first = kernels.row_slabs(dynamics.time_grid(10.0, 0.01))[0]
    slabs = []
    phase_sum = kernels.phase_sum

    def recording(*args, **kwargs):
        slabs.append(kwargs.get("slab"))
        return phase_sum(*args, **kwargs)

    monkeypatch.setattr(runner, "openblas_threads", lambda: None)
    monkeypatch.setattr(kernels, "phase_sum", recording)
    rows = sweep_rows("sweep-dephasing", parse_config_text(text), 1)
    assert slabs and all(slab is not None and slab.points == first.points for slab in slabs)
    np.testing.assert_allclose([tau for *_, tau in rows], taus, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("row", [1, 2, 4])
def test_sweep_dephasing_crossing_at_a_block_row_start(row, tmp_path, one_blas_thread):
    # |chi| falls monotonically here; a threshold halfway between |chi| at j = row B - 1
    # and j = row B puts the first crossing at the first point of block row `row`, and
    # the interpolation reads the last point of the row before; row 4 starts the second
    # slab
    text = SLAB_BASE.replace("eta = 2.0", "eta = 0.2").replace("beta = 1.0", "beta = 4")
    cfg = parse_config_text(text)
    bath = cli._bath(cfg, 2.5, [4.0])
    times = dynamics.time_grid(cfg.t_max, cfg.dt)
    chi, = dynamics.chi_traces(bath, cfg.omega_s, times)
    j = row * SLAB_ROWS
    above, below = (float(x) for x in np.abs(chi[j - 1:j + 1]))
    text += f"threshold = {0.5 * (above + below)!r}\n"
    (tau,), expected = full_grid_dephasing(text)
    assert np.abs(chi[:j]).min() == above > 0.5 * (above + below) > below
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


@pytest.mark.parametrize("eta, lam", [("0.0", "2.6"), ("2.0", "1.2")])
def test_sweep_backflow_writes_positive_zero_where_chi_never_falls(eta, lam, tmp_path):
    # uncoupled, or one bound level: |chi| never falls, so the outflow n_plus is an empty
    # sum, written +0, not the -0 of its negation
    text = (BASE.replace("eta = 2.0", f"eta = {eta}").replace("lambda = 2.5", f"lambda = {lam}")
            .replace("beta = 1.0", "beta = 4").replace("t_max = 5.0", "t_max = 2.0"))
    cfg, out = write_config(tmp_path, text), tmp_path / "flow.csv"
    assert main(["sweep-backflow", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_rows(out)[1:]
    assert row[3:] == ["0.00000000000e+00", "0.00000000000e+00", "-1.00000000000e+00"]


def test_gaussian_error_csv_with_pointwise(tmp_path):
    # lambda = 3.1, beta = 1 starts from e_chi = 0 exactly; others hold e_chi < 1e-15
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,3.1").replace("beta = 1.0", "beta = 1,7")
    pointwise = tmp_path / "pointwise.csv"
    cfg = write_config(tmp_path, text + f"pointwise_out = {pointwise}\n")
    points = sweep_rows("gaussian-error", parse_config_text(text), 1)
    values = np.concatenate([point[3] for point in points])
    assert (values == 0.0).any() and ((values > 0.0) & (values < 1e-15)).any()
    times = dynamics.time_grid(5.0, 0.05)
    reference = "lambda,beta,eta,t,e_chi\n" + "".join(
        f"{lam:.11e},{beta:.11e},{2.0:.11e},{t:.11e},{e:.11e}\n"
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
    # a missing directory and a directory as the path are found before the sweep, and
    # /dev/full fails at its write; none leaves a summary file
    path = path.format(tmp=tmp_path)
    cfg = write_config(tmp_path, BASE + f"pointwise_out = {path}\n")
    out = tmp_path / "gauss.csv"
    if path != "/dev/full":
        monkeypatch.setattr(cli, "_sweep_point", lambda *args: pytest.fail("a point was computed"))
    assert main(["gaussian-error", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert not out.exists()


@pytest.mark.parametrize("out, pointwise, named", [
    ("{tmp}/gauss.csv", "{tmp}/gauss.csv", "{tmp}/gauss.csv"),
    ("{tmp}/gauss.csv", "{tmp}/./gauss.csv", "{tmp}/./gauss.csv"),
    ("{tmp}", "{tmp}/pw.csv", "{tmp}"),
    ("{tmp}/gauss.csv", "{tmp}", "{tmp}"),
], ids=["pointwise-is-out", "pointwise-is-out-via-dot", "out-is-a-directory",
        "pointwise-is-a-directory"])
def test_outputs_that_cannot_be_files_of_their_own_exit_2_before_any_work(
        out, pointwise, named, tmp_path, capsys, monkeypatch):
    # both outputs at one file lost the summary table; a directory failed only after
    # every point was computed
    out, pointwise, named = (path.format(tmp=tmp_path) for path in (out, pointwise, named))
    cfg = write_config(tmp_path, BASE + f"pointwise_out = {pointwise}\n")
    monkeypatch.setattr(cli, "_sweep_point", lambda *args: pytest.fail("a point was computed"))
    assert main(["gaussian-error", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(named) in err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("output", ["--out", "pointwise_out"])
def test_empty_output_path_exits_2_before_the_first_lambda(output, tmp_path, capsys, monkeypatch):
    # an empty path passed the output check: every lambda ran, and only the write
    # failed, with "No such file or directory: ''"
    text = BASE.replace("lambda = 2.5", "lambda = 2.5,2.6")
    out = "" if output == "--out" else str(tmp_path / "gauss.csv")
    cfg = write_config(tmp_path, text + ("pointwise_out =\n" if output == "pointwise_out" else ""))
    computed = []
    lambda_rows = cli._lambda_rows

    def recording(command, cfg, lam, betas):
        computed.append(lam)
        return lambda_rows(command, cfg, lam, betas)

    monkeypatch.setattr(cli, "_lambda_rows", recording)
    assert exit_code(["gaussian-error", "--config", cfg, "--out", out, "--threads", "1"]) == 2
    assert computed == []
    assert output in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


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
    assert f"k_modes <= {oracle.MAX_DENSE_MODES}" in capsys.readouterr().err


def test_oracle_check_k_modes_error_names_the_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["oracle-check", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: field k_modes: oracle-check needs "
                                       f"k_modes <= {oracle.MAX_DENSE_MODES}, got 8\n")


def test_one_point_command_on_a_sweep_names_the_config(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("lambda = 2.5", "lambda = 2.5,2.6"))
    assert main(["dynamics", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"error: {cfg}: this subcommand needs exactly one "
                                       "lambda and one beta (got 2 lambdas, 1 betas)\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_full_stdout_exits_2_naming_stdout(tmp_path):
    # the write to a full stdout fails at its flush with an OSError that names no file
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "morsebath.cli", "spectrum", "--lambda", "2.51"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "'<stdout>'" in proc.stderr


def test_missing_config_file(capsys):
    assert main(["bath", "--config", "/nonexistent/x.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def readme_columns():
    """Backticked names in the row of each subcommand of README's "Emitted columns" table."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        table = handle.read().split("\nEmitted columns:\n", 1)[1].split("\n\n", 1)[0]
    cells = (line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `"))
    return {name.strip().strip("`"): set(re.findall(r"`([^`]+)`", columns))
            for name, columns in cells}


def test_scientific_notation_everywhere(tmp_path):
    # every field is a float in scientific notation but those of the integer columns;
    # spectrum and correlation write two tables, each under its own header, and
    # gaussian-error its pointwise file too.  Every header is in README's row of its
    # subcommand
    columns = readme_columns()
    cfg = write_config(tmp_path, BASE)
    pointwise = tmp_path / "pointwise.csv"
    sweep = write_config(tmp_path, BASE.replace("lambda = 2.5", "lambda = 2.5,3.1")
                         .replace("beta = 1.0", "beta = 1,7")
                         + f"pointwise_out = {pointwise}\n", name="sweep.cfg")
    for argv in (["spectrum", "--lambda", "7.3"], ["bath", "--config", cfg],
                 ["correlation", "--config", cfg], ["dynamics", "--config", cfg],
                 *([name, "--config", sweep] for name in cli._SWEEPS)):
        out = tmp_path / f"{argv[0]}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        tables = [read_rows(out)]
        if argv[0] == "gaussian-error":
            tables.append(read_rows(pointwise))
        for rows in tables:
            assert_fields_scientific(argv[0], rows, columns[argv[0]])


def assert_fields_scientific(command, rows, readme_headers):
    header = rows[0]
    assert len(rows) > 2
    assert ",".join(header) in readme_headers, (command, header)
    for row in rows[1:]:
        if re.fullmatch(r"[a-z]\w*", row[0]):
            header = row
            assert ",".join(header) in readme_headers, (command, header)
            continue
        assert len(row) == len(header)
        for name, field in zip(header, row):
            if name in ("n", "m", "k", "count"):
                assert re.fullmatch(r"\d+", field), (command, name, field)
            else:
                assert SCI.match(field), (command, name, field)


@pytest.mark.parametrize("argv", [["dynamics", "--config"], ["correlation", "--config"],
                                  ["spectrum", "--lambda", "1e13"]])
def test_allocation_failure_exits_2(argv, tmp_path, monkeypatch, capsys):
    # a grid or level count too large to allocate (t_max = 1e10 at dt = 0.01, or
    # lambda = 1e13) is a user error: exit 2 with an error line, not a traceback.  The
    # builders are stubbed to fail as numpy does, so nothing large is allocated
    def unallocatable(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)")

    monkeypatch.setattr(cli, "time_grid", unallocatable)
    monkeypatch.setattr(cli, "bound_energies", unallocatable)
    if argv[-1] == "--config":
        argv = [*argv, write_config(tmp_path, BASE)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate 7.28 TiB")


def test_sweep_failure_names_lambda_and_betas(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise FloatingPointError("overflow in a layer")

    monkeypatch.setattr(cli, "dephasing_time", broken)
    text = BASE.replace("lambda = 2.5", "lambda = 2.6,1.6").replace("beta = 1.0", "beta = 4,1")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "s.csv"
    for workers in ("1", "2", "3"):
        assert main(["sweep-dephasing", "--config", cfg, "--out", str(out),
                     "--threads", workers]) == 2
        err = capsys.readouterr().err
        assert "lambda = 1.6, beta = 1, 4" in err
        assert "FloatingPointError: overflow in a layer" in err
        assert not out.exists()
        assert_no_child_left()
