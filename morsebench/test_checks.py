"""Tests of the benchmark's own checks and trace.

Each check must pass the CLI's real output and flag a perturbed copy;
traced and untraced runs must write the same bytes, and the per-layer
counts must repeat exactly.  Run from the repository root:

    python3 -m pytest morsebench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # first: pins BLAS threads and puts src/ on the path
import checks
import workloads


def small(workload: str, **changes) -> workloads.Inputs:
    return dataclasses.replace(workloads.make_inputs(workload, seed=7), **changes)


def cli_output(inputs: workloads.Inputs, run_dir) -> list[str]:
    bench = run.Run(inputs, str(run_dir))
    bench.round(bench.cli_argv())
    texts = []
    for path in bench.outputs():
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


def replace_line(text: str, index: int, line: str | None) -> str:
    """Text with line ``index`` replaced, or dropped when ``line`` is None."""
    lines = text.split("\n")
    if line is None:
        del lines[index]
    else:
        lines[index] = line
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fig3(tmp_path_factory):
    inputs = small("fig3_tau", lambdas=(2.6, 4.2), betas=(1.0, 10.0), sample=(0, 1, 2, 3),
                   threads=1)
    return inputs, cli_output(inputs, tmp_path_factory.mktemp("fig3"))[0]


@pytest.fixture(scope="module")
def fig5(tmp_path_factory):
    inputs = small("fig5_gauss", lambdas=(2.6, 4.2), betas=(1.0, 10.0), sample=(1, 2))
    return inputs, *cli_output(inputs, tmp_path_factory.mktemp("fig5"))


@pytest.fixture(scope="module")
def harmonic(tmp_path_factory):
    inputs = small("harmonic", k_modes=8)
    return inputs, cli_output(inputs, tmp_path_factory.mktemp("harmonic"))[0]


def test_dephasing_output_passes(fig3):
    inputs, text = fig3
    assert checks.check_dephasing(inputs, text) == set()


def test_dephasing_flags_dropped_row(fig3):
    inputs, text = fig3
    assert checks.check_dephasing(inputs, replace_line(text, 2, None)) == {1}


def test_dephasing_flags_rows_out_of_order(fig3):
    inputs, text = fig3
    lines = text.split("\n")
    lines[1], lines[3] = lines[3], lines[1]
    assert checks.check_dephasing(inputs, "\n".join(lines))


@pytest.mark.parametrize("point", [0, 3])
def test_dephasing_flags_tau_moved_one_step(fig3, point):
    inputs, text = fig3
    fields = text.split("\n")[point + 1].split(",")
    assert float(fields[3]) > 0.0
    fields[3] = f"{float(fields[3]) + inputs.dt:.11e}"
    moved = replace_line(text, point + 1, ",".join(fields))
    assert checks.check_dephasing(inputs, moved) == {point}


def test_gaussian_error_output_passes(fig5):
    inputs, text, pointwise = fig5
    assert checks.check_gaussian_error(inputs, text, pointwise) == set()


def test_gaussian_error_flags_truncated_pointwise_file(fig5):
    inputs, text, pointwise = fig5
    cut = pointwise[:-1000]
    assert checks.check_gaussian_error(inputs, text, cut) == {3}
    assert checks.check_gaussian_error(inputs, text, "") == {0, 1, 2, 3}


def test_gaussian_error_flags_dropped_pointwise_row(fig5):
    inputs, text, pointwise = fig5
    n_t = inputs.times.size
    dropped = replace_line(pointwise, 2 * n_t + 5, None)
    assert checks.check_gaussian_error(inputs, text, dropped) == {2, 3}


def test_gaussian_error_flags_moved_time_average(fig5):
    inputs, text, pointwise = fig5
    fields = text.split("\n")[2].split(",")
    fields[3] = f"{float(fields[3]) * (1 + 1e-6):.11e}"
    moved = replace_line(text, 2, ",".join(fields))
    assert checks.check_gaussian_error(inputs, moved, pointwise) == {1}


def test_gaussian_error_flags_nonzero_error_at_zero(fig5):
    inputs, text, pointwise = fig5
    first = pointwise.split("\n")[1].split(",")
    first[4] = f"{1e-6:.11e}"
    flagged = checks.check_gaussian_error(inputs, text, replace_line(pointwise, 1, ",".join(first)))
    assert flagged == {0}


def test_dynamics_output_passes(harmonic):
    inputs, text = harmonic
    assert checks.check_dynamics(inputs, text) == set()


def test_dynamics_flags_chi_above_one(harmonic):
    inputs, text = harmonic
    fields = [float(x) for x in text.split("\n")[2].split(",")]
    for col in (1, 2, 3):
        fields[col] *= 1.001
    assert fields[3] > 1.0
    perturbed = replace_line(text, 2, ",".join(f"{x:.11e}" for x in fields))
    assert checks.check_dynamics(inputs, perturbed) == {0}


def test_dynamics_flags_gaussian_columns(harmonic):
    inputs, text = harmonic
    fields = [float(x) for x in text.split("\n")[500].split(",")]
    fields[6] *= 1.0 + 1e-6
    perturbed = replace_line(text, 500, ",".join(f"{x:.11e}" for x in fields))
    assert checks.check_dynamics(inputs, perturbed) == {0}


def test_traced_run_writes_same_bytes_and_repeats_counts(tmp_path):
    inputs = small("fig3_tau", lambdas=(2.6, 4.2), betas=(1.0, 10.0), sample=(0,), threads=2)
    counts = []
    for i in range(2):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        bench = run.Run(inputs, str(run_dir))
        metrics, same_bytes = run.traced_run(bench)
        assert same_bytes
        assert bench.failed == 0 and bench.attempted == 3 * len(inputs.points())
        counts.append({name: metrics[name] for name, unit in run.PER_LAYER_UNITS.items()
                       if unit in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.phase_sum.calls"] == inputs.k_modes * len(inputs.points())
    assert counts[0]["bath.discretize.calls"] == len(inputs.points())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "morsebench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "morsebench/run.py", "--workload", "harmonic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
