"""End-to-end and per-layer benchmark of the morsebath command line.

Usage (from the root of a morsebath checkout):

    python3 morsebench/run.py --workload fig3_tau --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) runs the ``morsebath`` CLI in fresh
processes, a closed loop of one run at a time, and checks every output
(see ``checks.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted`` and ``failed`` (sweep points, or
``dynamics`` points) and ``metrics``:

- ``--trace 0``: rounds of the workload until about ``--seconds`` of
  CLI run time has passed (always whole rounds), giving points_per_s
  (total points over total run time), setup_s (median over fresh starts
  of a process that imports morsebath.cli and parses the workload's
  config) and peak_rss_mb (largest resident set of any process run);
- ``--trace 1``: one untraced round as the workload runs, one untraced
  round at 1 worker when the workload uses more, and one traced round at
  1 worker (``tracer.py``), giving the per-layer metrics.  The traced
  round does a fixed amount of work, so its counts repeat exactly.

Every process gets ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``, and a
sweep uses at most as many workers as there are CPUs available.
Outputs go to ``morsebench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Set before NumPy loads, so the reference computations run on one thread too.
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
if not os.path.isfile(os.path.join(SRC, "morsebath", "cli.py")):
    sys.exit(f"error: {SRC}/morsebath not found; run from the root of a morsebath checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Fresh starts measured for setup_s, before and after the timed rounds.
SETUP_STARTS_BEFORE = 3
SETUP_STARTS_AFTER = 4
SETUP_PROBE = "import sys, morsebath.cli as cli; cli.parse_config(sys.argv[1])"

END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "kernels.phase_sum.self_s": "s",
    "kernels.phase_sum.calls": "count",
    "kernels.phase_sum.terms": "count",
    "kernels.phase_sum.term_times_per_s": "1/s",
    "kernels.gamma_sum.self_s": "s",
    "kernels.gamma_sum.terms": "count",
    "dynamics.mode_propagators.self_s": "s",
    "dynamics.mode_propagators.calls": "count",
    "dynamics.chi_series.self_s": "s",
    "dynamics.gaussian_trace.self_s": "s",
    "correlation.build_correlation.self_s": "s",
    "correlation.build_correlation.terms_kept": "count",
    "bath.discretize.self_s": "s",
    "bath.discretize.calls": "count",
    "observables.self_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.pool.speedup": "ratio",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list[str], log_path: str) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB (the process and its reaped children) and exit status."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """One workload's files and rounds in a run directory."""

    def __init__(self, inputs: workloads.Inputs, run_dir: str) -> None:
        self.inputs = inputs
        self.dir = run_dir
        self.config = os.path.join(run_dir, "workload.cfg")
        self.out = os.path.join(run_dir, "out.csv")
        self.pointwise = os.path.join(run_dir, "pointwise.csv")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(inputs.config_text(self.pointwise))
        self.verdicts: dict[str, set[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def outputs(self) -> list[str]:
        return [self.out, self.pointwise] if self.inputs.pointwise else [self.out]

    def setup_start(self) -> float:
        wall, rss, status = run_process([sys.executable, "-c", SETUP_PROBE, self.config],
                                        os.path.join(self.dir, "setup.log"))
        if status != 0:
            raise BenchError(f"set-up probe exited with {status}; see {self.dir}/setup.log")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return wall

    def round(self, argv: list[str], log_name: str = "cli.log") -> tuple[float, str]:
        """Run one CLI process, check its outputs; returns its wall time and output digest."""
        for path in self.outputs():
            if os.path.exists(path):
                os.remove(path)
        wall, rss, status = run_process(argv, os.path.join(self.dir, log_name))
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        texts = []
        for path in self.outputs():
            try:
                with open(path, encoding="utf-8") as handle:
                    texts.append(handle.read())
            except (OSError, UnicodeDecodeError):
                texts.append("")
        digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        if status != 0:
            failed = set(range(len(self.inputs.points())))
        else:
            if digest not in self.verdicts:
                self.verdicts[digest] = checks.check_outputs(self.inputs, texts)
            failed = self.verdicts[digest]
        self.attempted += len(self.inputs.points())
        self.failed += len(failed)
        return wall, digest

    def cli_argv(self, threads: int | None = None) -> list[str]:
        return [sys.executable, "-m", "morsebath.cli",
                *self.inputs.cli_args(self.config, self.out, threads)]


def timed_run(run: Run, seconds: float) -> dict[str, float]:
    """Whole rounds until the CLI run time is nearest to ``seconds``."""
    run.setup_start()  # warm-up: writes the bytecode caches, not counted
    setup = [run.setup_start() for _ in range(SETUP_STARTS_BEFORE)]
    walls = []
    while not walls or sum(walls) + 0.5 * statistics.fmean(walls) < seconds:
        walls.append(run.round(run.cli_argv())[0])
    setup += [run.setup_start() for _ in range(SETUP_STARTS_AFTER)]
    return {
        "points_per_s": len(walls) * len(run.inputs.points()) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run.peak_rss_mb,
    }


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts; self time excludes child spans."""
    names = np.array([s[tracer.NAME] for s in spans], dtype=object)
    parent = np.array([s[tracer.PARENT] for s in spans], dtype=np.int64)
    duration = np.array([s[tracer.END] - s[tracer.START] for s in spans])
    terms = np.array([s[tracer.TERMS] for s in spans], dtype=np.int64)
    grid = np.array([s[tracer.GRID] for s in spans], dtype=np.int64)
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    self_s = duration - child

    def named(name):
        return names == name

    def layer(prefix):
        return np.array([n.startswith(prefix) for n in names], dtype=bool)

    phase = named("kernels.phase_sum")
    phase_self = float(self_s[phase].sum())
    is_cli = layer("cli.")
    return {
        "kernels.phase_sum.self_s": phase_self,
        "kernels.phase_sum.calls": int(phase.sum()),
        "kernels.phase_sum.terms": int(terms[phase].sum()),
        "kernels.phase_sum.term_times_per_s":
            float((terms[phase] * grid[phase]).sum() / phase_self) if phase_self > 0 else 0.0,
        "kernels.gamma_sum.self_s": float(self_s[named("kernels.gamma_sum")].sum()),
        "kernels.gamma_sum.terms": int(terms[named("kernels.gamma_sum")].sum()),
        "dynamics.mode_propagators.self_s":
            float(self_s[named("dynamics.mode_propagators")].sum()),
        "dynamics.mode_propagators.calls": int(named("dynamics.mode_propagators").sum()),
        "dynamics.chi_series.self_s": float(self_s[named("dynamics.chi_series")].sum()),
        "dynamics.gaussian_trace.self_s": float(self_s[named("dynamics.gaussian_trace")].sum()),
        "correlation.build_correlation.self_s":
            float(self_s[named("correlation.build_correlation")].sum()),
        "correlation.build_correlation.terms_kept":
            int(terms[named("correlation.build_correlation")].sum()),
        "bath.discretize.self_s": float(self_s[named("bath.discretize")].sum()),
        "bath.discretize.calls": int(named("bath.discretize").sum()),
        "observables.self_s": float(self_s[layer("observables.")].sum()),
        "cli.self_s": float(self_s[is_cli].sum()),
        "layers.self_s": float(self_s[~is_cli].sum()),
    }


def traced_run(run: Run) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of one traced round, and whether every round wrote the same bytes."""
    wall_main, digest = run.round(run.cli_argv())
    wall_one, digest_one = wall_main, digest
    if run.inputs.threads is not None and run.inputs.threads > 1:
        wall_one, digest_one = run.round(run.cli_argv(threads=1))
    spans_path = os.path.join(run.dir, "spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    traced_argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path,
                   *run.inputs.cli_args(run.config, run.out, threads=1)]
    wall_traced, digest_traced = run.round(traced_argv, "traced.log")
    if not os.path.exists(spans_path):
        raise BenchError(f"the traced run wrote no spans; see {run.dir}/traced.log")
    with open(spans_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    metrics = layer_metrics(trace["spans"])
    metrics.update({
        "cli.csv_bytes": sum(os.path.getsize(p) for p in run.outputs() if os.path.exists(p)),
        "cli.pool.speedup": metrics.pop("layers.self_s") / wall_main,
        "setup.import_s": trace["import_s"],
        "trace.overhead_s": wall_traced - wall_one,
    })
    return metrics, digest == digest_one == digest_traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = os.path.join(RUNS, f"{args.workload}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    run = Run(workloads.make_inputs(args.workload, args.seed), run_dir)
    if args.trace:
        values, same_bytes = traced_run(run)
        units = PER_LAYER_UNITS
    else:
        values, same_bytes = timed_run(run, args.seconds), True
        units = END_TO_END_UNITS
    result = {
        "correct": run.failed == 0 and same_bytes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.exit(f"error: {exc}")
