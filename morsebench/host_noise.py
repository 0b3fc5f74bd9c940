"""How steady this host is: the noise the benchmark's run length has to average out.

Usage: python3 morsebench/host_noise.py [SECONDS]

Calls chi_series at lam = 2.6, beta = 7 (K = 40, 2001 steps) back to back
for SECONDS (default 90) and prints the per-call wall and CPU time
quantiles and the spread of the mean call time over 10 s and 30 s
windows; then times 7 fresh set-up starts as the benchmark does.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import run  # first: pins BLAS threads and puts src/ on the path
import workloads
from morsebath.bath import BathConfig, discretize
from morsebath.dynamics import DEFAULT_RHO0, SystemConfig, chi_series, time_grid


def window_spread(starts: list[float], walls: list[float], width: float) -> float:
    """Half the range of the per-window mean call time, relative to the overall mean."""
    groups: dict[int, list[float]] = {}
    for start, wall in zip(starts, walls):
        groups.setdefault(int((start - starts[0]) // width), []).append(wall)
    means = [statistics.fmean(g) for g in groups.values() if len(g) > 1]
    return (max(means) - min(means)) / 2.0 / statistics.fmean(walls) if len(means) > 1 else 0.0


def main(seconds: float) -> None:
    modes = discretize(BathConfig(eta=0.01, omega_c=1.0, k_modes=40, lam=2.6, beta=7.0))
    system = SystemConfig(omega_s=2.0, rho0=DEFAULT_RHO0)
    times = time_grid(20.0, 0.01)
    starts, walls, cpus = [], [], []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        t0, c0 = time.perf_counter(), time.process_time()
        chi_series(modes, system, times)
        starts.append(t0)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    deciles = statistics.quantiles(walls, n=10)
    print(f"chi_series calls: {len(walls)}; wall ms p10 {1e3 * deciles[0]:.1f} "
          f"median {1e3 * statistics.median(walls):.1f} p90 {1e3 * deciles[-1]:.1f} "
          f"mean {1e3 * statistics.fmean(walls):.1f}; cpu/wall {sum(cpus) / sum(walls):.3f}")
    for width in (10.0, 30.0):
        print(f"mean call time over {width:.0f} s windows: "
              f"+-{100 * window_spread(starts, walls, width):.1f}%")
    run_dir = os.path.join(run.RUNS, "host-noise")
    os.makedirs(run_dir, exist_ok=True)
    bench = run.Run(workloads.make_inputs("fig3_tau", 1), run_dir)
    bench.setup_start()
    setup = sorted(bench.setup_start() for _ in range(7))
    print("set-up starts s: " + " ".join(f"{s:.3f}" for s in setup)
          + f"; median {statistics.median(setup):.3f}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 90.0)
