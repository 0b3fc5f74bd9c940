"""Seeded inputs of the three benchmark workloads.

Every workload runs the paper's K = 40 bath on the uniform grid
t = 0 .. 20 with dt = 0.01 (2001 steps).  The seed moves each
anharmonicity inside its cell but never across a half-integer, so the
bound-state count d of every point, and with it the work per point, is
the same for every seed:

- fig3_tau and fig5_gauss use the 60 cells of the fig3 grid
  1.6, 1.7, ..., 7.5; cell lam0 gets lam in [lam0 - 0.05, lam0].  The
  count is floor(lam + 1/2) (lam0 - 1/2 exactly at a half-integer lam0),
  so moving down by less than 0.1 keeps it, and no lam lands just above
  a half-integer, where the weakly bound state's couplings blow up.
- harmonic takes lam in (399.6, 400], which keeps d = 400.

The seed also picks which sweep points are checked against the dense
reference in ``checks.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

K_MODES = 40
T_MAX = 20.0
DT = 0.01
FIG3_CELLS = tuple(round(1.6 + 0.1 * i, 10) for i in range(60))
FIG3_BETAS = (1.0, 4.0, 7.0, 10.0)
CELL_JITTER = 0.05
HARMONIC_LAMBDA = 400.0
HARMONIC_JITTER = 0.4
# Sweep points per run checked against the dense reference.
SAMPLE_POINTS = 8


@dataclass(frozen=True)
class Inputs:
    """One workload's CLI run: subcommand, configuration and checked points."""

    command: str
    lambdas: tuple[float, ...]
    betas: tuple[float, ...]
    eta: float
    threads: int | None
    pointwise: bool
    sample: tuple[int, ...]
    k_modes: int = K_MODES
    t_max: float = T_MAX
    dt: float = DT
    omega_s: float = 2.0
    threshold: float = 0.1
    rho01: float = 0.25  # |rho01(0)| of the CLI's default initial state
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n_steps = int(round(self.t_max / self.dt))
        object.__setattr__(self, "times", np.arange(n_steps + 1) * self.dt)

    def points(self) -> list[tuple[float, float]]:
        """(lam, beta) of every point in the order the CLI writes them."""
        return [(lam, beta) for lam in sorted(self.lambdas) for beta in sorted(self.betas)]

    def config_text(self, pointwise_path: str | None = None) -> str:
        lines = [
            f"k_modes = {self.k_modes}",
            "omega_c = 1.0",
            f"eta = {self.eta!r}",
            "lambda = " + ",".join(repr(lam) for lam in self.lambdas),
            "beta = " + ",".join(repr(beta) for beta in self.betas),
            f"omega_s = {self.omega_s!r}",
            f"t_max = {self.t_max!r}",
            f"dt = {self.dt!r}",
            f"threshold = {self.threshold!r}",
        ]
        if self.pointwise:
            lines.append(f"pointwise_out = {pointwise_path}")
        return "\n".join(lines) + "\n"

    def cli_args(self, config_path: str, out_path: str, threads: int | None = None) -> list[str]:
        """Arguments of ``morsebath`` for this run; ``threads`` overrides a sweep's worker count."""
        args = [self.command, "--config", config_path, "--out", out_path]
        if self.threads is not None:
            args += ["--threads", str(threads or self.threads)]
        return args


def _fig3_lambdas(rng: np.random.Generator) -> tuple[float, ...]:
    shifts = rng.random(len(FIG3_CELLS)) * CELL_JITTER
    return tuple(round(lam0 - float(s), 6) for lam0, s in zip(FIG3_CELLS, shifts))


def make_inputs(workload: str, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    if workload in ("fig3_tau", "fig5_gauss"):
        lambdas = _fig3_lambdas(rng)
        n_points = len(lambdas) * len(FIG3_BETAS)
        sample = tuple(sorted(int(i) for i in rng.choice(n_points, SAMPLE_POINTS, replace=False)))
        if workload == "fig3_tau":
            return Inputs("sweep-dephasing", lambdas, FIG3_BETAS, eta=2.0,
                          threads=len(os.sched_getaffinity(0)), pointwise=False, sample=sample)
        return Inputs("gaussian-error", lambdas, FIG3_BETAS, eta=0.01,
                      threads=1, pointwise=True, sample=sample)
    if workload == "harmonic":
        lam = round(HARMONIC_LAMBDA - HARMONIC_JITTER * float(rng.random()), 6)
        return Inputs("dynamics", (lam,), (4.0,), eta=0.01,
                      threads=None, pointwise=False, sample=(0,))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fig3_tau", "fig5_gauss", "harmonic")
