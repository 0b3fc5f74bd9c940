"""Experiment configuration files: flat ``key = value`` text.

Lines are ``key = value`` with ``#`` comments and blank lines ignored.
Lists are comma-separated, ranges are written ``start:stop:step``
(inclusive of the stop within half a step).  Example::

    # full-scale dephasing sweep
    k_modes = 40
    omega_c = 1.0
    eta = 2.0
    lambda = 1.6:7.5:0.1
    beta = 1,4,7,10
    omega_s = 2.0
    t_max = 20.0
    dt = 0.01

Required keys: ``eta``, ``lambda``, ``beta``.  Optional keys with
defaults: ``k_modes`` (40), ``omega_c`` (1.0), ``omega_s`` (2.0),
``t_max`` (20.0), ``dt`` (0.01), ``threshold`` (0.1), ``rho0``
(0.5,0.25,0.25,0.5 row-major), ``pointwise_out`` (unset).  Environment
variables are never consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DEFAULT_RHO0, SystemConfig


class ConfigError(ValueError):
    """Configuration problem, annotated with file and line when known."""


@dataclass(frozen=True)
class ExperimentConfig:
    eta: float
    lambdas: tuple[float, ...]
    betas: tuple[float, ...]
    k_modes: int = 40
    omega_c: float = 1.0
    omega_s: float = 2.0
    t_max: float = 20.0
    dt: float = 0.01
    threshold: float = 0.1
    rho0: np.ndarray = field(default_factory=lambda: DEFAULT_RHO0.copy())
    pointwise_out: str | None = None

    def __post_init__(self) -> None:
        if self.k_modes < 1:
            raise ConfigError(f"field k_modes: must be >= 1, got {self.k_modes}")
        if not self.omega_c > 0.0:
            raise ConfigError(f"field omega_c: must be positive, got {self.omega_c}")
        if self.eta < 0.0:
            raise ConfigError(f"field eta: must be >= 0, got {self.eta}")
        if not self.lambdas:
            raise ConfigError("field lambda: empty grid")
        for lam in self.lambdas:
            if not lam > 0.5:
                raise ConfigError(f"field lambda: entries must exceed 0.5, got {lam}")
        if not self.betas:
            raise ConfigError("field beta: empty list")
        for beta in self.betas:
            if not beta > 0.0:
                raise ConfigError(f"field beta: entries must be positive, got {beta}")
        if not self.t_max > 0.0:
            raise ConfigError(f"field t_max: must be positive, got {self.t_max}")
        if not 0.0 < self.dt < self.t_max:
            raise ConfigError(f"field dt: need 0 < dt < t_max, got dt={self.dt}, t_max={self.t_max}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"field threshold: must lie in (0, 1), got {self.threshold}")
        try:
            SystemConfig(omega_s=self.omega_s, rho0=self.rho0)
        except ValueError as exc:
            raise ConfigError(f"field rho0: {exc}") from exc

    def single_point(self) -> tuple[float, float]:
        """The unique (lambda, beta) pair; error if the config is a sweep."""
        if len(self.lambdas) != 1 or len(self.betas) != 1:
            raise ConfigError(
                "this subcommand needs exactly one lambda and one beta "
                f"(got {len(self.lambdas)} lambdas, {len(self.betas)} betas)")
        return self.lambdas[0], self.betas[0]


def _parse_float_list(raw: str, key: str, line_no: int) -> tuple[float, ...]:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"line {line_no}: field {key}: range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: field {key}: {exc}") from exc
        if step <= 0.0 or stop < start:
            raise ConfigError(f"line {line_no}: field {key}: need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    try:
        return tuple(float(p) for p in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: field {key}: {exc}") from exc


def _parse_complex_entries(raw: str, key: str, line_no: int) -> np.ndarray:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"line {line_no}: field {key}: expected 4 row-major entries")
    try:
        values = [complex(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: field {key}: {exc}") from exc
    return np.array(values, dtype=complex).reshape(2, 2)


_FLOAT_KEYS = ("omega_c", "eta", "omega_s", "t_max", "dt", "threshold")


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse configuration text; errors carry the source and line number."""
    seen: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in seen:
            raise ConfigError(f"{source}: line {line_no}: duplicate key {key!r} "
                              f"(first set on line {line_of[key]})")
        line_of[key] = line_no
        try:
            if key == "k_modes":
                seen[key] = int(raw)
            elif key in _FLOAT_KEYS:
                seen[key] = float(raw)
            elif key == "lambda":
                seen["lambdas"] = _parse_float_list(raw, key, line_no)
            elif key == "beta":
                seen["betas"] = _parse_float_list(raw, key, line_no)
            elif key == "rho0":
                seen[key] = _parse_complex_entries(raw, key, line_no)
            elif key == "pointwise_out":
                seen[key] = raw
            else:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{source}: line {line_no}: field {key}: {exc}") from None
    for required in ("eta", "lambdas", "betas"):
        if required not in seen:
            name = "lambda" if required == "lambdas" else ("beta" if required == "betas" else required)
            raise ConfigError(f"{source}: missing required key {name!r}")
    try:
        return ExperimentConfig(**seen)  # type: ignore[arg-type]
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def parse_config(path: str) -> ExperimentConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)
