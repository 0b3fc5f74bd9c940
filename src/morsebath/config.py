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
``t_max`` (20.0), ``dt`` (0.01), ``threshold`` (0.1),
``pointwise_out`` (unset).  Each key may appear once, and each value
once in ``lambda`` and in ``beta``.  Every number must be finite.
Environment variables are never consulted.

The initial impurity state is no setting: the observables take
``dynamics.DEFAULT_RHO0``.  The fields are plain values, so configs
compare and hash by value.  Nothing here imports the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    pointwise_out: str | None = None

    def __post_init__(self) -> None:
        for key, (name, parse) in _KEYS.items():
            if parse is not str and not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"field {key}: every value must be finite")
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
        for key, values in (("lambda", self.lambdas), ("beta", self.betas)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"field {key}: repeated value {value}")
        if not self.t_max > 0.0:
            raise ConfigError(f"field t_max: must be positive, got {self.t_max}")
        if not 0.0 < self.dt < self.t_max:
            raise ConfigError(f"field dt: need 0 < dt < t_max, got dt={self.dt}, t_max={self.t_max}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"field threshold: must lie in (0, 1), got {self.threshold}")

    def single_point(self) -> tuple[float, float]:
        """The unique (lambda, beta) pair; error if the config is a sweep."""
        if len(self.lambdas) != 1 or len(self.betas) != 1:
            raise ConfigError(
                "this subcommand needs exactly one lambda and one beta "
                f"(got {len(self.lambdas)} lambdas, {len(self.betas)} betas)")
        return self.lambdas[0], self.betas[0]


def _parse_float_list(raw: str) -> tuple[float, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError("range entries must be finite")
        if step <= 0.0 or stop < start:
            raise ValueError("need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in raw.split(","))


# config key -> (ExperimentConfig field, parser of the value)
_KEYS = {
    "eta": ("eta", float),
    "lambda": ("lambdas", _parse_float_list),
    "beta": ("betas", _parse_float_list),
    "k_modes": ("k_modes", int),
    "omega_c": ("omega_c", float),
    "omega_s": ("omega_s", float),
    "t_max": ("t_max", float),
    "dt": ("dt", float),
    "threshold": ("threshold", float),
    "pointwise_out": ("pointwise_out", str),
}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse configuration text; errors carry the source and line number."""
    fields: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in line_of:
            raise ConfigError(f"{source}: line {line_no}: duplicate key {key!r} "
                              f"(first set on line {line_of[key]})")
        if key not in _KEYS:
            raise ConfigError(f"{source}: line {line_no}: unknown key {key!r}")
        line_of[key] = line_no
        name, parse = _KEYS[key]
        try:
            fields[name] = parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}: line {line_no}: field {key}: {exc}") from None
    for key in ("eta", "lambda", "beta"):
        if key not in line_of:
            raise ConfigError(f"{source}: missing required key {key!r}")
    try:
        return ExperimentConfig(**fields)  # type: ignore[arg-type]
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
