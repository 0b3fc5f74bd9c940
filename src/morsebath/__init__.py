"""Dephasing of a two-level impurity coupled to a bath of Morse oscillators.

The package computes the exact factorized decay factor chi(t) of the
impurity coherence, the Gaussian (second-order) surrogate built from the
bath correlation function, and the analysis quantities derived from
them: dephasing times, information backflow, and the exact-vs-Gaussian
error.
"""

from .bath import Bath, BathConfig, bath_arrays, discretize, spectral_density
from .correlation import (
    CorrelationModel,
    alpha,
    build_correlation,
    gamma_decay,
    gaussian_chi,
    mean_field_shift,
    offset_ratio,
)
from .dynamics import (
    DEFAULT_RHO0,
    DephasingTrace,
    SystemConfig,
    apply_map,
    chi_series,
    chi_traces,
    gaussian_traces,
    time_grid,
)
from .morse import (
    bound_energies,
    bound_state_count,
    ladder_matrix,
    region_classify,
    wavefunction,
    x_matrix,
)
from .observables import blp_flows, dephasing_time, gaussian_error, trace_distance
from .oracle import dense_chi, overlap_element, quadrature_element
from .specfun import digamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "Bath", "BathConfig", "CorrelationModel", "DEFAULT_RHO0", "DephasingTrace", "SystemConfig",
    "alpha", "apply_map", "bath_arrays", "blp_flows", "bound_energies",
    "bound_state_count", "build_correlation", "chi_series", "chi_traces", "dense_chi",
    "dephasing_time", "digamma", "discretize", "gamma_decay", "gaussian_chi",
    "gaussian_error", "gaussian_traces", "ladder_matrix", "log_gamma",
    "mean_field_shift", "offset_ratio", "overlap_element",
    "quadrature_element", "region_classify", "spectral_density",
    "time_grid", "trace_distance", "wavefunction", "x_matrix",
]
