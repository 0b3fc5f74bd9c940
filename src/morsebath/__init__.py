"""Dephasing of a two-level impurity coupled to a bath of Morse oscillators.

The package computes the exact factorized decay factor chi(t) of the
impurity coherence, the Gaussian (second-order) surrogate built from the
bath correlation function, and the analysis quantities derived from
them: dephasing times, information backflow, and the exact-vs-Gaussian
error.
"""

from .bath import Bath, bath_arrays, spectral_density
from .correlation import (
    CorrelationModel,
    alpha,
    build_correlation,
    gamma_decay,
    gaussian_chi,
    gaussian_traces,
    mean_field_shift,
    offset_ratio,
)
from .dynamics import DEFAULT_RHO0, chi_traces, time_grid
from .morse import bound_energies, bound_state_count, ladder_matrix, x_matrix
from .observables import blp_flows, dephasing_time, gaussian_error
from .oracle import dense_chi, overlap_element, quadrature_element
from .specfun import digamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "Bath", "CorrelationModel", "DEFAULT_RHO0", "alpha", "bath_arrays", "blp_flows",
    "bound_energies", "bound_state_count", "build_correlation", "chi_traces", "dense_chi",
    "dephasing_time", "digamma", "gamma_decay", "gaussian_chi", "gaussian_error",
    "gaussian_traces", "ladder_matrix", "log_gamma", "mean_field_shift", "offset_ratio",
    "overlap_element", "quadrature_element", "spectral_density", "time_grid", "x_matrix",
]
