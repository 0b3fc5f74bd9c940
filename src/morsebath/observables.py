"""Analysis layer: dephasing time, information flows, Gaussian error.

Each takes plain arrays: a grid with the chi (and chi_G) rows on it, or
|chi|.  Nothing here imports the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Steps whose magnitude stays below this tolerance count as flat when
# splitting |chi| into monotone segments; double-precision products of
# ~40 mode factors carry roughly 1e-14 noise per point.
MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class FlowReport:
    """Summed rises (backflow) and falls (outflow) of |chi|.

    ratio is n_minus / n_plus, or None when nothing flowed out.
    """

    n_minus: float
    n_plus: float
    ratio: float | None


@dataclass(frozen=True)
class ErrorReport:
    """Pointwise |chi - chi_G| and the time-averaged trace distance."""

    pointwise: np.ndarray
    time_avg: float


def dephasing_time(times: np.ndarray, chi: np.ndarray, threshold: float) -> float | None:
    """First time the relative coherence drops to ``threshold``.

    The coherence magnitude is |rho01(t)| = |chi(t)| |rho01(0)| for any
    initial state, so the crossing of |rho01(t)| / |rho01(0)| through
    the threshold is located on |chi| and interpolated linearly between
    grid points.  Returns None when no crossing happens within the
    grid.  times and chi must share one shape.
    """
    if np.shape(times) != np.shape(chi):
        raise ValueError("times and chi must share one shape, got "
                         f"{np.shape(times)}, {np.shape(chi)}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    ratio = np.abs(chi)
    below = np.nonzero(ratio <= threshold)[0]
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(times[0])
    r_prev, r_next = ratio[i - 1], ratio[i]
    t_prev, t_next = times[i - 1], times[i]
    # the fraction first: it is at most 1, so tau stays within [t_prev, t_next]
    return float(t_prev + (t_next - t_prev) * ((r_prev - threshold) / (r_prev - r_next)))


def blp_flows(abs_chi: np.ndarray) -> FlowReport:
    """Partition |chi| into monotone segments and sum rises and falls.

    Steps with |d|chi|| <= MONOTONE_TOL count as flat and contribute to
    neither direction, which keeps numerical plateaus from registering
    as spurious backflow.
    """
    x = np.asarray(abs_chi, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples to measure flows")
    dx = np.diff(x)
    n_minus = float(dx[dx > MONOTONE_TOL].sum())
    # 0.0 - s, not -s: with no falls the empty sum is +0.0, and its negation -0.0
    n_plus = float(0.0 - dx[dx < -MONOTONE_TOL].sum())
    ratio = (n_minus / n_plus) if n_plus > 0.0 else None
    return FlowReport(n_minus=n_minus, n_plus=n_plus, ratio=ratio)


def gaussian_error(times: np.ndarray, chi: np.ndarray, chi_gauss: np.ndarray,
                   rho0: np.ndarray) -> ErrorReport:
    """Pointwise and time-averaged error of the Gaussian surrogate.

    pointwise[i] = |chi(t_i) - chi_G(t_i)| for chi and chi_gauss on the
    times, all three of one shape; the time average is the trapezoidal
    mean over the grid of the trace distance between the two mapped
    states.  Both maps leave the populations untouched, so that
    distance is |chi - chi_G| |rho01(0)| at every point.  The average
    needs a grid of at least 2 points whose first and last times differ.
    """
    if not np.shape(times) == np.shape(chi) == np.shape(chi_gauss):
        raise ValueError("times, chi and chi_gauss must share one shape, got "
                         f"{np.shape(times)}, {np.shape(chi)}, {np.shape(chi_gauss)}")
    if len(times) < 2 or times[-1] == times[0]:
        raise ValueError("the time average needs 2 or more times, the last unlike the first, "
                         f"got times {np.asarray(times)}")
    pointwise = np.abs(chi - chi_gauss)
    coherence0 = abs(complex(np.asarray(rho0)[1, 0]))
    distance = pointwise * coherence0
    horizon = times[-1] - times[0]
    time_avg = float(np.trapezoid(distance, times) / horizon)
    return ErrorReport(pointwise=pointwise, time_avg=time_avg)
