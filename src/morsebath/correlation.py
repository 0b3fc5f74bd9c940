"""Second-order bath correlation function and its double time integral.

The renormalized correlation function splits into a constant offset plus
a spectral decomposition of the time-dependent part,

    alpha(t) = C0 + sum_j w_j exp(i Delta_j t),

where the sum runs over all modes k and ordered level pairs n != p with
w = p_kn |B_k[n, p]|^2 and Delta = E_kn - E_kp.  The offset collects
the diagonal (asymmetry) contributions of the renormalized coupling
B_k - <B_k> and vanishes only at zero temperature.  The decay exponent
of the Gaussian surrogate is the real part of the double time integral,

    Gamma(t) = 4 Re int_0^t ds int_0^s du alpha(s - u)
             = 2 C0 t^2 + sum_j 4 w_j (1 - cos(Delta_j t)) / Delta_j^2.

The model is built from a ``Bath`` and holds every beta of it; alpha,
Gamma and chi_G take a time array and return (n_beta, n).
``gaussian_traces`` is chi_G of a ``Bath`` at omega_s from one model
build: the Gaussian counterpart of ``dynamics.chi_traces``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import Bath
from . import kernels

# Terms whose cumulative weight falls below this fraction of alpha(0) are
# dropped at model build; the bound on any evaluated quantity is well
# below every test tolerance used downstream.
NEGLIGIBLE_WEIGHT = 1e-13

# rows of a mode whose pairs together weigh less than this fraction of
# the pruning budget are left out of the term list
_ROW_TAIL = 1e-6


@dataclass(frozen=True)
class CorrelationModel:
    """Offset plus spectral terms of the second-order correlation.

    A model of n_beta temperatures holds offset_c0 (n_beta,) and weights
    (T, n_beta) over the union of the terms the betas keep, zero where a
    beta dropped one; the deltas (T,) are shared.
    """

    offset_c0: np.ndarray
    weights: np.ndarray
    deltas: np.ndarray


def _pair_weights(bath: Bath, rows_listed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (n_beta, T) of the pairs n != p with n < rows_listed[k] of each mode k.

    Pairs run mode-major and row-major within a mode, so mode k lists
    the first rows_listed[k] (d - 1) pairs of its row-major list.
    Returns the weights and the (K + 1,) offsets of each mode's run.
    """
    p = bath.weights
    d = p.shape[-1]
    rows, cols = np.nonzero(~np.eye(d, dtype=bool))
    starts = np.concatenate([[0], np.cumsum(rows_listed * (d - 1))])
    w = np.empty((p.shape[0], starts[-1]))
    for k, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        b2 = bath.couplings[k, rows[:b - a], cols[:b - a]]
        w[:, a:b] = p[:, k, rows[:b - a]] * (b2 * b2)
    return w, starts


def build_correlation(bath: Bath) -> CorrelationModel:
    """Aggregate offset and time-dependent terms over all modes, for every beta.

    offset_c0 = sum_{k,n} p_kn (B_k[n,n] - <B_k>)^2; the term list
    enumerates the ordered pairs n != p of every mode, with the gap
    E_n - E_p and the weight p_n B[n,p]^2 (the mean shifts only the
    diagonal).  Terms carrying a negligible fraction of a beta's total
    weight are discarded for that beta (``NEGLIGIBLE_WEIGHT``, read at
    each call).  A beta whose pairs all weigh zero (eta = 0) keeps no
    terms and lists no rows.

    A mode's rows n whose pairs weigh less, all together, than
    _ROW_TAIL of the pruning budget are not listed; the budget left for
    the listed terms is reduced by their weight.  When every left-out
    term is at most the smallest kept one, the pruning would have
    dropped each of them, so the model is the one of the full list; if
    that does not hold, every row is listed.
    """
    p = bath.weights
    n_beta, n_modes, d = p.shape
    # C0: one dot product of fresh vectors per mode (a BLAS dot rounds
    # by operand alignment), then a running sum over the modes in order
    diag = np.diagonal(bath.couplings, axis1=-2, axis2=-1)
    bt_diag = diag - bath.mean_b[..., None]
    c0 = np.cumsum([[pk.copy() @ (bk * bk) for pk, bk in zip(pb, btb)]
                    for pb, btb in zip(p, bt_diag)], axis=-1)[:, -1]
    # weight of row n of mode k, at least that of each of its pairs, and
    # the weight of the rows from n up, a zero column appended
    row_w = p * np.maximum(np.einsum("kij,kij->ki", bath.couplings, bath.couplings)
                           - diag * diag, 0.0)
    tail = np.concatenate([np.cumsum(row_w[..., ::-1], axis=-1)[..., ::-1],
                           np.zeros((n_beta, n_modes, 1))], axis=-1)
    total = row_w.sum(axis=(1, 2))
    floor = _ROW_TAIL * NEGLIGIBLE_WEIGHT * total
    listed = np.count_nonzero(tail[..., :d] >= floor[:, None, None], axis=-1)
    rows_listed = np.where(total[:, None] > 0.0, listed, 0).max(axis=0)
    # (n_beta, K) weight left out of each mode: under K _ROW_TAIL of the
    # budget in all, so the listed terms keep a positive budget
    left = np.take_along_axis(tail, rows_listed[None, :, None], axis=-1)[..., 0]
    left_sum = left.sum(axis=-1)
    w, starts = _pair_weights(bath, rows_listed)
    keep = kernels.kept_terms(w, NEGLIGIBLE_WEIGHT * (w.sum(axis=-1) + left_sum) - left_sum)
    if np.any(left.max(axis=-1) > np.where(keep, w, np.inf).min(axis=-1, initial=np.inf)):
        w, starts = _pair_weights(bath, np.full(n_modes, d))
        keep = kernels.kept_terms(w, NEGLIGIBLE_WEIGHT * w.sum(axis=-1))
    union = keep.any(axis=0)
    w = w[:, union]
    w[~keep[:, union]] = 0.0
    # gaps of the kept terms only: term i is pair i - starts[k] of the mode k whose run holds it
    kept = np.flatnonzero(union)
    mode = np.searchsorted(starts, kept, side="right") - 1
    pair = kept - starts[mode]
    rows, cols = np.nonzero(~np.eye(d, dtype=bool))
    deltas = bath.energies[mode, rows[pair]] - bath.energies[mode, cols[pair]]
    return CorrelationModel(offset_c0=c0, weights=np.ascontiguousarray(w.T), deltas=deltas)


def alpha(model: CorrelationModel, times: np.ndarray) -> np.ndarray:
    """Correlation function C0 + sum_j w_j exp(i Delta_j t) on the (n,) times, (n_beta, n)."""
    return model.offset_c0[:, None] + kernels.phase_sum(model.weights, model.deltas, times)


def offset_ratio(model: CorrelationModel):
    """Relative offset C0 / C(0) of each beta, C(0) being the sum of that beta's term weights."""
    c_at_0 = model.weights.sum(axis=0)
    if np.any(c_at_0 <= 0.0):
        raise ZeroDivisionError("offset_ratio undefined: correlation has no time-dependent terms")
    return model.offset_c0 / c_at_0


def gamma_decay(model: CorrelationModel, times: np.ndarray) -> np.ndarray:
    """Decay exponent Gamma(t) = 4 Re of the double integral of alpha, (n_beta, n)."""
    return kernels.gamma_sum(model.weights, model.deltas, model.offset_c0, times)


def mean_field_shift(bath: Bath) -> np.ndarray:
    """Phase velocity 2 <B> of the mean-field part of the coupling, one per beta.

    The coherence picked out by the dynamical map rotates at
    omega_s + 2 <B>_beta once the coupling is split into mean plus
    fluctuation; the Gaussian surrogate carries that shift explicitly.
    The means are summed over the modes in order.
    """
    return 2.0 * np.cumsum(bath.mean_b, axis=-1)[:, -1]


def gaussian_chi(model: CorrelationModel, omega_s: float, mean_shift: np.ndarray,
                 times: np.ndarray) -> np.ndarray:
    """Gaussian (second-order) surrogate decay factor of each beta, (n_beta, n).

    chi_G(t) = exp(i (omega_s + mean_shift) t - Gamma(t)), one mean_shift per beta.
    """
    phase = np.multiply.outer(omega_s + mean_shift, times)
    return np.exp(1j * phase - gamma_decay(model, times))


def gaussian_traces(bath: Bath, omega_s: float, times: np.ndarray) -> np.ndarray:
    """Gaussian surrogate chi_G (n_beta, n) of every beta of one lam, from one model build."""
    return gaussian_chi(build_correlation(bath), omega_s, mean_field_shift(bath), times)
