"""Exact factorized dephasing map of the impurity.

Pure dephasing block-diagonalizes the total Hamiltonian with respect to
the impurity projectors, so the decay factor multiplying the coherence
factorizes over modes:

    chi(t) = exp(i omega_s t) prod_k tr_k( exp(-i Hk_minus t) rho_k
                                           exp(+i Hk_plus t) ),

with Hk_pm = diag(E_kn) +- B_k.  Each mode contributes a finite Fourier
sum: with eigendecompositions Hk_pm = U_pm L_pm U_pm^T the trace equals

    sum_{a,b} W[a,b] exp(i (L_plus[b] - L_minus[a]) t),
    W = (U_minus^T rho_k U_plus) * (U_plus^T U_minus)^T,

so the per-time cost is O(m^2) after an O(m^3) setup per mode, where m
is the mode's kept level count.

A mode block keeps its first m levels: H_pm is restricted to them and
rho_k to their thermal weights p_n, without renormalization.  The
factor then moves by at most

    sum_{n>=m} p_n + t_max sum_pm sum_{n<m} p_n sum_j |U_pm[n, j]|
                                      ||B[m:, :m] u_pm_j||,

the dropped thermal mass plus the leak of each kept eigenvector u_j out
of the kept levels (Duhamel: ||(exp(-i H t) - exp(-i L_j t)) u_j|| <=
t ||(H - L_j) u_j|| = t ||B[m:, :m] u_j||).  m starts at the block's
thermal tail and grows until this bound is at most NEGLIGIBLE_TERM_MASS
for every mode and beta of the block; a block whose m would pass three
quarters of d keeps all d levels.

``chi_traces`` is the one exact path.  A mode block's tasks read only
its own data and write nothing shared: one builds its terms from its
slice of the bath, then one per slab of the grid sums them there.  A
``map``-like argument runs them, in the calling thread or on a pool,
and the factors are multiplied in mode order whatever ran them.  The
whole grid is one slab, unless the caller passes a threshold: then chi
is extended one slab of block rows at a time (``kernels.row_slabs``),
with the same bytes, up to the first slab by which every beta's |chi|
has fallen to it.

``chi_traces`` takes a ``Bath`` of one lam and any number of betas and
the impurity splitting omega_s, and returns chi as a complex (n_beta, n')
array on the first n' points of the caller's grid.  ``chi_series`` is
the one-beta call on the per-mode view of ``bath.discretize``, given a
``SystemConfig``.  Nothing in the package calls it or builds a
``SystemConfig``, and the package root exports neither: both exist only
for the benchmark's ``morsebench/host_noise.py`` and go with ROADMAP
item 8.

Basis convention: the impurity matrix is written in the (|+>, |->)
eigenbasis of sigma_z, and the coherence multiplied by chi(t) (which
carries the +i omega_s t phase) is the <-|rho|+> element, i.e. the
[1, 0] entry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bath import Bath, BathMode

# Bounds both approximations of a mode factor: the level truncation moves
# it by at most this much, and so do the factor terms dropped afterwards
# (their cumulative magnitude); the induced error in chi is below
# 2 K * 1e-14.
NEGLIGIBLE_TERM_MASS = 1e-14

# a mode block holds at most this many elements per stacked d x d array:
# 40 modes fit up to d = 10, and from d = 46 up each mode is its own block
_BLOCK_ELEMENTS = 4096

# The initial impurity state of every observable, (1/2)(identity + sigma_x / 2):
# unit trace with coherence 1/4.
DEFAULT_RHO0 = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)


@dataclass(frozen=True)
class SystemConfig:
    """Impurity splitting and a checked initial state, the argument of ``chi_series``."""

    omega_s: float
    rho0: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho0, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"rho0 must be 2x2, got shape {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValueError("rho0 must be Hermitian")
        if abs(rho.trace() - 1.0) > 1e-12:
            raise ValueError("rho0 must have unit trace")
        if np.linalg.eigvalsh(rho).min() < -1e-12:
            raise ValueError("rho0 must be positive semidefinite")
        object.__setattr__(self, "rho0", rho)


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid 0 .. t_max with step dt (t_max rounded to the grid)."""
    if not 0.0 < dt < t_max:
        raise ValueError(f"need 0 < dt < t_max, got dt={dt}, t_max={t_max}")
    n_steps = int(round(t_max / dt))
    return np.arange(n_steps + 1) * dt


def _block_eigh(energies: np.ndarray, couplings: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stacked eigendecompositions of H_pm = diag(E) +- B over a block of modes.

    Returns (evals_plus, evecs_plus, evals_minus, evecs_minus) with a
    leading mode axis: evals (g, d) and evecs (g, d, d).
    """
    idx = np.arange(energies.shape[-1])
    h = np.zeros(couplings.shape)
    h[:, idx, idx] = energies
    return (*np.linalg.eigh(h + couplings), *np.linalg.eigh(h - couplings))


def _truncation_bound(eig: tuple[np.ndarray, ...], couplings: np.ndarray,
                      weights: np.ndarray, t_max: float) -> np.ndarray:
    """Error bound (n_beta, g) on each mode factor of a block kept to its first m levels.

    eig is the `_block_eigh` of the block on those m levels, couplings
    its full (g, d, d) B and weights its (n_beta, g, d) thermal weights.
    """
    m = eig[0].shape[-1]
    p = weights[..., :m]
    leak = couplings[:, m:, :m]
    bound = weights[..., m:].sum(axis=-1)
    for evecs in eig[1::2]:
        # ||B[m:, :m] u_j||: the rate at which eigenvector j leaves the kept levels
        rate = np.linalg.norm(leak @ evecs, axis=-2)
        bound = bound + t_max * np.einsum("bgn,gnj,gj->bg", p, np.abs(evecs), rate)
    return bound


def _kept_levels(energies: np.ndarray, couplings: np.ndarray, weights: np.ndarray,
                 t_max: float) -> tuple[int, tuple[np.ndarray, ...]]:
    """Kept level count m of a mode block and its `_block_eigh` on those levels.

    m starts at the fewest levels whose thermal tail is at most
    NEGLIGIBLE_TERM_MASS for every mode and beta, and grows by a quarter
    (at least 8 levels) until `_truncation_bound` is at most that too.
    Past three quarters of d the block keeps all d levels: there the cut
    saves little eigh time and may take several tries.
    """
    d = energies.shape[-1]
    tail = np.cumsum(weights[..., ::-1], axis=-1)[..., ::-1]
    m = int(np.count_nonzero(tail > NEGLIGIBLE_TERM_MASS, axis=-1).max())
    while 4 * m <= 3 * d:
        eig = _block_eigh(energies[:, :m], couplings[:, :m, :m])
        if _truncation_bound(eig, couplings, weights, t_max).max() <= NEGLIGIBLE_TERM_MASS:
            return m, eig
        m += max(8, m // 4)
    return d, _block_eigh(energies, couplings)


def _phase_terms(eig: tuple[np.ndarray, ...], weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terms-first (g T, n_beta) weights and (g T,) frequencies of a block of g modes.

    eig is the block's `_block_eigh` on its m kept levels and weights
    their (n_beta, g, m) thermal weights.  Mode k's trace factor at each
    beta is sum_{a,b} W[a,b] exp(i (L_plus[b] - L_minus[a]) t).  Each
    (beta, mode) is pruned from its smallest |W| up while the dropped
    mass stays below NEGLIGIBLE_TERM_MASS, which bounds the factor error
    by the same amount (|exp(i w t)| = 1).  Every mode keeps the union of
    its betas' terms, in index order, with zero weight where a beta
    dropped one, padded to a common count T with zero-weight terms.
    """
    evals_plus, evecs_plus, evals_minus, evecs_minus = eig
    a = evecs_minus.swapaxes(-1, -2) @ (weights[..., :, None] * evecs_plus)
    b = evecs_plus.swapaxes(-1, -2) @ evecs_minus
    n_beta, g, m = weights.shape
    w = (a * b.swapaxes(-1, -2)).reshape(n_beta, g, m * m)
    freqs = (evals_plus[:, None, :] - evals_minus[:, :, None]).reshape(g, m * m)
    keep = kernels.kept_terms(np.abs(w), NEGLIGIBLE_TERM_MASS)
    union = keep.any(axis=0)
    order = np.argsort(~union, axis=-1, kind="stable")[:, :union.sum(axis=-1).max()]
    w = np.take_along_axis(np.where(keep, w, 0.0), order[None], axis=-1)
    freqs = np.take_along_axis(freqs, order, axis=-1)
    return w.transpose(1, 2, 0).reshape(-1, n_beta), freqs.ravel()


def _block_terms(bath: Bath, t_max: float, modes: slice) -> tuple[np.ndarray, np.ndarray, int]:
    """Phase terms of a block of g modes of the bath: (g T, n_beta) weights, (g T,) freqs and g.

    The block keeps its first m levels (`_kept_levels`), takes one
    stacked eigh per sign on them and builds the terms of all its modes
    and betas (`_phase_terms`).
    """
    weights = bath.weights[:, modes]
    m, eig = _kept_levels(bath.energies[modes], bath.couplings[modes], weights, t_max)
    w, freqs = _phase_terms(eig, weights[..., :m])
    return w, freqs, weights.shape[1]


def _mode_blocks(bath: Bath) -> list[slice]:
    """Modes in blocks of at most _BLOCK_ELEMENTS / d^2, in mode order."""
    n_modes, d = bath.energies.shape
    size = max(1, _BLOCK_ELEMENTS // (d * d))
    return [slice(start, start + size) for start in range(0, n_modes, size)]


def _mode_product(phase: np.ndarray, n_beta: int, block_factors) -> np.ndarray:
    """chi (n_beta, n): exp(i omega_s t) times every mode factor, multiplied in mode order."""
    chi = np.repeat(phase[None], n_beta, axis=0)
    for factors in block_factors:
        for factor in factors:
            chi *= factor
    return chi


def _slab_factors(times: np.ndarray, slab: kernels.Slab | None,
                  terms: tuple[np.ndarray, np.ndarray, int], tables: list | None) -> np.ndarray:
    """Factors (g, n_beta, points) of a block's g modes on a slab (None: the whole grid)."""
    w, freqs, g = terms
    return kernels.phase_sum(w, freqs, times, groups=g, slab=slab, tables=tables)


def chi_traces(bath: Bath, omega_s: float, times: np.ndarray, map_blocks=map,
               threshold: float | None = None) -> np.ndarray:
    """Exact decay factor (n_beta, n') of every beta of one lam, sharing its eigendecompositions.

    map_blocks maps a function over the mode blocks and yields the
    results in block order, like the builtin ``map`` (the default) or
    ``Executor.map`` of a pool; chi does not depend on which.

    The rows are chi on times[:n'].  Without a threshold n' = n.  With
    one the rows end with the first slab of ``kernels.row_slabs(times)``
    by which every beta has had |chi| <= threshold, or with the grid.
    Terms, and offset tables where there are several slabs, are built
    once per block, so running to the end costs no more exponentials or
    product rows than one slab.

    chi is bit-reproducible only with numpy's OpenBLAS on one thread, as
    the CLI pins it; only there does a slab equal the same points of the
    whole grid bit for bit (see ``kernels``).
    """
    times = np.asarray(times, dtype=float)
    t_max = float(np.abs(times).max(initial=0.0))
    terms = list(map_blocks(functools.partial(_block_terms, bath, t_max), _mode_blocks(bath)))
    slabs = [None] if threshold is None else kernels.row_slabs(times)
    tables = [None] * len(terms) if len(slabs) == 1 else [
        list(kernels.offset_tables(freqs, slabs[0].offsets, groups=g)) for _, freqs, g in terms]
    n_beta = bath.weights.shape[0]
    parts, crossed = [], np.zeros(n_beta, dtype=bool)
    for slab in slabs:
        factors = map_blocks(functools.partial(_slab_factors, times, slab), terms, tables)
        phase = np.exp(1j * omega_s * (times if slab is None else times[slab.points]))
        # each slab's product in an array of its own: into a strided view of
        # the whole grid it runs about a third slower
        parts.append(_mode_product(phase, n_beta, factors))
        if slab is slabs[-1]:
            break
        crossed |= (np.abs(parts[-1]) <= threshold).any(axis=1)
        if crossed.all():
            break
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def chi_series(modes: list[BathMode], system: SystemConfig, times: np.ndarray) -> np.ndarray:
    """Exact decay factor (n,) of one beta's per-mode view: `chi_traces` of its modes stacked."""
    bath = Bath(omega=np.array([m.omega for m in modes]), g=np.array([m.g for m in modes]),
                energies=np.array([m.h_diag for m in modes]),
                couplings=np.array([m.b_matrix for m in modes]),
                weights=np.array([[m.weights for m in modes]]),
                partition=np.array([[m.partition for m in modes]]))
    return chi_traces(bath, system.omega_s, times)[0]
