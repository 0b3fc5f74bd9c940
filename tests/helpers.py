"""Shared builders for the test suite, and references that only tests use."""

import dataclasses
import functools
import math

import numpy as np

from morsebath import bath_arrays, cli, kernels, runner
from morsebath.morse import wavefunction_z


def make_arrays(lam, betas, eta=2.0, k_modes=40, omega_c=1.0):
    return bath_arrays(eta, omega_c, k_modes, lam, betas)


def sweep_rows(command, cfg, threads):
    """Rows of every (lambda, beta) of a sweep command: ``cli._sweep_point`` over its lambdas."""
    points = runner.map_lambdas(functools.partial(cli._sweep_point, command, cfg), cfg.lambdas,
                                runner.workers(threads))
    return [row for point in points for row in point]


def mode_bath(bath, modes):
    """Bath of the modes that the slice modes selects, with all their betas."""
    return dataclasses.replace(
        bath, omega=bath.omega[modes], g=bath.g[modes], energies=bath.energies[modes],
        couplings=bath.couplings[modes], weights=bath.weights[:, modes],
        partition=bath.partition[:, modes])


def renormalized(bath):
    """One-beta bath whose couplings are B_k - <B_k>, so their thermal means vanish."""
    (mean_b,) = bath.mean_b
    eye = np.eye(bath.energies.shape[1])
    return dataclasses.replace(bath, couplings=bath.couplings - mean_b[:, None, None] * eye)


def apply_map(rho0, chi_value):
    """Apply the dephasing map: populations frozen, coherence times chi.

    The [1, 0] entry (<-|rho|+> in the sigma_z eigenbasis) is multiplied
    by chi_value and the [0, 1] entry is its conjugate, so Hermiticity
    and the trace are preserved exactly.
    """
    rho = np.asarray(rho0, dtype=complex)
    out = rho.copy()
    out[1, 0] = chi_value * rho[1, 0]
    out[0, 1] = np.conj(out[1, 0])
    return out


def trace_distance(a, b):
    """Trace distance (1/2) Tr |a - b| of two 2x2 Hermitian matrices.

    Uses the closed-form 2x2 eigenvalues of the Hermitian difference.
    """
    m = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    tr = float(m[0, 0].real + m[1, 1].real)
    det = float(m[0, 0].real * m[1, 1].real - abs(m[0, 1]) ** 2)
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    e1 = 0.5 * (tr + disc)
    e2 = 0.5 * (tr - disc)
    return 0.5 * (abs(e1) + abs(e2))


def wavefunction(lam, n, x):
    """Bound-state amplitude at dimensionless coordinate x."""
    big_n = lam - 0.5
    z = (2.0 * big_n + 1.0) * math.exp(-x)
    return wavefunction_z(lam, n, z)


def reference_gamma_sum(weights, deltas, offset, times):
    """``kernels.gamma_sum`` as it was with one set of trig tables per term.

    The kernel now takes the tables once per distinct |delta|; its
    matrix-product operands, and so its result, must equal these bit for bit.
    """
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    cols = weights.shape[1:]
    w = weights.reshape(weights.shape[0], math.prod(cols))
    t2 = times * times
    out = np.zeros((w.shape[1], times.shape[0]))
    out += 2.0 * np.asarray(offset, dtype=np.float64).reshape(-1, 1) * t2
    small = np.abs(deltas) < kernels.ZERO_FREQ_TOL
    if np.any(small):
        out += 2.0 * w[small].sum(axis=0)[:, None] * t2
    d = deltas[~small]
    coef = 4.0 * w[~small] / (d * d)[:, None]
    starts, offsets = kernels._uniform_split(times)
    ones = np.ones((1, offsets.shape[0]))

    def factors():
        for k in kernels._chunks(d.shape[0]):
            dk, ck = d[k, None], coef[k, :, None]
            a = dk * starts
            half_a = np.sin(0.5 * a)
            half_b = np.sin(0.5 * dk * offsets)
            rows = (dk.shape[0], coef.shape[1] * starts.shape[0])
            left = np.concatenate([(ck * np.cos(a)[:, None]).reshape(rows),
                                   (ck * np.sin(a)[:, None]).reshape(rows),
                                   (coef[k].T @ (2.0 * half_a * half_a)).reshape(1, -1)])
            yield (left[None],
                   np.concatenate([2.0 * half_b * half_b, np.sin(dk * offsets), ones])[None])

    out = out + kernels._blocked_sum(factors(), (1, w.shape[1]), times.shape[0])[0]
    return out.reshape(cols + (-1,))


def reference_mean_b(bath):
    """<B_k> (n_beta, K) as one dot of fresh vectors per (beta, mode).

    This is the loop ``Bath.mean_b`` had; its ``np.vecdot`` call must equal
    it bit for bit.
    """
    diags = [np.diag(b) for b in bath.couplings]
    return np.array([[p.copy() @ b for p, b in zip(rows, diags)] for rows in bath.weights])


def reference_offset_c0(bath):
    """C0 (n_beta,) as one dot of fresh vectors per (beta, mode), summed over the modes in order.

    This is the loop ``build_correlation`` had; its ``np.vecdot`` call must
    equal it bit for bit.
    """
    diag = np.diagonal(bath.couplings, axis1=-2, axis2=-1)
    bt_diag = diag - reference_mean_b(bath)[..., None]
    return np.cumsum([[pk.copy() @ (bk * bk) for pk, bk in zip(pb, btb)]
                      for pb, btb in zip(bath.weights, bt_diag)], axis=-1)[:, -1]


def reference_offset_tables(freqs, offsets):
    """``kernels.offset_tables`` as it was, each table np.exp of 1j * f * s dt."""
    f = np.ascontiguousarray(freqs, dtype=np.float64)
    f = f.reshape(math.prod(f.shape[:-1]), f.shape[-1], 1)
    for k in kernels._chunks(f.shape[1], f.shape[0]):
        yield np.exp(1j * f[:, k] * offsets)


def reference_exp_phase_sum(weights, freqs, times, slab=None):
    """``kernels.phase_sum`` as it was, its start and offset tables taken with np.exp.

    The kernel now writes cos and sin into the two planes of each table;
    its result must equal this one bit for bit.
    """
    weights = np.ascontiguousarray(weights, dtype=np.complex128)
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    g = math.prod(freqs.shape[:-1])
    f = freqs.reshape(g, freqs.shape[-1], 1)
    cols = weights.shape[1:]
    c = math.prod(cols)
    w = weights.reshape(f.shape[:2] + (c,))
    if slab is None:
        (starts, offsets), n = kernels._uniform_split(times), times.shape[0]
    else:
        starts, offsets, points = slab
        n = points.stop - points.start
    rights = reference_offset_tables(freqs, offsets)

    def factors():
        for k in kernels._chunks(w.shape[1], g):
            left = w[:, k, :, None] * np.exp(1j * f[:, k] * starts)[:, :, None, :]
            yield left.reshape(g, left.shape[1], c * starts.shape[0]), next(rights)

    out = kernels._blocked_sum(factors(), (g, c), n)
    return out.reshape(freqs.shape[:-1] + cols + (n,))
