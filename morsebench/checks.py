"""Checks of the CLI outputs against references computed apart from the program.

The references share with the program only the discretized bath of
``morsebath.bath`` (level energies E, couplings B and thermal weights p
of every mode).  They use no phase-term pruning, no eigendecomposition
and no phase-sum kernel:

- the exact decay factor chi(t) comes from stepping every mode's
  tr(exp(-i H- t) rho exp(+i H+ t)), H+- = diag(E) +- B, with the dense
  one-step propagators expm(-+i H+- dt);
- Gamma(t) = 2 C0 t^2 + sum 4 w (1 - cos(Delta t)) / Delta^2 is summed
  over every level pair of every mode;
- the harmonic limit is the closed form
  exp(-sum_k 8 g_k^2 / w_k^2 sin^2(w_k t / 2) coth(beta w_k / 2)).

Every check returns the set of point indices (in CLI row order) that
failed.
"""

from __future__ import annotations

import io

import numpy as np
from scipy.linalg import expm

from morsebath.bath import BathConfig, BathMode, discretize

from workloads import Inputs

NO_CROSSING = -1.0
# A sampled tau_d must match the reference far inside one grid step.
TAU_TOL = 1e-6
# Deviation of the exact |chi| from the harmonic closed form allowed at
# lam ~ 400; the measured deviation is about 0.018.
HARMONIC_TOL = 0.02
# Bound on |chi| - 1 and |chi(0) - 1| from rounding.
UNIT_TOL = 1e-12
# The harmonic-limit Gamma drops level pairs with weight below this; the
# dropped mass bounds the error by 2 t_max^2 times it (see gamma_closed_form).
HARMONIC_DROP = 1e-24


def bath_modes(inputs: Inputs, lam: float, beta: float) -> list[BathMode]:
    return discretize(BathConfig(eta=inputs.eta, omega_c=1.0, k_modes=inputs.k_modes,
                                 lam=lam, beta=beta))


def dense_chi(modes: list[BathMode], times: np.ndarray, omega_s: float) -> np.ndarray:
    """Exact chi on a uniform grid by dense per-mode propagation."""
    h = np.array([np.diag(m.h_diag) for m in modes])
    b = np.array([m.b_matrix for m in modes])
    dt = times[1] - times[0]
    step_minus = expm(-1j * dt * (h - b))
    step_plus = expm(1j * dt * (h + b))
    state = np.array([np.diag(m.weights) for m in modes], dtype=complex)
    factors = np.empty(times.shape[0], dtype=complex)
    for j in range(times.shape[0]):
        factors[j] = np.prod(np.trace(state, axis1=1, axis2=2))
        state = step_minus @ state @ step_plus
    return np.exp(1j * omega_s * times) * factors


def gamma_closed_form(modes: list[BathMode], times: np.ndarray,
                      drop_below: float = 0.0) -> tuple[np.ndarray, float]:
    """Gamma(t) summed over level pairs, and a bound on the error of the dropped pairs.

    A pair of weight w adds at most 2 w t^2 (since 1 - cos x <= x^2 / 2),
    so dropping pairs with w < drop_below changes Gamma by at most
    2 t_max^2 times their summed weight.
    """
    c0 = 0.0
    dropped = 0.0
    weights, deltas = [], []
    for m in modes:
        p = m.weights
        b_tilde = m.b_matrix - float(p @ np.diag(m.b_matrix)) * np.eye(p.size)
        c0 += float(p @ np.diag(b_tilde) ** 2)
        w = p[:, None] * b_tilde ** 2
        pair = ~np.eye(p.size, dtype=bool)
        keep = pair & (w >= drop_below)
        dropped += float(w[pair & ~keep].sum())
        weights.append(w[keep])
        deltas.append((m.h_diag[:, None] - m.h_diag[None, :])[keep])
    w = np.concatenate(weights)
    d = np.concatenate(deltas)
    gamma = 2.0 * c0 * times ** 2
    for start in range(0, w.size, 4096):
        dk = d[start:start + 4096]
        gamma += (4.0 * w[start:start + 4096] / dk ** 2) @ (1.0 - np.cos(dk[:, None] * times))
    return gamma, 2.0 * times[-1] ** 2 * dropped


def gaussian_chi(modes: list[BathMode], times: np.ndarray, omega_s: float,
                 drop_below: float = 0.0) -> tuple[np.ndarray, float]:
    """exp(i (omega_s + 2 <B>) t - Gamma(t)) and the error bound of its Gamma."""
    shift = 2.0 * sum(float(m.weights @ np.diag(m.b_matrix)) for m in modes)
    gamma, bound = gamma_closed_form(modes, times, drop_below)
    return np.exp(1j * (omega_s + shift) * times - gamma), bound


def crossing_time(times: np.ndarray, ratio: np.ndarray, threshold: float) -> float:
    """First time |chi| reaches the threshold, interpolated linearly; -1 if never."""
    below = np.flatnonzero(ratio <= threshold)
    if below.size == 0:
        return NO_CROSSING
    i = int(below[0])
    if i == 0:
        return float(times[0])
    r0, r1 = ratio[i - 1], ratio[i]
    return float(times[i - 1] + (times[i] - times[i - 1]) * (r0 - threshold) / (r0 - r1))


def read_table(text: str, header: str) -> np.ndarray | None:
    """CSV body as floats, one row per line; a malformed line becomes a NaN row.

    Returns None when the header is wrong.
    """
    head, _, body = text.partition("\n")
    if head != header:
        return None
    n_cols = header.count(",") + 1
    if not body.strip():
        return np.empty((0, n_cols))
    try:
        return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError:
        rows = []
        for line in body.splitlines():
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError:
                row = []
            rows.append(row if len(row) == n_cols else [np.nan] * n_cols)
        return np.array(rows, dtype=float).reshape(-1, n_cols)


def _match_rows(inputs: Inputs, table: np.ndarray | None) -> tuple[dict[int, np.ndarray], set[int]]:
    """Row of each point; a point fails when missing, repeated or out of order."""
    points = inputs.points()
    if table is None:
        return {}, set(range(len(points)))
    index = {p: i for i, p in enumerate(points)}
    rows: dict[int, np.ndarray] = {}
    failed: set[int] = set()
    last = -1
    for row in table:
        i = index.get((row[0], row[1]))
        if i is None:
            continue
        if i in rows or i <= last:
            failed.add(i)
        rows[i] = row
        last = max(last, i)
    failed |= set(range(len(points))) - rows.keys()
    return rows, failed


def check_dephasing(inputs: Inputs, text: str) -> set[int]:
    """fig3_tau: every row present and in order, sampled tau_d against the dense reference."""
    rows, failed = _match_rows(inputs, read_table(text, "lambda,beta,eta,tau_d"))
    points = inputs.points()
    for i, row in rows.items():
        tau = row[3]
        if row[2] != inputs.eta or not (tau == NO_CROSSING or 0.0 <= tau <= inputs.t_max):
            failed.add(i)
    for i in set(inputs.sample) & rows.keys():
        chi = dense_chi(bath_modes(inputs, *points[i]), inputs.times, inputs.omega_s)
        tau_ref = crossing_time(inputs.times, np.abs(chi), inputs.threshold)
        if not abs(rows[i][3] - tau_ref) <= TAU_TOL:
            failed.add(i)
    return failed


def _time_average(inputs: Inputs, pointwise: np.ndarray) -> float:
    times = inputs.times
    return float(np.trapezoid(pointwise * inputs.rho01, times) / (times[-1] - times[0]))


def check_gaussian_error(inputs: Inputs, text: str, pointwise_text: str) -> set[int]:
    """fig5_gauss: sampled time_avg_error and e_chi against the reference; all pointwise rows."""
    rows, failed = _match_rows(inputs, read_table(text, "lambda,beta,eta,time_avg_error"))
    points = inputs.points()
    n_t = inputs.times.size
    table = read_table(pointwise_text, "lambda,beta,eta,t,e_chi")
    if table is None:
        return set(range(len(points)))
    if table.shape[0] > len(points) * n_t:
        failed.add(len(points) - 1)
    for i, (lam, beta) in enumerate(points):
        block = table[i * n_t:(i + 1) * n_t]
        if (block.shape[0] < n_t or np.any(block[:, 0] != lam) or np.any(block[:, 1] != beta)
                or np.any(block[:, 2] != inputs.eta)
                or not np.allclose(block[:, 3], inputs.times, rtol=1e-11, atol=1e-13)
                or not abs(block[0, 4]) <= UNIT_TOL or np.any(block[:, 4] < 0.0)):
            failed.add(i)
            continue
        e_chi = block[:, 4]
        if i not in rows or not np.isclose(rows[i][3], _time_average(inputs, e_chi),
                                           rtol=1e-9, atol=1e-15):
            failed.add(i)
            continue
        if i in inputs.sample:
            modes = bath_modes(inputs, lam, beta)
            exact = dense_chi(modes, inputs.times, inputs.omega_s)
            gauss, _ = gaussian_chi(modes, inputs.times, inputs.omega_s)
            e_ref = np.abs(exact - gauss)
            if (not np.allclose(e_chi, e_ref, rtol=0.0, atol=1e-9)
                    or not np.isclose(rows[i][3], _time_average(inputs, e_ref),
                                      rtol=1e-7, atol=1e-10)):
                failed.add(i)
    for i, row in rows.items():
        if row[2] != inputs.eta or not row[3] >= 0.0:
            failed.add(i)
    return failed


def harmonic_chi(modes: list[BathMode], times: np.ndarray, beta: float) -> np.ndarray:
    """|chi| of the harmonic bath with the same frequencies and couplings."""
    g = np.array([m.g for m in modes])[:, None]
    w = np.array([m.omega for m in modes])[:, None]
    exponent = 8.0 * g ** 2 / w ** 2 * np.sin(w * times / 2.0) ** 2 / np.tanh(beta * w / 2.0)
    return np.exp(-exponent.sum(axis=0))


def check_dynamics(inputs: Inputs, text: str) -> set[int]:
    """harmonic: chi(0) = 1, |chi| <= 1, the harmonic limit, and the Gaussian columns."""
    table = read_table(text, "t,re_chi,im_chi,abs_chi,re_chi_gauss,im_chi_gauss,abs_chi_gauss")
    times = inputs.times
    if table is None or table.shape[0] != times.size or np.isnan(table).any():
        return {0}
    t, chi, abs_chi = table[:, 0], table[:, 1] + 1j * table[:, 2], table[:, 3]
    gauss, abs_gauss = table[:, 4] + 1j * table[:, 5], table[:, 6]
    lam, beta = inputs.points()[0]
    modes = bath_modes(inputs, lam, beta)
    gauss_ref, bound = gaussian_chi(modes, times, inputs.omega_s, HARMONIC_DROP)
    gauss_tol = 1e-9 + bound
    ok = (np.allclose(t, times, rtol=1e-11, atol=1e-13)
          and abs(chi[0] - 1.0) <= UNIT_TOL
          and abs_chi.max() <= 1.0 + UNIT_TOL
          and np.allclose(abs_chi, np.abs(chi), rtol=0.0, atol=1e-11)
          and np.abs(abs_chi - harmonic_chi(modes, times, beta)).max() <= HARMONIC_TOL
          and np.abs(gauss - gauss_ref).max() <= gauss_tol
          and np.abs(abs_gauss - np.abs(gauss_ref)).max() <= gauss_tol)
    return set() if ok else {0}


def check_outputs(inputs: Inputs, texts: list[str]) -> set[int]:
    """Failed points of one CLI run, given the text of each file it wrote."""
    if inputs.command == "sweep-dephasing":
        return check_dephasing(inputs, texts[0])
    if inputs.command == "gaussian-error":
        return check_gaussian_error(inputs, texts[0], texts[1])
    return check_dynamics(inputs, texts[0])
