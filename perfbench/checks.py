"""Correctness checks computed apart from qobserver.

Each check takes plain arrays, recomputes what the theory says they must be
with numpy and ``scipy.linalg.expm`` alone, and raises ``CheckFailed`` with
the measured residual when they are not.  It returns the residual otherwise,
so the run can report how far from its bound it was.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from inputs import commutation

DRIFT_TOL = 1e-6
CONSISTENCY_TOL = 1e-10
# [C_p, 0] A_a = 0 relative to ||C_p|| ||A_a||: a few hundred ulps of the
# largest products, with room for n_p = 200.
DECOUPLING_TOL = 1e-12
# Propagated coefficients against a direct expm, relative to the larger of
# 1 and the reference's largest entry.  The one-step exponential carries a
# relative error near 1e-13, which 20 000 steps of powering grow to about
# 3e-9.
EXPM_TOL = 1e-7
SLOPE_WINDOW = (-1.3, -0.7)
# Frobenius distance of the six-mode time averages from their closed form
# for T >= 10.  The
# leading error term of a trapezoidal running average with step h bounds
# its bias by h^2 ||[-C_p, I]|| / (3 T), 1.05e-5 at h = 0.01 and T = 10; an
# exact average is off by round-off only.
AVG_TOL = 5e-5


class CheckFailed(AssertionError):
    """An output of qobserver disagrees with the independent reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def augmented_dynamics(r_p, r_c, r_o) -> np.ndarray:
    """A_a = 2 Theta_a R_a with Theta_a = diag(Theta_p, Theta_o)."""
    n_p, n_o = r_p.shape[0], r_o.shape[0]
    theta_a = scipy.linalg.block_diag(commutation(n_p // 2), commutation(n_o // 2))
    r_a = np.block([[r_p, r_c], [r_c.T, r_o]])
    return 2.0 * theta_a @ r_a


def check_drift(zp: np.ndarray) -> float:
    """Plant output coefficients stay at their initial value.

    Reductions only, so the check adds no record-sized array to the peak
    memory of the run.
    """
    drift = float(max((zp.max(axis=0) - zp[0]).max(), (zp[0] - zp.min(axis=0)).max()))
    _require(drift <= DRIFT_TOL, f"plant output drift {drift:.3e} > {DRIFT_TOL}")
    return drift


def check_design(m: int, c_p, r_o, c_o, beta, a_a) -> None:
    """Observer order, the consistency equation and output decoupling."""
    n_o = r_o.shape[0]
    want = m if m % 2 == 0 else m + 1
    _require(n_o == want, f"observer order {n_o} for m = {m}, expected {want}")
    consistency = float(np.abs(-c_o @ np.linalg.solve(r_o, beta) - np.eye(m)).max())
    _require(consistency <= CONSISTENCY_TOL,
             f"-C_o R_o^-1 beta = I residual {consistency:.3e} > {CONSISTENCY_TOL}")
    sel = np.hstack([c_p, np.zeros((m, n_o))])
    scale = np.linalg.norm(c_p) * np.linalg.norm(a_a)
    decoupling = float(np.abs(sel @ a_a).max() / scale)
    _require(decoupling <= DECOUPLING_TOL,
             f"[C_p, 0] A_a relative residual {decoupling:.3e} > {DECOUPLING_TOL}")


def check_expm(times, pairs, a_a, checkpoints) -> float:
    """Coefficients at the checkpoint indices equal selector @ expm(A_a t).

    ``pairs`` holds (coefficient trajectory, selector) pairs that share the
    propagator.
    """
    worst = 0.0
    for k in checkpoints:
        phi = scipy.linalg.expm(a_a * times[k])
        for coeffs, selector in pairs:
            ref = selector @ phi
            dev = float(np.abs(coeffs[k] - ref).max())
            _require(dev <= EXPM_TOL * max(1.0, float(np.abs(ref).max())),
                     f"coefficients at t = {times[k]:g} off a direct expm by {dev:.3e}")
            worst = max(worst, dev)
    return worst


def check_slope(times, zo_avg, target) -> float:
    """Least-squares slope of log error against log T over [t_end/32, t_end]."""
    start = max(1, int(np.searchsorted(times, times[-1] / 32)))
    errors = [np.linalg.norm(avg - target) for avg in zo_avg[start:]]
    slope = float(np.polyfit(np.log(times[start:]), np.log(errors), 1)[0])
    lo, hi = SLOPE_WINDOW
    _require(lo <= slope <= hi, f"decay slope {slope:.3f} outside [{lo}, {hi}]")
    return slope


def check_closed_form_average(times, zo_avg, target, offset) -> float:
    """Six-mode time averages against their closed form for T >= 10.

    With R_o = I, C_o = I and beta = -I the observer error rotates as
    e^{2 Theta_o t} applied to the initial offset [-C_p, I], so its average
    over [0, T] is (sin 2T I + (1 - cos 2T) Theta_o) [-C_p, I] / (2T), whose
    Frobenius norm is |sin T| / T ||[-C_p, I]||.  The whole matrix is
    compared, not only that norm: a first-order quadrature bias is
    orthogonal to the error and would leave the norm unchanged.
    """
    late = times >= 10.0
    t = times[late][:, None, None]
    theta_o = commutation(offset.shape[0] // 2)
    closed = (np.sin(2 * t) * offset + (1 - np.cos(2 * t)) * (theta_o @ offset)) / (2 * t)
    bias = float(np.linalg.norm(zo_avg[late] - target - closed, axis=(1, 2)).max())
    _require(bias <= AVG_TOL, f"time average off its closed form by {bias:.3e} > {AVG_TOL}")
    return bias


def read_long_csv(text: str) -> dict[str, np.ndarray]:
    """Matrices from the long form ``matrix,row,col,value``, 0-based.

    Every cell of each matrix must be listed exactly once.
    """
    lines = text.splitlines()
    _require(lines[:1] == ["matrix,row,col,value"], f"unexpected matrix CSV header {lines[:1]}")
    cells: dict[str, dict[tuple[int, int], float]] = {}
    for line in lines[1:]:
        name, i, j, value = line.split(",")
        matrix = cells.setdefault(name, {})
        _require((int(i), int(j)) not in matrix, f"{name}[{i}, {j}] listed twice")
        matrix[int(i), int(j)] = float(value)
    out = {}
    for name, matrix in cells.items():
        rows = 1 + max(i for i, _ in matrix)
        cols = 1 + max(j for _, j in matrix)
        _require(len(matrix) == rows * cols, f"{name}: {rows * cols - len(matrix)} cells missing")
        out[name] = np.empty((rows, cols))
        for (i, j), value in matrix.items():
            out[name][i, j] = value
    return out


def checkpoint_indices(n_t: int, count: int = 6) -> list[int]:
    return sorted(set(np.linspace(0, n_t - 1, count).round().astype(int).tolist()))
