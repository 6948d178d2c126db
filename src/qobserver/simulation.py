"""Propagation of the closed plant-observer system and convergence diagnostics.

The outputs of a closed quantum system are operator-valued, but their
coefficients with respect to the initial-condition operators are plain
matrices: ``zp_coeffs(t) = [C_p, 0] e^{A_a t}`` and similarly for the
observer.  This module computes those coefficient trajectories, their
running time averages, and rate diagnostics for the time-averaged
convergence of observer outputs to plant outputs.  A fixed-step RK4
integrator provides an independent verification path for the matrix
exponential propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import cumulative_trapezoid

from .synthesis import AugmentedSystem, ObserverDesign

__all__ = [
    "TrajectoryRecord",
    "ConvergenceReport",
    "matrix_exponential",
    "time_grid",
    "propagate",
    "time_average_error",
    "ode_oracle",
    "averaging_error_bound",
    "DRIFT_TOL", "SLOPE_WINDOW", "DIVERGENCE_TOL",
]

# Convergence verdict (time averages decay like 1/T) and RK4 divergence limit.
DRIFT_TOL = 1e-6
SLOPE_WINDOW = (-1.3, -0.7)
DIVERGENCE_TOL = 1e-3


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix.

    Scaling-and-squaring with a degree-13 Pade approximant and norm-based
    scaling selection (scipy's expm).  Exact on nilpotent matrices up to
    rounding; relative accuracy ~1e-10 or better for the moderate norms
    used here.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exponential needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exponential needs finite entries")
    return scipy.linalg.expm(a)


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ..., ending at (the grid point nearest) t_end."""
    if not (t_end > 0 and dt > 0):
        raise ValueError(f"t_end and dt must be positive, got {t_end}, {dt}")
    n_steps = int(round(t_end / dt))
    if n_steps < 1:
        raise ValueError(f"dt = {dt} too large for horizon {t_end}")
    return np.arange(n_steps + 1) * dt


@dataclass(frozen=True)
class TrajectoryRecord:
    """Coefficient trajectories of the plant and observer outputs.

    ``zp_coeffs[k]`` and ``zo_coeffs[k]`` are the m x (n_p + n_o)
    coefficient matrices at ``times[k]``: the top and bottom halves of the
    2m output rows ``[zp_selector; zo_selector] Phi(t_k)``.  ``zo_avg[k]``
    is the running time average ``(1/t_k) integral_0^{t_k} zo_coeffs dt``
    (trapezoidal), with the t = 0 entry set to its continuous limit
    ``zo_coeffs[0]``.  For a single-point grid ``zo_avg`` is empty.
    """

    times: np.ndarray
    zp_coeffs: np.ndarray
    zo_coeffs: np.ndarray
    zo_avg: np.ndarray

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics of time-averaged output convergence.

    ``zp_drift`` is the worst excursion of any plant output coefficient
    from its initial value; ``final_error`` the Frobenius distance of the
    averaged observer coefficients from the (constant) plant coefficients
    at the end of the horizon; ``decay_slope`` the least-squares slope of
    log(error) against log(T) over the trailing window (None when fewer
    than 5 samples are available).
    """

    zp_drift: float
    final_error: float
    decay_slope: float | None
    passed: bool


def _record(times: np.ndarray, rows: np.ndarray, m: int) -> TrajectoryRecord:
    """Split the stacked output rows and add the trapezoidal running average."""
    zo = rows[:, m:]
    if len(times) < 2:
        zo_avg = np.zeros((0,) + zo.shape[1:])
    else:
        integral = cumulative_trapezoid(zo, times, axis=0, initial=0.0)
        zo_avg = np.empty_like(zo)
        zo_avg[0] = zo[0]
        zo_avg[1:] = integral[1:] / times[1:, None, None]
    return TrajectoryRecord(times=times, zp_coeffs=rows[:, :m], zo_coeffs=zo, zo_avg=zo_avg)


def _validate_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if times[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    if times.size > 1 and np.diff(times).min() <= 0:
        raise ValueError("time grid must be strictly increasing")
    return times


def propagate(aug: AugmentedSystem, times) -> TrajectoryRecord:
    """Propagate the output rows of the composite system over a time grid.

    Only the 2m output rows ``[zp_selector; zo_selector] Phi(t_k)`` are
    carried, stepped by ``rows[k+1] = rows[k] e^{A_a h_k}``; this is exact
    because the propagator commutes with its own steps.  Steps that agree
    to 1e-9 of the largest step share one exponential, taken at their mean,
    so a uniform grid costs one ``matrix_exponential`` and a grid with s
    distinct steps costs s.
    """
    times = _validate_grid(times)
    rows = np.empty((times.size, 2 * aug.m, aug.n))
    rows[0] = np.vstack([aug.zp_selector, aug.zo_selector])
    steps = np.diff(times)
    if steps.size:
        _, group = np.unique(np.round(steps / steps.max(), 9), return_inverse=True)
        means = np.bincount(group, weights=steps) / np.bincount(group)
        exps = [matrix_exponential(aug.a_a * h) for h in means]
        for k, g in enumerate(group.tolist()):
            rows[k + 1] = rows[k] @ exps[g]
    return _record(times, rows, aug.m)


def time_average_error(rec: TrajectoryRecord, aug: AugmentedSystem) -> ConvergenceReport:
    """Measure time-averaged convergence of observer outputs to plant outputs.

    The target of the averaged observer coefficients is the constant plant
    coefficient matrix ``[C_p, 0]``.  The decay slope is fitted by least
    squares on (log T, log error) over all grid times in
    [t_end/32, t_end]; the record must cover at least t_end = 10.

    ``passed`` requires the plant coefficients to have stayed constant to
    ``DRIFT_TOL`` and the fitted slope to fall inside ``SLOPE_WINDOW``.
    With fewer than 5 samples in the window the slope is None and
    ``passed`` is false.
    """
    if rec.t_end < 10:
        raise ValueError(f"record must cover t_end >= 10, got {rec.t_end}")
    target = rec.zp_coeffs[0]
    zp_drift = float(np.abs(rec.zp_coeffs - target).max())

    errors = np.linalg.norm(rec.zo_avg - aug.zp_selector, axis=(1, 2))
    final_error = float(errors[-1])

    window = (rec.times >= rec.t_end / 32) & (rec.times > 0)
    decay_slope = None
    if np.count_nonzero(window) >= 5:
        log_t = np.log(rec.times[window])
        log_e = np.log(np.maximum(errors[window], np.finfo(float).tiny))
        decay_slope = float(np.polyfit(log_t, log_e, 1)[0])

    passed = (zp_drift <= DRIFT_TOL and decay_slope is not None
              and SLOPE_WINDOW[0] <= decay_slope <= SLOPE_WINDOW[1])
    return ConvergenceReport(zp_drift=zp_drift, final_error=final_error,
                             decay_slope=decay_slope, passed=passed)


def ode_oracle(aug: AugmentedSystem, t_end: float, dt: float | None = None) -> TrajectoryRecord:
    """Independent trajectory via classical fixed-step RK4 on X' = A_a X.

    For a constant linear system the four RK4 stages collapse to one fixed
    degree-4 polynomial step map, computed once and applied per step; this
    is the textbook method, just not re-derived every step.  The step must
    resolve the fastest oscillation: dt <= 1e-3 * (2 pi / ||A_a||_2) by
    default.  Agreement with ``propagate`` at shared grid points is ~1e-7
    for the systems of interest at that step size.

    The full propagator X is integrated so that the commutation-preservation
    residual can be monitored; exceeding ``DIVERGENCE_TOL`` (relative to
    the propagator's squared norm) aborts with a RuntimeError, which
    catches an unstable step size.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    norm_a = np.linalg.norm(aug.a_a, 2)
    if dt is None:
        dt = 1e-3 * (2.0 * np.pi / norm_a) if norm_a > 0 else t_end / 1000.0
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps
    times = np.arange(n_steps + 1) * h

    n = aug.n
    a = aug.a_a
    eye = np.eye(n)
    step = eye + h * a @ (eye + (h / 2) * a @ (eye + (h / 3) * a @ (eye + (h / 4) * a)))

    selectors = np.vstack([aug.zp_selector, aug.zo_selector])
    rows = np.empty((n_steps + 1,) + selectors.shape)
    x = eye.copy()
    check_every = max(1, n_steps // 50)
    for k in range(n_steps + 1):
        rows[k] = selectors @ x
        if k % check_every == 0:
            scale = max(1.0, float(np.linalg.norm(x, "fro") ** 2))
            residual = np.abs(x @ aug.theta_a @ x.T - aug.theta_a).max()
            if not np.isfinite(residual) or residual / scale > DIVERGENCE_TOL:
                raise RuntimeError(
                    f"integration diverged at t = {times[k]:.3g} "
                    f"(commutation residual {residual:.3e}); reduce dt")
        if k < n_steps:
            x = step @ x

    return _record(times, rows, aug.m)


def averaging_error_bound(obs: ObserverDesign, c_p: np.ndarray) -> float:
    """Constant K such that the averaging error is bounded by K/T.

    Derived from energy conservation of the observer error dynamics: the
    flow ``e^{2 Theta_o R_o t}`` has spectral norm at most
    ``sqrt(lmax(R_o)/lmin(R_o))``, so the time average of the oscillatory
    part decays like 1/T with constant

        (0.5 sqrt(lmax/lmin) + 0.5) * ||R_o^{-1} Theta_o^{-1}||

    scaled by ``||C_o||`` and the norm of the initial coefficient offset
    ``[R_o^{-1} beta C_p, I]``.  Norms are spectral; for an m-row error
    matrix the Frobenius error exceeds this by at most sqrt(m).
    """
    evals = np.linalg.eigvalsh(obs.r_o)
    ratio = np.sqrt(evals[-1] / evals[0])
    inv_part = np.linalg.norm(
        np.linalg.solve(obs.r_o, np.linalg.inv(obs.theta_o)), 2)
    offset = np.hstack([np.linalg.solve(obs.r_o, obs.beta @ np.asarray(c_p, float)),
                        np.eye(obs.n_o)])
    return float((0.5 * ratio + 0.5) * inv_part
                 * np.linalg.norm(obs.c_o, 2) * np.linalg.norm(offset, 2))
