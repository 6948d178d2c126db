"""Propagation of the closed plant-observer system and convergence diagnostics.

The outputs of a closed quantum system are operator-valued, but their
coefficients with respect to the initial-condition operators are plain
matrices: ``zp_coeffs(t) = [C_p, 0] e^{A t}``, with A the dynamics matrix
of the composite, and similarly for the observer.  In the composite's basis
the plant rows are constant and the observer is a network of harmonic
oscillators, so each coefficient is a sum of sinusoids at the frequencies of
one Hermitian ``eigh`` of the observer block.  This module computes from it
the coefficient trajectories, their exact running time averages and the
averaged error, all in closed form, and rate diagnostics of the convergence
of observer to plant outputs.  numpy is the only numerical runtime.  The
references that verify the record, a fixed-step RK4 integrator and scipy's
``expm``, live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import _times_theta
from .synthesis import AugmentedSystem, ObserverDesign

__all__ = [
    "TrajectoryRecord",
    "ConvergenceReport",
    "time_grid",
    "propagate",
    "time_average_error",
    "predicted_average_error",
    "DRIFT_TOL", "SLOPE_WINDOW", "MAX_RECORD_BYTES",
]

# Convergence verdict: time averages decay like 1/T.
DRIFT_TOL = 1e-6
SLOPE_WINDOW = (-1.3, -0.7)
# Largest array a grid may imply: its own times, or a record of 3 m w doubles per
# point, w = d in propagate's basis and n_p + n_o for the derived zp, zo and zo_avg.
MAX_RECORD_BYTES = 2**30


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ..., ending at (the grid point nearest) t_end.

    Refuses a grid whose times alone would exceed ``MAX_RECORD_BYTES``.
    """
    if not (t_end > 0 and dt > 0):
        raise ValueError(f"t_end and dt must be positive, got {t_end}, {dt}")
    steps = t_end / dt
    if not steps + 1 <= MAX_RECORD_BYTES / 8:
        raise ValueError(f"grid of {steps + 1:.3g} points (t_end = {t_end}, dt = {dt}) "
                         f"would exceed MAX_RECORD_BYTES = {MAX_RECORD_BYTES / 2**30:g} GiB")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ValueError(f"dt = {dt} too large for horizon {t_end}")
    return np.arange(n_steps + 1) * dt


@dataclass(frozen=True)
class TrajectoryRecord:
    """Coefficient trajectories of the plant and observer outputs.

    Kept in the composite's ``basis`` B (n x d): ``rows[k]`` is ``[c; zo_selector]
    Phi(t_k) B``, the 2m output rows in B's coordinates, and ``zo_avg_rows[k]``
    the exact ``(1/t_k) integral_0^{t_k}`` of their bottom m rows, at t = 0 its
    limit, the rows at 0.  Derived on first read, then kept: ``zp_coeffs``,
    ``zo_coeffs`` and ``zo_avg``, the m x n rows ``rows[k, :m] B^T``,
    ``rows[k, m:] B^T`` and ``zo_avg_rows[k] B^T``, row 0 exactly ``c``,
    ``zo_selector`` and ``zo_selector``, refused if the three exceed ``MAX_RECORD_BYTES``.
    ``reduction_residual`` bounds, to first order, the rows' distance from a full propagation.
    """

    times: np.ndarray
    basis: np.ndarray
    rows: np.ndarray
    zo_avg_rows: np.ndarray
    c: np.ndarray
    zo_selector: np.ndarray
    reduction_residual: float

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @cached_property
    def zp_coeffs(self) -> np.ndarray:
        return _map_back(self.rows[:, :self.c.shape[0]], self.basis, self.c)

    @cached_property
    def zo_coeffs(self) -> np.ndarray:
        return _map_back(self.rows[:, self.c.shape[0]:], self.basis, self.zo_selector)

    @cached_property
    def zo_avg(self) -> np.ndarray:
        return _map_back(self.zo_avg_rows, self.basis, self.zo_selector)


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics of time-averaged output convergence.

    ``final_error`` is the Frobenius distance of the averaged observer output
    coefficients from the plant's ``[C_p, 0]`` at the end of the horizon;
    ``decay_slope`` the least-squares slope of log(error) against log(T) over
    the trailing window (None when fewer than 5 samples are available);
    ``reduction_residual`` the record's (see ``propagate``).
    """

    final_error: float
    decay_slope: float | None
    reduction_residual: float
    passed: bool

    @property
    def first_failure(self) -> str | None:
        """The first check ``passed`` requires that fails, with its value and bound."""
        if not self.reduction_residual <= DRIFT_TOL:
            return f"reduction_residual {self.reduction_residual:.3e} > DRIFT_TOL {DRIFT_TOL:g}"
        slope = self.decay_slope
        if slope is None or not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
            return (f"decay_slope {'n/a' if slope is None else f'{slope:.3f}'} "
                    f"outside SLOPE_WINDOW {SLOPE_WINDOW}")
        return None


def _validate_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid must hold finite times")
    if times[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    if times.size > 1 and np.diff(times).min() <= 0:
        raise ValueError("time grid must be strictly increasing")
    return times


def _check_record(points: float, m: int, n: int) -> None:
    """Refuse ``points`` times whose record, 3 m n doubles each, exceeds ``MAX_RECORD_BYTES``."""
    if not 24 * points * m * n <= MAX_RECORD_BYTES:
        raise ValueError(f"grid of {points:.3g} points: its record of {3 * m * n} doubles per "
                         f"point would exceed MAX_RECORD_BYTES = {MAX_RECORD_BYTES / 2**30:g} GiB")


def _map_back(rows: np.ndarray, basis: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Rows k x m x d in ``basis`` coordinates as k x m x n rows, row 0 exactly ``first``."""
    _check_record(len(rows), first.shape[0], basis.shape[0])
    back = (rows.reshape(-1, basis.shape[1]) @ basis.T).reshape(*rows.shape[:2], -1)
    back[0] = first
    return back


def _observer_modes(r_o: np.ndarray):
    """``(R_o^{1/2}, R_o^{-1/2}, w, V)``, ``V diag(w) V^H = 2i R_o^{1/2} Theta_o R_o^{1/2}``:
    ``e^{2 Theta_o R_o t} = R_o^{-1/2} V diag(e^{-iwt}) V^H R_o^{1/2}``, the real w ascending
    and paired as +-w_j.  Raises ``ValueError`` unless ``r_o`` is positive definite.
    """
    lam, q = np.linalg.eigh(r_o)
    if not lam[0] > 0:
        raise ValueError(f"the observer block r_o must be positive definite, "
                         f"its least eigenvalue is {lam[0]:.3g}")
    root, inv_root = (q * np.sqrt(lam)) @ q.T, (q / np.sqrt(lam)) @ q.T
    w, v = np.linalg.eigh(2j * _times_theta(root) @ root)
    return root, inv_root, w, v


def propagate(aug: AugmentedSystem, times) -> TrajectoryRecord:
    """The output rows of the composite system over a time grid, in closed form.

    Only the 2m output rows ``[c; zo_selector] Phi(t_k)`` are carried, in ``aug.basis``
    B = diag(Q, I_{n_o}).  There ``B^T A B = [[0, 0], [X, Y]]``, ``Y = 2 Theta_o R_o``, once
    its m plant rows, zero in theory, are set to zero (A_0).  A row [p, o] at time t is
    then ``[p + o integral_0^t e^{Ys} ds X, o e^{Yt}]``, by ``_observer_modes``
    ``K_0 + sum_j (K_cj cos w_j t + K_sj sin w_j t)`` over the n_o / 2 positive w_j, and
    its exact time average the same K against ``[1, sin(w t) / (w t), (1 - cos w t) / (w t)]``:
    two real products for the whole grid, nothing stepped, row 0 exactly
    ``[c; zo_selector] B``.  What the rows leave out bounds, to first order, their
    distance from a full propagation: the record's ``reduction_residual``,
    ``|rows_0 (I - B B^T)|_2 + t_end max_k |rows_k|_F |B^T A - A_0 B^T|_2``.  Nothing
    n wide per grid point is allocated.  Refuses, before it allocates, a record of
    3 m d doubles per point beyond ``MAX_RECORD_BYTES``, and raises ``ValueError`` for
    a record that overflows or an observer block of ``aug.r`` that is not positive definite.
    """
    times = _validate_grid(times)
    b, m, d = aug.basis, aug.m, aug.basis.shape[1]
    _check_record(times.size, m, d)
    n_o, a, r_o = d - m, aug.a, aug.r[m - d:, m - d:]
    root, inv_root, w, v = _observer_modes(r_o)
    w, v = w[n_o // 2:], v[:, n_o // 2:]
    selectors = np.vstack([aug.c, aug.zo_selector])
    start = selectors @ b
    with np.errstate(over="ignore", invalid="ignore"):  # a record that overflows is refused
        leak = b.T @ a
        reduced_a = leak @ b
        reduced_a[:m] = 0.0
        leak -= reduced_a @ b.T
        # Y^-1 X = -R_o^-1 Theta_o X / 2; rows(t) = K_0 + 2 Re sum_j Z_j e^{-i w_j t} with
        # Z_j = (o R_o^{-1/2} V)_j (V^H R_o^{1/2} [Y^-1 X, I])_j
        y_inv_x = 0.5 * np.linalg.solve(r_o, _times_theta(reduced_a[m:, :m].T).T)
        right = v.conj().T @ root @ np.hstack([y_inv_x, np.eye(n_o)])
        z = (start[:, m:] @ inv_root @ v).T[:, :, None] * right[:, None, :]
        k_0 = np.hstack([start[:, :m] - 2.0 * z[:, :, :m].sum(axis=0).real,
                         np.zeros((2 * m, n_o))])
        k = np.concatenate([k_0[None], 2.0 * z.real, 2.0 * z.imag])
        x = np.multiply.outer(times, w)
        ones = np.ones((times.size, 1))
        rows = np.hstack([ones, np.cos(x), np.sin(x)]) @ k.reshape(len(k), -1)
        avg = (np.hstack([ones, np.sinc(x / np.pi), np.sin(x / 2) * np.sinc(x / (2 * np.pi))])
               @ k[:, m:].reshape(len(k), -1))
    if not all(np.isfinite(part).all() for part in (leak, rows, avg)):
        raise ValueError(f"the record of a composite with |A|_max {np.abs(a).max():.3g} "
                         f"over t_end = {times[-1]:g} overflows doubles")
    rows, avg = rows.reshape(times.size, 2 * m, d), avg.reshape(times.size, m, d)
    rows[0], avg[0] = start, start[m:]
    reduction_residual = (float(np.linalg.norm(selectors - start @ b.T, 2)) + float(times[-1])
                          * float(_distances(rows, 0.0).max()) * float(np.linalg.norm(leak, 2)))
    return TrajectoryRecord(times=times, basis=b, rows=rows, zo_avg_rows=avg,
                            c=aug.c, zo_selector=aug.zo_selector,
                            reduction_residual=reduction_residual)


# Elements per block of the verdict's temporaries, small next to any record.
_BLOCK = 2**14


def _distances(rows: np.ndarray, target) -> np.ndarray:
    """``norm(rows - target, axis=(1, 2))``, in blocks of about ``_BLOCK`` elements.

    Each block of differences is first scaled by the power of two of its largest
    entry, as in ``numerical_rank``, so that no square overflows.
    """
    distances = np.empty(len(rows))
    points = max(1, _BLOCK // rows[0].size)
    for k in range(0, distances.size, points):
        diff = rows[k:k + points] - target
        exp = np.frexp(np.abs(diff).max())[1]
        distances[k:k + points] = np.ldexp(np.linalg.norm(np.ldexp(diff, -exp), axis=(1, 2)), exp)
    return distances


def time_average_error(rec: TrajectoryRecord, aug: AugmentedSystem) -> ConvergenceReport:
    """Measure time-averaged convergence of observer outputs to plant outputs.

    The target of the averaged observer coefficients is the constant plant
    coefficient matrix ``[C_p, 0]``; the error is the Frobenius distance from
    it, read from the rows in the record's basis, never n wide.  The decay
    slope is fitted by least squares on (log T, log error) over all grid times
    in [t_end/32, t_end]; the record must cover at least t_end = 10.

    ``passed`` requires the record's ``reduction_residual`` to be within
    ``DRIFT_TOL`` and the fitted slope to fall inside ``SLOPE_WINDOW``.  With
    fewer than 5 samples in the window the slope is None and ``passed`` is
    false.
    """
    if rec.t_end < 10:
        raise ValueError(f"record must cover t_end >= 10, got {rec.t_end}")
    # X B^T - c = (X - c B) B^T - c (I - B B^T): orthogonal parts, |Y B^T|_F = |Y|_F
    target = aug.c @ rec.basis
    offset = _distances((aug.c - target @ rec.basis.T)[None], 0.0)[0]
    errors = np.hypot(_distances(rec.zo_avg_rows, target), offset)
    final_error = float(errors[-1])

    window = (rec.times >= rec.t_end / 32) & (rec.times > 0)
    decay_slope = None
    if np.count_nonzero(window) >= 5:
        # least-squares slope in closed form: x . y / x . x with x centred
        x = np.log(rec.times[window])
        x -= x.mean()
        y = np.log(np.maximum(errors[window], np.finfo(float).tiny))
        decay_slope = float(x @ y / (x @ x))

    report = ConvergenceReport(final_error=final_error,
                               decay_slope=decay_slope,
                               reduction_residual=rec.reduction_residual, passed=False)
    return replace(report, passed=report.first_failure is None)


def predicted_average_error(obs: ObserverDesign, c_p, times) -> np.ndarray:
    """``|(1/T) integral_0^T zo dt - [C_p, 0]|_F`` at each T of ``times``, in closed form.

    The coupling acts on the observer only through the constant ``R_c^T x_p``,
    so with ``A_o = 2 Theta_o R_o`` and ``X = [R_o^{-1} R_c^T, I]`` the error is
    ``[D, 0] + C_o A_o^{-1} (e^{A_o T} - I) X / T``.  ``D = -C_o R_o^{-1} R_c^T - C_p``
    is 0 for a consistent design and ``-C_p`` without coupling.  One ``eigh`` of
    ``2i R_o^{1/2} Theta_o R_o^{1/2} = V diag(w) V^H`` gives the averaged flow
    ``R_o^{-1/2} V diag(phi(w T)) V^H R_o^{1/2}``, ``phi(x) = (e^{-ix} - 1) / (-ix)``,
    so the squared error is a Hermitian form in ``phi``: O(len(times) n_o) memory.
    At T = 0, ``phi = 1`` gives ``|zo(0) - [C_p, 0]|_F``, as in ``TrajectoryRecord.zo_avg``.
    """
    times = _validate_grid(times)
    c_p = np.asarray(c_p, dtype=float)
    if c_p.shape != (obs.m, obs.r_c.shape[0]):
        raise ValueError(f"c_p must be {obs.m}x{obs.r_c.shape[0]}, got {c_p.shape}")
    root, inv_root, w, v = _observer_modes(obs.r_o)
    left = obs.c_o @ inv_root @ v                               # C_o R_o^{-1/2} V
    centre = inv_root @ obs.r_c.T                               # R_o^{1/2} R_o^{-1} R_c^T
    right = v.conj().T @ np.hstack([centre, root])              # V^H R_o^{1/2} X
    offset = -obs.c_o @ inv_root @ centre - c_p                 # D
    h = np.sum(left * (offset @ right[:, :c_p.shape[1]].T), axis=0)
    gram = (left.conj().T @ left) * (right.conj() @ right.T)
    x = np.multiply.outer(times, w)
    phi = np.exp(-0.5j * x) * np.sinc(x / (2.0 * np.pi))
    squared = (np.sum(offset**2) + 2.0 * (phi @ h).real
               + np.einsum("tj,tj->t", phi.conj(), phi @ gram.T).real)
    return np.sqrt(np.maximum(squared, 0.0))
