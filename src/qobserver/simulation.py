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
# Largest array a caller may ask for: a grid's times, or a read of a record's coefficients.
MAX_RECORD_BYTES = 2**30


def time_grid(t_end: float, dt: float) -> np.ndarray:
    """Uniform grid 0, dt, 2 dt, ..., ending at (the grid point nearest) t_end, refused if
    its times alone would exceed ``MAX_RECORD_BYTES``."""
    if not (t_end > 0 and dt > 0):
        raise ValueError(f"t_end and dt must be positive, got {t_end}, {dt}")
    steps = t_end / dt
    if not steps + 1 <= MAX_RECORD_BYTES / 8:
        raise ValueError(f"grid of {steps + 1:.3g} points (t_end = {t_end}, dt = {dt}) "
                         f"would exceed MAX_RECORD_BYTES = {MAX_RECORD_BYTES / 2**30:g} GiB")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ValueError(f"dt = {dt} too large for horizon {t_end}")
    grid = np.arange(n_steps + 1, dtype=float)
    return np.multiply(grid, dt, out=grid)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Coefficient trajectories of the plant and observer outputs, kept as their closed form.

    In the composite's ``basis`` B (n x d) the 2m output rows ``[c; zo_selector] Phi(t) B``
    are ``[1, cos(w t), sin(w t)] @ k``, ``start`` at t = 0, and the exact ``(1/t)
    integral_0^t`` of their bottom m rows is ``[1, sinc, (1 - cos) / x]`` of ``x = w t``
    against the same ``k``.  ``rows`` forms any block of them; ``coefficients`` maps it back
    to the m x n original-coordinate rows, and ``zp_coeffs``, ``zo_coeffs`` and ``zo_avg``
    are its full reads; an ``assemble_augmented`` composite's plant rows have no sinusoid
    terms, so their reads form one row.  ``reduction_residual``: see ``propagate``.
    """

    times: np.ndarray
    basis: np.ndarray
    start: np.ndarray
    k: np.ndarray
    w: np.ndarray
    c: np.ndarray
    zo_selector: np.ndarray
    reduction_residual: float

    t_end = property(lambda self: float(self.times[-1]))

    def rows(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The m x d rows of ``name`` ("zp", "zo" or "zo_avg"; "z" the 2m rows of both) in
        the basis at ``times[start:stop]``, formed from ``k``, row 0 exactly ``start``'s."""
        m = self.c.shape[0]
        part = {"z": slice(None), "zp": slice(m), "zo": slice(m, None),
                "zo_avg": slice(m, None)}[name]
        times = self.times[start:stop]
        # numpy forms a one-row product by gemv, which rounds otherwise: two rows at least
        x = np.multiply.outer(np.repeat(times, 2) if times.size == 1 else times, self.w)
        waves = ((np.sinc(x / np.pi), np.sin(x / 2) * np.sinc(x / (2 * np.pi)))
                 if name == "zo_avg" else (np.cos(x), np.sin(x)))
        rows = np.hstack([np.ones((len(x), 1)), *waves]) @ self.k[:, part].reshape(len(self.k), -1)
        rows = rows[:times.size].reshape(times.size, *self.start[part].shape)
        if 0 in range(self.times.size)[start:stop]:
            rows[0] = self.start[part]
        return rows

    def coefficients(self, name: str, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The m x n rows of ``name`` at ``times[start:stop]``, the row at t = 0 exactly ``c``
        or ``zo_selector``: ``rows(name, start, stop) @ basis.T``, refused if three arrays of
        its size, 24 k m n bytes for k times, would exceed ``MAX_RECORD_BYTES``.  Plant rows
        with no sinusoid terms are one row, ``k[0, :m] @ basis.T``, formed once and repeated."""
        first = {"zp": self.c, "zo": self.zo_selector, "zo_avg": self.zo_selector}[name]
        (m, n), d = first.shape, self.basis.shape[1]
        index = range(self.times.size)[start:stop]
        if not 24 * len(index) * m * n <= MAX_RECORD_BYTES:
            raise ValueError(f"a read of {len(index)} points of {3 * m * n} doubles per point "
                             f"would exceed MAX_RECORD_BYTES = {MAX_RECORD_BYTES / 2**30:g} GiB")
        if name == "zp" and not self.k[1:, :m].any():
            # formed as two rows: a gemm, as below, rounds as it does
            row = (np.concatenate((self.k[0, :m], self.k[0, :m])) @ self.basis.T)[:m]
            back = row[None].repeat(len(index), axis=0)
        else:
            back = (self.rows(name, start, stop).reshape(-1, d) @ self.basis.T).reshape(-1, m, n)
        if 0 in index:
            back[0] = first
        return back

    zp_coeffs = property(lambda self: self.coefficients("zp"))
    zo_coeffs = property(lambda self: self.coefficients("zo"))
    zo_avg = property(lambda self: self.coefficients("zo_avg"))


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
    its exact time average the same K against ``[1, sin(w t) / (w t), (1 - cos w t) / (w t)]``.
    The record keeps K and w, and ``TrajectoryRecord.rows`` forms blocks from them.  Its
    ``reduction_residual``, read block by block, bounds to first order the rows' distance
    from a full propagation: ``|rows_0 (I - B B^T)|_2 + t_end max_k |rows_k|_F |B^T A -
    A_0 B^T|_2``.  Raises ``ValueError`` for an observer block of ``aug.r`` that is not
    positive definite and, before it forms any row, for a record that overflows: one whose
    ``B^T A - A_0 B^T``, entrywise sum of |K| or ``t_end max w`` is not finite.
    """
    times = _validate_grid(times)
    b, m, d = aug.basis, aug.m, aug.basis.shape[1]
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
        bounds = (leak, np.abs(k).sum(axis=0), times[-1] * w)
    if not all(np.isfinite(part).all() for part in bounds):
        raise ValueError(f"the record of a composite with |A|_max {np.abs(a).max():.3g} "
                         f"over t_end = {times[-1]:g} overflows doubles")
    record = TrajectoryRecord(times=times, basis=b, start=start, k=k, w=w, c=aug.c,
                              zo_selector=aug.zo_selector, reduction_residual=np.nan)
    drift = float(times[-1]) * float(_distances(record, "z", 0.0).max())
    return replace(record, reduction_residual=float(np.linalg.norm(selectors - start @ b.T, 2))
                   + drift * float(np.linalg.norm(leak, 2)))


# Elements per block of the rows formed for their norms, small next to any grid.
_BLOCK = 2**14


def _norms(diff: np.ndarray) -> np.ndarray:
    """``norm(diff, axis=(1, 2))``, scaled first by a power of two so no square overflows."""
    exp = np.frexp(np.abs(diff).max())[1]
    return np.ldexp(np.linalg.norm(np.ldexp(diff, -exp), axis=(1, 2)), exp)


def _distances(rec: TrajectoryRecord, name: str, target) -> np.ndarray:
    """``|rows_k - target|_F`` of ``rec.rows(name)`` at each time, in ``_BLOCK``s."""
    distances = np.empty(rec.times.size)
    points = max(1, _BLOCK // (rec.start.size // (1 if name == "z" else 2)))
    for k in range(0, distances.size, points):
        distances[k:k + points] = _norms(rec.rows(name, k, k + points) - target)
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
    offset = _norms((aug.c - target @ rec.basis.T)[None])[0]
    errors = np.hypot(_distances(rec, "zo_avg", target), offset)
    final_error = float(errors[-1])

    first = int(np.searchsorted(rec.times, rec.t_end / 32))  # the times increase: a suffix
    decay_slope = None
    if rec.times.size - first >= 5:
        # least-squares slope in closed form: x . y / x . x with x centred
        x = np.log(rec.times[first:])
        x -= x.mean()
        y = errors[first:]
        np.log(np.maximum(y, np.finfo(float).tiny, out=y), out=y)
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
