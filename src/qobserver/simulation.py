"""Propagation of the closed plant-observer system and convergence diagnostics.

The outputs of a closed quantum system are operator-valued, but their
coefficients with respect to the initial-condition operators are plain
matrices: ``zp_coeffs(t) = [C_p, 0] e^{A t}``, with A the dynamics matrix
of the composite, and similarly for the observer.  This module computes
those coefficient trajectories, their running time averages, the averaged
error in closed form, and rate diagnostics of the convergence of observer to
plant outputs.  numpy is the only numerical runtime: the matrix exponential
is computed here by scaling and squaring.  The fixed-step RK4 reference that
verifies the propagator lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synthesis import AugmentedSystem, ObserverDesign

__all__ = [
    "TrajectoryRecord",
    "ConvergenceReport",
    "matrix_exponential",
    "time_grid",
    "propagate",
    "time_average_error",
    "predicted_average_error",
    "DRIFT_TOL", "SLOPE_WINDOW", "MAX_RECORD_BYTES",
]

# Convergence verdict: time averages decay like 1/T.
DRIFT_TOL = 1e-6
SLOPE_WINDOW = (-1.3, -0.7)
# Largest array a grid may imply: its own times, or the record of zp, zo
# and zo_avg that propagate allocates, 3 m (n_p + n_o) doubles per point.
MAX_RECORD_BYTES = 2**30


# Pade coefficients b_0..b_13 of the diagonal approximant r_13 (Higham 2005),
# divided by b_0: the linear term is then exactly 1/2.
_PADE = tuple(b / 64764752532480000. for b in (
    64764752532480000., 32382376266240000., 7771770303897600., 1187353796428800.,
    129060195264000., 10559470521600., 670442572800., 33522128640., 1323241920.,
    40840800., 960960., 16380., 182., 1.))
# r_13 has unit-roundoff backward error while max ||A^k||^(1/k) <= theta_13
# (Al-Mohy & Higham 2009); 1/|c_27| leads its backward error series.
_THETA = 4.25
_ELL_C = 113250775606021113483283660800000000.
# Above this 1-norm the powers up to A^10 that pick the scaling could overflow.
_MAX_NORM = 2.0 ** 100


def _onenorm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray) -> int:
    """Extra squarings that keep r_13's backward error at unit roundoff.

    Al-Mohy & Higham 2009, eq. (5.1), with the 1-norm of |A|^27 taken
    exactly as 1^T |A|^27 on |A| / ||A||_1, which cannot overflow.
    """
    norm = _onenorm(a)
    if norm == 0.0:
        return 0
    v = np.ones(a.shape[0])
    b = np.abs(a) / norm
    for _ in range(27):
        v = v @ b
    if v.max() == 0.0:
        return 0
    log2_alpha = 26 * np.log2(norm) + np.log2(v.max()) - np.log2(_ELL_C)
    return max(int(np.ceil((log2_alpha + 53) / 26)), 0)


def matrix_exponential(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix.

    Scaling and squaring with the diagonal Pade approximant r_13 (Higham
    2005, SIAM J. Matrix Anal. Appl. 26(4)), evaluated from A^2, A^4 and
    A^6.  The scaling 2^-s follows the degree-13 branch of Al-Mohy & Higham
    2009 (SIAM J. Matrix Anal. Appl. 31(3)), with exact 1-norms of A^6, A^8
    and A^10.  With r_13 = (V - U)^-1 (V + U) split into its odd part U and
    even part V, the result is formed as ``I + 2 (V - U)^-1 U``, which keeps
    the quantities the flow conserves markedly better than solving for
    V + U.  Exact for a zero matrix.  Raises ``ValueError`` when the result
    does not fit in doubles.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exponential needs a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix_exponential needs finite entries")
    norm = _onenorm(a)
    if norm > _MAX_NORM:
        raise ValueError(f"matrix_exponential needs a 1-norm below 2^100, got {norm:.3g}")
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    d6, d8, d10 = (_onenorm(p) ** (1 / k) for p, k in ((a6, 6), (a4 @ a4, 8), (a4 @ a6, 10)))
    eta = min(max(d6, d8), max(d8, d10))
    s = max(int(np.ceil(np.log2(eta / _THETA))), 0) if eta > 0 else 0
    s += _ell(a * 2.0 ** -s)
    a, a2, a4, a6 = (p * 2.0 ** (-k * s) for p, k in ((a, 1), (a2, 2), (a4, 4), (a6, 6)))
    ident, b = np.eye(a.shape[0]), _PADE
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + ident
    r = np.linalg.solve(v - u, 2.0 * u)
    r += ident
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    if not np.all(np.isfinite(r)):
        raise ValueError(f"matrix_exponential overflowed in squaring a 1-norm of {norm:.3g}")
    return r


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

    ``zp_coeffs[k]`` and ``zo_coeffs[k]`` are the m x (n_p + n_o)
    coefficient matrices at ``times[k]``: the top and bottom halves of the
    2m output rows ``[c; zo_selector] Phi(t_k)`` of the composite.  ``zo_avg[k]``
    is the running time average ``(1/t_k) integral_0^{t_k} zo_coeffs dt``
    (trapezoidal), with the t = 0 entry set to its continuous limit
    ``zo_coeffs[0]``.  ``reduction_residual`` bounds, to first order, how
    far the rows can be from a propagation of all n coordinates (see
    ``propagate``).
    """

    times: np.ndarray
    zp_coeffs: np.ndarray
    zo_coeffs: np.ndarray
    zo_avg: np.ndarray
    reduction_residual: float

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
    than 5 samples are available); ``reduction_residual`` the record's
    first-order bound, in coefficient units, on how far the rows
    ``propagate`` stepped in the composite's basis can be from a
    propagation of all n coordinates over the grid.
    """

    zp_drift: float
    final_error: float
    decay_slope: float | None
    reduction_residual: float
    passed: bool


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
    """Refuse a grid of ``points`` times whose record, zp, zo and zo_avg of
    3 m n doubles per point, would exceed ``MAX_RECORD_BYTES``."""
    if not 24 * points * m * n <= MAX_RECORD_BYTES:
        raise ValueError(f"grid of {points:.3g} points: its record of {3 * m * n} doubles per "
                         f"point would exceed MAX_RECORD_BYTES = {MAX_RECORD_BYTES / 2**30:g} GiB")


def propagate(aug: AugmentedSystem, times) -> TrajectoryRecord:
    """Propagate the output rows of the composite system over a time grid.

    Only the 2m output rows ``[c; zo_selector] Phi(t_k)`` are carried, and
    only in ``aug.basis``: with B its orthonormal columns, rows in their span
    stay there, so ``rows(t) B = rows(0) B e^{B^T A B t}`` is stepped by
    ``B^T A B`` of size d, and the rows are mapped back once, by ``B^T``.
    They start from ``rows_0 B B^T`` and leave out ``rows B B^T A (I - B B^T)``,
    so to first order they are off the full propagation by at most the
    record's ``reduction_residual``, ``|rows_0 (I - B B^T)|_2 + t_end
    max_k |rows_k B|_F |B^T A (I - B B^T)|_2``, zero for an invariant span.
    Stepping is exact because the propagator commutes with its own steps.
    Steps that agree to 1e-9 of the largest step share one exponential,
    taken at their mean, so a uniform grid costs one ``matrix_exponential``
    and a grid with s distinct steps costs s.  Row 0 is exactly
    ``[c; zo_selector]``.  The running average of ``zo`` is trapezoidal.
    Refuses, before it allocates, a record beyond ``MAX_RECORD_BYTES``.
    """
    times = _validate_grid(times)
    _check_record(times.size, aug.m, aug.n)
    b, m = aug.basis, aug.m
    leak = b.T @ aug.a
    reduced_a = leak @ b
    leak -= reduced_a @ b.T
    selectors = np.vstack([aug.c, aug.zo_selector])
    rows = np.empty((times.size, 2 * m, b.shape[1]))
    rows[0] = selectors @ b
    steps = np.diff(times)
    if steps.size:
        _, group = np.unique(np.round(steps / steps.max(), 9), return_inverse=True)
        means = np.bincount(group, weights=steps) / np.bincount(group)
        exps = [matrix_exponential(reduced_a * h) for h in means]
        for k, g in enumerate(group.tolist()):
            np.matmul(rows[k], exps[g], out=rows[k + 1])
    largest_rows = np.sqrt(np.einsum("kij,kij->k", rows, rows).max())
    reduction_residual = float(np.linalg.norm(selectors - rows[0] @ b.T, 2)
                               + times[-1] * largest_rows * np.linalg.norm(leak, 2))
    zp, zo = ((rows[:, part].reshape(-1, b.shape[1]) @ b.T).reshape(times.size, m, aug.n)
              for part in (slice(None, m), slice(m, None)))
    del rows  # so that the peak stays at the three record arrays
    zp[0], zo[0] = aug.c, aug.zo_selector
    # cumulative_trapezoid's operations in its order, without temporaries
    zo_avg = np.empty_like(zo)
    zo_avg[0] = zo[0]
    tail = zo_avg[1:]
    np.add(zo[1:], zo[:-1], out=tail)
    tail *= steps[:, None, None]
    tail /= 2.0
    np.cumsum(tail, axis=0, out=tail)
    tail /= times[1:, None, None]
    return TrajectoryRecord(times=times, zp_coeffs=zp, zo_coeffs=zo, zo_avg=zo_avg,
                            reduction_residual=reduction_residual)


def _average_errors(zo_avg: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``norm(zo_avg - target, axis=(1, 2))`` in blocks of about 2^15 elements,
    so that its temporaries stay small next to the record."""
    errors = np.empty(len(zo_avg))
    rows = max(1, 2**15 // target.size)
    for k in range(0, errors.size, rows):
        errors[k:k + rows] = np.linalg.norm(zo_avg[k:k + rows] - target, axis=(1, 2))
    return errors


def time_average_error(rec: TrajectoryRecord, aug: AugmentedSystem) -> ConvergenceReport:
    """Measure time-averaged convergence of observer outputs to plant outputs.

    The target of the averaged observer coefficients is the constant plant
    coefficient matrix ``[C_p, 0]``.  The decay slope is fitted by least
    squares on (log T, log error) over all grid times in
    [t_end/32, t_end]; the record must cover at least t_end = 10.

    ``passed`` requires the plant coefficients to have stayed constant to
    ``DRIFT_TOL``, the record's ``reduction_residual`` to be within
    ``DRIFT_TOL`` and the fitted slope to fall inside ``SLOPE_WINDOW``.  With
    fewer than 5 samples in the window the slope is None and ``passed`` is
    false.
    """
    if rec.t_end < 10:
        raise ValueError(f"record must cover t_end >= 10, got {rec.t_end}")
    # max |zp - zp[0]| from the column extremes: rounding is monotone
    target = rec.zp_coeffs[0]
    zp_drift = float(max((rec.zp_coeffs.max(axis=0) - target).max(),
                         (target - rec.zp_coeffs.min(axis=0)).max()))

    errors = _average_errors(rec.zo_avg, aug.c)
    final_error = float(errors[-1])

    window = (rec.times >= rec.t_end / 32) & (rec.times > 0)
    decay_slope = None
    if np.count_nonzero(window) >= 5:
        # least-squares slope in closed form: x . y / x . x with x centred
        x = np.log(rec.times[window])
        x -= x.mean()
        y = np.log(np.maximum(errors[window], np.finfo(float).tiny))
        decay_slope = float(x @ y / (x @ x))

    passed = (zp_drift <= DRIFT_TOL and rec.reduction_residual <= DRIFT_TOL
              and decay_slope is not None
              and SLOPE_WINDOW[0] <= decay_slope <= SLOPE_WINDOW[1])
    return ConvergenceReport(zp_drift=zp_drift, final_error=final_error,
                             decay_slope=decay_slope,
                             reduction_residual=rec.reduction_residual, passed=passed)


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
    lam, q = np.linalg.eigh(obs.r_o)
    root, inv_root = (q * np.sqrt(lam)) @ q.T, (q / np.sqrt(lam)) @ q.T
    w, v = np.linalg.eigh(2j * root @ obs.theta_o @ root)
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
