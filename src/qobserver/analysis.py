"""Controllability analysis and block decomposition of quantum plants.

The pair (Theta, R) of a plant determines which linear combinations of the
system variables stay constant under the free dynamics: those spanned by
the orthogonal complement of ``range([R, Theta R])``.  This module computes
an orthogonal change of basis that isolates that span, and the block form
of the plant matrices in the new coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    QuantumLinearSystem,
    _as_matrix,
    _rank_from_singular_values,
    make_commutation_matrix,
    numerical_rank,
)

__all__ = [
    "DecomposedPlant",
    "decompose_plant",
    "transformed_condition_check",
    "plant_from_transformed_output",
]


@dataclass(frozen=True)
class DecomposedPlant:
    """Block decomposition of a plant in dynamically-invariant coordinates.

    ``p`` is orthogonal with the first ``n_p1`` columns spanning
    ``range([R_p, Theta_p R_p])``.  In the rotated coordinates the
    commutation matrix is block diagonal ``diag(theta11, theta22)``, the
    Hamiltonian is ``diag(r_p11, 0)`` and the output selector is
    ``[0, c_p2_tilde]``; the last ``n_p2`` coordinates stay constant under
    the free plant dynamics.  ``theta22`` is reported in canonical
    diag(J, ..., J) form (the basis of the constant subspace is chosen to
    realize it; any orthogonal completion of the span is equally valid).

    ``residuals`` records how well the block structure is realized; for a
    plant violating the structural conditions the decomposition still
    succeeds but ``c_zero_block`` will be large.
    """

    p: np.ndarray
    theta11: np.ndarray
    theta22: np.ndarray
    r_p11: np.ndarray
    c_p2_tilde: np.ndarray
    n_p1: int
    n_p2: int
    source: QuantumLinearSystem
    controllable: bool
    residuals: dict


def _pair_basis(theta: np.ndarray) -> np.ndarray:
    """Orthogonal Q with Q^T theta Q = diag(J, ..., J) for skew theta^2 = -I.

    Greedy pairing: each unit vector u is paired with -theta u, which is a
    unit vector orthogonal to u and to every previously paired plane
    (theta-invariant subspaces have theta-invariant orthogonal complements).
    Already-canonical input yields Q = I exactly.
    """
    n = theta.shape[0]
    cols: list[np.ndarray] = []
    for _ in range(n // 2):
        b = np.column_stack(cols) if cols else np.zeros((n, 0))
        resid = np.eye(n) - b @ b.T
        norms = np.linalg.norm(resid, axis=0)
        u = resid[:, int(np.argmax(norms))]
        u = u / np.linalg.norm(u)
        v = -theta @ u
        if cols:
            v = v - b @ (b.T @ v)
        v = v - u * (u @ v)
        v = v / np.linalg.norm(v)
        cols.extend([u, v])
    return np.column_stack(cols)


def _decompose_dynamics(theta: np.ndarray, r: np.ndarray) -> dict:
    """Shared worker: the ``DecomposedPlant`` fields fixed by (Theta, R) alone.

    The column space of [R, Theta R] equals that of the full controllability
    matrix of (Theta, R): multiplying by Theta twice only flips signs.
    """
    n = theta.shape[0]
    cr = np.hstack([r, theta @ r])
    u, s, _ = np.linalg.svd(cr)
    n_p1 = _rank_from_singular_values(s, cr.shape)
    n_p2 = n - n_p1

    p = u.copy()
    if n_p2 > 0:
        theta22_raw = u[:, n_p1:].T @ theta @ u[:, n_p1:]
        p[:, n_p1:] = u[:, n_p1:] @ _pair_basis(theta22_raw)

    theta_t = p.T @ theta @ p
    r_t = p.T @ r @ p
    theta11 = theta_t[:n_p1, :n_p1]
    r_p11 = r_t[:n_p1, :n_p1]
    # The constant-subspace basis was built to realize the canonical form;
    # store it exactly rather than with the ~1e-15 dirt of the product.
    theta22 = (make_commutation_matrix(n_p2 // 2) if n_p2 > 0
               else np.zeros((0, 0)))

    residuals = {
        "orthogonality": float(np.abs(p.T @ p - np.eye(n)).max()),
        "theta_offdiag": float(np.abs(theta_t[:n_p1, n_p1:]).max(initial=0.0)),
        "theta22_canonical": float(np.abs(theta_t[n_p1:, n_p1:] - theta22).max(initial=0.0)),
        "r_structure": float(max(np.abs(r_t[n_p1:, :]).max(initial=0.0),
                                 np.abs(r_t[:n_p1, n_p1:]).max(initial=0.0))),
    }
    # Controllability of the rotated dynamical block, checked rather than
    # assumed: rank [R1, Theta11 R1] must fill it.
    r1 = (p.T @ r)[:n_p1, :]
    controllable = numerical_rank(np.hstack([r1, theta11 @ r1])) == n_p1

    return dict(p=p, n_p1=n_p1, n_p2=n_p2, theta11=theta11, theta22=theta22,
                r_p11=r_p11, controllable=controllable, residuals=residuals)


def _decomposed(plant: QuantumLinearSystem, dynamics: dict,
                c_p2_tilde: np.ndarray) -> DecomposedPlant:
    """Complete the fields of ``_decompose_dynamics`` with the plant's output."""
    c_zero_block = np.abs((plant.c @ dynamics["p"])[:, :dynamics["n_p1"]]).max(initial=0.0)
    residuals = dict(dynamics["residuals"], c_zero_block=float(c_zero_block))
    return DecomposedPlant(**dict(dynamics, residuals=residuals),
                           c_p2_tilde=c_p2_tilde, source=plant)


def decompose_plant(plant: QuantumLinearSystem) -> DecomposedPlant:
    """Decompose a plant into dynamical and constant coordinate blocks.

    P is built from the SVD of [R_p, Theta_p R_p] (left singular vectors,
    descending singular values), then the trailing columns are re-paired so
    the constant block's commutation matrix is exactly diag(J, ..., J).
    The block structure of the rotated matrices is a consequence of
    skew-symmetry/symmetry and is measured, not forced; see ``residuals``.

    Fails only on dimension mismatch or SVD non-convergence.  A plant
    violating the structural conditions decomposes fine; the violation
    shows up in ``residuals["c_zero_block"]``.
    """
    dynamics = _decompose_dynamics(plant.theta, plant.r)
    return _decomposed(plant, dynamics, (plant.c @ dynamics["p"])[:, dynamics["n_p1"]:])


def transformed_condition_check(dec: DecomposedPlant) -> float:
    """Residual of the commuting-outputs condition in rotated coordinates.

    Returns ``max |c_p2_tilde theta22 c_p2_tilde^T|``; at most the condition
    tolerance exactly when the original plant satisfied ``C Theta C^T = 0``.
    """
    c2, th22 = dec.c_p2_tilde, dec.theta22
    return float(np.abs(c2 @ th22 @ c2.T).max())


def plant_from_transformed_output(theta_p: np.ndarray, r_p: np.ndarray,
                                  c_p2_tilde: np.ndarray):
    """Build a plant whose output selector is given in rotated coordinates.

    This is the natural design workflow: decompose the dynamics pair
    (Theta_p, R_p), choose the output matrix directly against the canonical
    constant-block coordinates (where the commuting-outputs condition is a
    sparsity pattern), and map it back with ``C_p = [0, c_p2_tilde] P^T``.

    Returns ``(plant, dec)`` where ``dec`` keeps the given output matrix
    verbatim, so designs stated in rotated coordinates are not polluted by
    the round trip through ``C_p``.
    """
    theta_p = _as_matrix(theta_p, "theta_p")
    r_p = _as_matrix(r_p, "r_p")
    c_p2_tilde = np.atleast_2d(np.asarray(c_p2_tilde, dtype=float))
    dynamics = _decompose_dynamics(theta_p, r_p)
    p, n_p1, n_p2 = dynamics["p"], dynamics["n_p1"], dynamics["n_p2"]
    if c_p2_tilde.shape[1] != n_p2:
        raise ValueError(
            f"c_p2_tilde must have n_p2 = {n_p2} columns for this dynamics pair, "
            f"got {c_p2_tilde.shape}")
    c_p = np.hstack([np.zeros((c_p2_tilde.shape[0], n_p1)), c_p2_tilde]) @ p.T
    plant = QuantumLinearSystem(theta=theta_p, r=r_p, c=c_p)
    return plant, _decomposed(plant, dynamics, c_p2_tilde)
