"""Controllability analysis and block decomposition of quantum plants.

The pair (Theta, R) of a plant determines which linear combinations of the
system variables stay constant under the free dynamics: those spanned by
the orthogonal complement of ``range([R, Theta R])``, which is
``ker R ∩ Theta ker R``.  This module computes, from one ``eigh`` of R, an
orthogonal change of basis that isolates that span, and the block form of
the plant matrices in the new coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (J, RANK_TOL_SCALE, QuantumLinearSystem, _commutator_residual,
                    _dynamics_pair)

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
    residuals: dict


def _pair_basis(theta: np.ndarray) -> np.ndarray:
    """Orthogonal Q with Q^T theta Q = diag(J, ..., J) for skew theta^2 = -I.

    Greedy pairing: each unit vector u is paired with -theta u, which is a
    unit vector orthogonal to u and to every previously paired plane
    (theta-invariant subspaces have theta-invariant orthogonal complements).
    u is the unit e_i farthest from the columns B built so far, projected
    off them: ||(I - B B^T) e_i||^2 = 1 - ||B[i]||^2, so i is the row of B
    of least norm.  Already-canonical input yields Q = I exactly.
    """
    n = theta.shape[0]
    q = np.zeros((n, n))
    for k in range(0, n, 2):
        b = q[:, :k]
        i = int(np.argmin(np.einsum("ij,ij->i", b, b)))
        u = -(b @ b[i])
        u[i] += 1.0
        u /= np.linalg.norm(u)
        v = -theta @ u
        v -= b @ (b.T @ v)
        v -= u * (u @ v)
        q[:, k], q[:, k + 1] = u, v / np.linalg.norm(v)
    return q


def _dynamics_basis(theta: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthogonal P and rank n_p1 of [R, Theta R], fixed by (Theta, R) alone.

    v is orthogonal to range [R, Theta R] exactly when R v = 0 and R Theta v = 0,
    so the constant subspace is ker R ∩ Theta ker R.  With K an orthonormal
    basis of ker R from ``eigh(R)`` and the skew ``S = K^T Theta K``, that
    subspace is K times the eigenvectors of ``-S^2 = S^T S`` at eigenvalue 1
    (the eigenvalues are at most 1).  P is the range eigenvectors of R, then
    K times the eigenvectors of ``-S^2`` below 1, then K times those at 1,
    paired.  Both thresholds are dimensionless: an eigenvalue of R counts as
    zero within ``n RANK_TOL_SCALE`` of the largest in modulus, one of
    ``-S^2`` as 1 within ``k RANK_TOL_SCALE`` of 1, for K of k columns.
    """
    lam, v = np.linalg.eigh(r)
    zero = np.abs(lam) <= r.shape[0] * RANK_TOL_SCALE * np.abs(lam).max()
    kernel = v[:, zero]
    s = kernel.T @ theta @ kernel
    mu, w = np.linalg.eigh(s.T @ s)
    kernel = kernel @ w
    fixed = mu >= 1.0 - kernel.shape[1] * RANK_TOL_SCALE
    tail = kernel[:, fixed]
    p = np.hstack([v[:, ~zero], kernel[:, ~fixed], tail @ _pair_basis(tail.T @ theta @ tail)])
    return p, p.shape[0] - tail.shape[1]


def _decomposed(plant: QuantumLinearSystem, p: np.ndarray, n_p1: int,
                c_p2_tilde: np.ndarray) -> DecomposedPlant:
    """The blocks and residuals of ``plant`` in the basis ``p``."""
    n = p.shape[0]
    n_p2 = n - n_p1
    theta_t = p.T @ plant.theta @ p
    r_t = p.T @ plant.r @ p
    # The constant-subspace basis was built to realize the canonical form;
    # store it exactly rather than with the ~1e-15 dirt of the product.
    theta22 = np.kron(np.eye(n_p2 // 2), J)
    residuals = {
        "orthogonality": float(np.abs(p.T @ p - np.eye(n)).max()),
        "theta_offdiag": float(np.abs(theta_t[:n_p1, n_p1:]).max(initial=0.0)),
        "theta22_canonical": float(np.abs(theta_t[n_p1:, n_p1:] - theta22).max(initial=0.0)),
        "r_structure": float(max(np.abs(r_t[n_p1:, :]).max(initial=0.0),
                                 np.abs(r_t[:n_p1, n_p1:]).max(initial=0.0))),
        "c_zero_block": float(np.abs((plant.c @ p)[:, :n_p1]).max(initial=0.0)),
    }
    return DecomposedPlant(p=p, theta11=theta_t[:n_p1, :n_p1], theta22=theta22,
                           r_p11=r_t[:n_p1, :n_p1], c_p2_tilde=c_p2_tilde,
                           n_p1=n_p1, n_p2=n_p2, source=plant, residuals=residuals)


def decompose_plant(plant: QuantumLinearSystem) -> DecomposedPlant:
    """Decompose a plant into dynamical and constant coordinate blocks.

    P is built from one ``eigh`` of R_p and one of the Theta-coupling of its
    kernel (see ``_dynamics_basis``); the trailing columns are paired so the
    constant block's commutation matrix is exactly diag(J, ..., J).  This
    basis of the constant block is one choice among unitarily equivalent
    ones.  The block structure of the rotated matrices is a consequence of
    skew-symmetry/symmetry and is measured, not forced; see ``residuals``.

    Fails only on dimension mismatch or eigensolver non-convergence.  A plant
    violating the structural conditions decomposes fine; the violation
    shows up in ``residuals["c_zero_block"]``.
    """
    p, n_p1 = _dynamics_basis(plant.theta, plant.r)
    return _decomposed(plant, p, n_p1, (plant.c @ p)[:, n_p1:])


def transformed_condition_check(dec: DecomposedPlant) -> float:
    """Residual of the commuting-outputs condition in rotated coordinates.

    Returns ``max |c_i theta22 c_j^T|`` over the unit-norm rows ``c_i`` of
    ``c_p2_tilde``, the measure ``check_plant_conditions`` judges ``C Theta C^T``
    by; the two agree to rounding when the plant satisfies ``C [R, Theta R] = 0``.
    """
    return _commutator_residual(dec.c_p2_tilde, dec.theta22)


def plant_from_transformed_output(theta_p: np.ndarray, r_p: np.ndarray,
                                  c_p2_tilde: np.ndarray):
    """Build a plant whose output selector is given in rotated coordinates.

    This is the natural design workflow: decompose the dynamics pair
    (Theta_p, R_p), choose the output matrix directly against the canonical
    constant-block coordinates (where the commuting-outputs condition is a
    sparsity pattern), and map it back with ``C_p = [0, c_p2_tilde] P^T``.

    (Theta_p, R_p) pass the plant's own checks once, before they are factored:
    ``eigh`` reads one triangle of R_p, so an asymmetric R_p is refused first.
    Returns ``(plant, dec)`` where ``dec`` keeps the given output matrix
    verbatim, so designs stated in rotated coordinates are not polluted by
    the round trip through ``C_p``.
    """
    theta_p, r_p = _dynamics_pair(theta_p, r_p)
    c_p2_tilde = np.atleast_2d(np.asarray(c_p2_tilde, dtype=float))
    p, n_p1 = _dynamics_basis(theta_p, r_p)
    n_p2 = p.shape[0] - n_p1
    if c_p2_tilde.shape[1] != n_p2:
        raise ValueError(
            f"c_p2_tilde must have n_p2 = {n_p2} columns for this dynamics pair, "
            f"got {c_p2_tilde.shape}")
    c_p = np.hstack([np.zeros((c_p2_tilde.shape[0], n_p1)), c_p2_tilde]) @ p.T
    plant = QuantumLinearSystem._of_checked_pair(theta_p, r_p, c_p)
    return plant, _decomposed(plant, p, n_p1, c_p2_tilde)
