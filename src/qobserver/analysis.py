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

from .model import (J, QuantumLinearSystem, _commutator_residual, _dynamics_basis,
                    _hamiltonian, _read_only, _times_theta)

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
    the free plant dynamics.  ``theta22`` is the canonical diag(J, ..., J)
    of size n_p2, derived (the basis of the constant subspace is chosen to
    realize it; any orthogonal completion of the span is equally valid).

    ``residuals`` records how well the block structure is realized; for a
    plant violating the structural conditions the decomposition still
    succeeds but ``c_zero_block`` will be large.
    """

    p: np.ndarray
    theta11: np.ndarray
    r_p11: np.ndarray
    c_p2_tilde: np.ndarray
    n_p1: int
    n_p2: int
    source: QuantumLinearSystem
    residuals: dict

    @property
    def theta22(self) -> np.ndarray:
        """Commutation matrix of the constant block, diag(J, ..., J) of size n_p2."""
        return _read_only(np.kron(np.eye(self.n_p2 // 2), J))


def _decomposed(plant: QuantumLinearSystem, p: np.ndarray, n_p1: int,
                c_p2_tilde: np.ndarray) -> DecomposedPlant:
    """The blocks and residuals of ``plant`` in the basis ``p``."""
    n = p.shape[0]
    n_p2 = n - n_p1
    theta_t = _times_theta(p.T) @ p
    r_t = p.T @ plant.r @ p
    # the constant-subspace basis was built to realize the canonical form
    theta22 = np.kron(np.eye(n_p2 // 2), J)
    residuals = {
        "orthogonality": float(np.abs(p.T @ p - np.eye(n)).max()),
        "theta_offdiag": float(np.abs(theta_t[:n_p1, n_p1:]).max(initial=0.0)),
        "theta22_canonical": float(np.abs(theta_t[n_p1:, n_p1:] - theta22).max(initial=0.0)),
        "r_structure": float(max(np.abs(r_t[n_p1:, :]).max(initial=0.0),
                                 np.abs(r_t[:n_p1, n_p1:]).max(initial=0.0))),
        "c_zero_block": float(np.abs((plant.c @ p)[:, :n_p1]).max(initial=0.0)),
    }
    return DecomposedPlant(p=p, theta11=theta_t[:n_p1, :n_p1],
                           r_p11=r_t[:n_p1, :n_p1], c_p2_tilde=c_p2_tilde,
                           n_p1=n_p1, n_p2=n_p2, source=plant, residuals=residuals)


def decompose_plant(plant: QuantumLinearSystem) -> DecomposedPlant:
    """Decompose a plant into dynamical and constant coordinate blocks.

    P is the plant's ``dynamics_basis``, built from one ``eigh`` of R_p and one
    of the Theta-coupling of its kernel; the trailing columns are paired so the
    constant block's commutation matrix is exactly diag(J, ..., J).  This
    basis of the constant block is one choice among unitarily equivalent
    ones.  The block structure of the rotated matrices is a consequence of
    skew-symmetry/symmetry and is measured, not forced; see ``residuals``.

    Fails only on dimension mismatch or eigensolver non-convergence.  A plant
    violating the structural conditions decomposes fine; the violation
    shows up in ``residuals["c_zero_block"]``.
    """
    p, n_p1 = plant.dynamics_basis
    return _decomposed(plant, p, n_p1, (plant.c @ p)[:, n_p1:])


def transformed_condition_check(dec: DecomposedPlant) -> float:
    """Residual of the commuting-outputs condition in rotated coordinates.

    Returns ``max |c_i theta22 c_j^T|`` over the unit-norm rows ``c_i`` of
    ``c_p2_tilde``, the measure ``check_plant_conditions`` judges ``C Theta C^T``
    by; the two agree to rounding when the plant satisfies ``C [R, Theta R] = 0``.
    """
    return _commutator_residual(dec.c_p2_tilde)


def plant_from_transformed_output(r_p: np.ndarray, c_p2_tilde: np.ndarray):
    """Build a plant whose output selector is given in rotated coordinates.

    This is the natural design workflow: decompose the dynamics pair
    (Theta_p, R_p), choose the output matrix directly against the canonical
    constant-block coordinates (where the commuting-outputs condition is a
    sparsity pattern), and map it back with ``C_p = [0, c_p2_tilde] P^T``.

    R_p passes the plant's own check before it is factored: ``eigh`` reads
    one triangle of R_p, so an asymmetric R_p is refused first.
    The plant keeps that factorization as its ``dynamics_basis``.
    Returns ``(plant, dec)`` where ``dec`` keeps the given output matrix
    verbatim, so designs stated in rotated coordinates are not polluted by
    the round trip through ``C_p``.
    """
    r_p = _hamiltonian(r_p)
    c_p2_tilde = np.atleast_2d(np.asarray(c_p2_tilde, dtype=float))
    p, n_p1 = _dynamics_basis(r_p)
    n_p2 = p.shape[0] - n_p1
    if c_p2_tilde.shape[1] != n_p2:
        raise ValueError(
            f"c_p2_tilde must have n_p2 = {n_p2} columns for this dynamics pair, "
            f"got {c_p2_tilde.shape}")
    c_p = c_p2_tilde @ p[:, n_p1:].T
    plant = QuantumLinearSystem(r_p, c_p)
    plant.__dict__["dynamics_basis"] = p, n_p1  # the cached_property's slot: read, not refactored
    return plant, _decomposed(plant, p, n_p1, c_p2_tilde)
