"""Reduced-order direct-coupling observer synthesis.

Given a decomposed plant whose outputs pass the structural conditions, an
observer of order n_o = m (m even) or m + 1 (m odd) is built from three
free matrices: a positive-definite observer Hamiltonian ``R_o``, an output
selector ``C_o`` and a full-rank coupling gain ``beta`` tied together by the
consistency equation ``-C_o R_o^{-1} beta = I``.  The coupling Hamiltonian
acts only on the constant plant coordinates: ``R_c_tilde = c_p2_tilde^T
beta^T``, mapped back to original coordinates through the decomposition
basis.  With this structure the plant outputs stay constant under the
coupling and the time average of the observer outputs converges to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import DecomposedPlant
from .model import (
    CONDITION_TOL,
    ConditionReport,
    QuantumLinearSystem,
    SYMMETRY_TOL,
    _as_matrix,
    check_plant_conditions,
    dynamics_from_hamiltonian,
    make_commutation_matrix,
    numerical_rank,
)

__all__ = [
    "PlantConditionError",
    "ObserverDesign",
    "AugmentedSystem",
    "synthesize_observer",
    "assemble_augmented",
    "predict_steady_state",
    "EQ_CONSISTENCY_TOL",
]

# Max-norm tolerance on the observer consistency equation -C_o R_o^{-1} beta = I.
EQ_CONSISTENCY_TOL = 1e-10


def _observer_order(m: int) -> int:
    return m if m % 2 == 0 else m + 1


class PlantConditionError(ValueError):
    """Raised when a plant does not admit the requested observer."""


@dataclass(frozen=True)
class ObserverDesign:
    """A synthesized direct-coupling observer.

    Attributes
    ----------
    r_o : ndarray
        n_o x n_o symmetric positive-definite observer Hamiltonian matrix.
    beta : ndarray
        n_o x m full-rank coupling gain.
    c_o : ndarray
        m x n_o observer output selector.
    r_c_tilde : ndarray
        n_p2 x n_o coupling Hamiltonian block in rotated plant coordinates.
    r_c : ndarray
        n_p x n_o coupling Hamiltonian block in original plant coordinates.
    theta_o : ndarray
        Canonical commutation matrix of the observer.
    n_o : int
        Observer order: m for even m, m + 1 for odd m.
    consistency_residual : float
        ``||-C_o R_o^{-1} beta - I||_max``, within ``EQ_CONSISTENCY_TOL``.
    conditions : ConditionReport
        The plant's structural conditions as judged for this design.
    """

    r_o: np.ndarray
    beta: np.ndarray
    c_o: np.ndarray
    r_c_tilde: np.ndarray
    r_c: np.ndarray
    theta_o: np.ndarray
    n_o: int
    consistency_residual: float
    conditions: ConditionReport

    @property
    def m(self) -> int:
        return self.c_o.shape[0]


@dataclass(frozen=True)
class AugmentedSystem:
    """The closed plant-observer composite.

    ``a_a = 2 theta_a r_a`` with ``theta_a = diag(theta_p, theta_o)`` and
    ``r_a = [[r_p, r_c], [r_c^T, r_o]]``.  The selectors pick the plant and
    observer output coefficient rows out of the composite propagator.
    """

    theta_a: np.ndarray
    r_a: np.ndarray
    a_a: np.ndarray
    zp_selector: np.ndarray
    zo_selector: np.ndarray

    @property
    def n(self) -> int:
        return self.theta_a.shape[0]

    @property
    def m(self) -> int:
        return self.zp_selector.shape[0]


def synthesize_observer(dec: DecomposedPlant, *, omega: float = 1.0,
                        r_o: np.ndarray | None = None,
                        c_o: np.ndarray | None = None,
                        beta: np.ndarray | None = None,
                        condition_tol: float = CONDITION_TOL) -> ObserverDesign:
    """Construct a reduced-order observer for a decomposed plant.

    Defaults produce ``R_o = omega * I``, ``C_o = [I, 0]`` and
    ``beta = -R_o C_o^T (C_o C_o^T)^{-1}``, which satisfies the consistency
    equation exactly for any ``omega > 0``.  Any of the three matrices may
    be supplied instead; they are validated (``R_o`` symmetric positive
    definite, ``beta`` full rank, consistency residual within 1e-10).
    The plant conditions judged against ``condition_tol`` are kept in ``conditions``.

    Raises
    ------
    PlantConditionError
        If the source plant fails any structural condition, has no constant
        coordinates to estimate, or the supplied matrices are inconsistent.
    """
    report = check_plant_conditions(dec.source, tol=condition_tol)
    if not report.all_ok:
        raise PlantConditionError(
            f"plant fails structural conditions {report.failing}; residuals {report.residuals}, "
            f"m = {dec.source.m}, n_p2 = {report.n_p2}")
    if dec.n_p2 == 0:
        raise PlantConditionError("no constant plant coordinates: nothing to estimate")

    m = dec.source.m
    n_o = _observer_order(m)

    if r_o is None:
        if not omega > 0:
            raise PlantConditionError(f"omega must be positive, got {omega}")
        r_o = omega * np.eye(n_o)
    else:
        r_o = _as_matrix(r_o, "r_o")
        if r_o.shape != (n_o, n_o):
            raise PlantConditionError(f"r_o must be {n_o}x{n_o}, got {r_o.shape}")
        if np.abs(r_o - r_o.T).max() > SYMMETRY_TOL:
            raise PlantConditionError("r_o must be symmetric")
    if np.linalg.eigvalsh(r_o)[0] <= 0:
        raise PlantConditionError("r_o must be positive definite")

    if c_o is None:
        c_o = np.hstack([np.eye(m), np.zeros((m, n_o - m))])
    else:
        c_o = _as_matrix(c_o, "c_o")
        if c_o.shape != (m, n_o):
            raise PlantConditionError(f"c_o must be {m}x{n_o}, got {c_o.shape}")
        if numerical_rank(c_o) != m:
            raise PlantConditionError("c_o must have full row rank")

    if beta is None:
        beta = -r_o @ c_o.T @ np.linalg.inv(c_o @ c_o.T)
    else:
        beta = _as_matrix(beta, "beta")
        if beta.shape != (n_o, m):
            raise PlantConditionError(f"beta must be {n_o}x{m}, got {beta.shape}")
    if numerical_rank(beta) != m:
        raise PlantConditionError("beta must have full column rank")

    consistency = float(np.abs(-c_o @ np.linalg.solve(r_o, beta) - np.eye(m)).max())
    if consistency > EQ_CONSISTENCY_TOL:
        raise PlantConditionError(
            f"observer matrices violate -C_o R_o^-1 beta = I (residual {consistency:.3e})")

    r_c_tilde = dec.c_p2_tilde.T @ beta.T
    r_c = dec.p @ np.vstack([np.zeros((dec.n_p1, n_o)), r_c_tilde])
    return ObserverDesign(
        r_o=r_o, beta=beta, c_o=c_o, r_c_tilde=r_c_tilde, r_c=r_c,
        theta_o=np.asarray(make_commutation_matrix(n_o // 2)), n_o=n_o,
        consistency_residual=consistency, conditions=report,
    )


def assemble_augmented(plant: QuantumLinearSystem,
                       obs: ObserverDesign) -> AugmentedSystem:
    """Stack plant and observer into the closed composite system."""
    n_p, n_o, m = plant.n, obs.n_o, obs.m
    if obs.r_c.shape != (n_p, n_o):
        raise ValueError(f"coupling block must be {n_p}x{n_o}, got {obs.r_c.shape}")
    if m != plant.m:
        raise ValueError(f"observer estimates {m} outputs, plant has {plant.m}")
    theta_a = np.block([
        [plant.theta, np.zeros((n_p, n_o))],
        [np.zeros((n_o, n_p)), obs.theta_o],
    ])
    r_a = np.block([[plant.r, obs.r_c], [obs.r_c.T, obs.r_o]])
    a_a = dynamics_from_hamiltonian(theta_a, r_a)
    zp_selector = np.hstack([plant.c, np.zeros((m, n_o))])
    zo_selector = np.hstack([np.zeros((m, n_p)), obs.c_o])
    return AugmentedSystem(theta_a=theta_a, r_a=r_a, a_a=a_a,
                           zp_selector=zp_selector, zo_selector=zo_selector)


def predict_steady_state(obs: ObserverDesign, zp0: np.ndarray) -> np.ndarray:
    """Centre of the observer oscillation for given plant output values.

    Returns ``-R_o^{-1} beta zp0``; applying ``C_o`` recovers ``zp0`` by the
    consistency equation, which is what makes the time-averaged observer
    output converge to the plant output.
    """
    zp0 = np.asarray(zp0, dtype=float)
    if zp0.shape != (obs.m,):
        raise ValueError(f"zp0 must be a length-{obs.m} vector, got {zp0.shape}")
    return -np.linalg.solve(obs.r_o, obs.beta @ zp0)
