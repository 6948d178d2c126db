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
    _as_matrix,
    _symmetric,
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


def _checked(name: str, a, shape: tuple) -> np.ndarray:
    """``a`` as a finite float matrix of ``shape``."""
    a = _as_matrix(a, name)
    if a.shape != shape:
        raise PlantConditionError(f"{name} must be {shape[0]}x{shape[1]}, got {a.shape}")
    return a


def synthesize_observer(dec: DecomposedPlant, *, omega: float = 1.0,
                        r_o: np.ndarray | None = None,
                        c_o: np.ndarray | None = None,
                        beta: np.ndarray | None = None,
                        condition_tol: float = CONDITION_TOL) -> ObserverDesign:
    """Construct a reduced-order observer for a decomposed plant.

    Defaults are ``R_o = omega * I``, ``C_o = [I, 0]`` and
    ``beta = -R_o C_o^+`` (the pseudoinverse), which solves the consistency
    equation.  Any of the three matrices may be supplied instead; ``omega``
    only scales the default ``R_o``.  Defaults and supplied matrices pass the
    same checks: finite entries of the right shape, ``R_o`` symmetric positive
    definite, ``C_o`` full row rank, ``beta`` full column rank, consistency
    residual within 1e-10.
    The plant conditions judged against ``condition_tol`` are kept in ``conditions``.

    Raises
    ------
    PlantConditionError
        If the source plant fails any structural condition (with no constant
        coordinates the bound ``2 m <= n_p2`` fails), or the observer
        matrices fail a check.
    ValueError
        If an observer matrix (``omega * I`` included) has non-finite entries,
        or ``r_o`` is given together with an ``omega`` other than 1.
    """
    if r_o is not None and omega != 1.0:
        raise ValueError(f"omega = {omega:g} scales the default r_o only; r_o is given")
    report = check_plant_conditions(dec.source, condition_tol, rank_cr=dec.n_p1)
    if not report.all_ok:
        raise PlantConditionError(
            f"plant fails structural conditions {report.failing}; residuals {report.residuals}, "
            f"m = {dec.source.m}, n_p2 = {report.n_p2}")

    m = dec.source.m
    n_o = _observer_order(m)

    r_o = _checked("r_o", np.diag(np.full(n_o, omega)) if r_o is None else r_o, (n_o, n_o))
    if not _symmetric(r_o):
        raise PlantConditionError("r_o must be symmetric to within 1e-12 of its largest entry")
    if np.linalg.eigvalsh(r_o)[0] <= 0:
        raise PlantConditionError("r_o must be positive definite")
    c_o = _checked("c_o", np.eye(m, n_o) if c_o is None else c_o, (m, n_o))
    if numerical_rank(c_o) != m:
        raise PlantConditionError("c_o must have full row rank")
    if beta is None:
        with np.errstate(over="ignore", invalid="ignore"):  # _checked refuses non-finite
            beta = -r_o @ np.linalg.pinv(c_o)
    beta = _checked("beta", beta, (n_o, m))
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

