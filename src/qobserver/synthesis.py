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
    RANK_TOL_SCALE,
    ConditionReport,
    QuantumLinearSystem,
    _as_matrix,
    _read_only,
    _symmetric,
    check_plant_conditions,
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
    n_o: int
    consistency_residual: float
    conditions: ConditionReport

    @property
    def m(self) -> int:
        return self.c_o.shape[0]

    @property
    def theta_o(self) -> np.ndarray:
        """Canonical commutation matrix of the observer, n_o x n_o (derived)."""
        return make_commutation_matrix(self.n_o // 2)


@dataclass(frozen=True)
class AugmentedSystem(QuantumLinearSystem):
    """The closed plant-observer composite, itself a closed linear quantum system.

    ``r = [[r_p, r_c], [r_c^T, r_o]]``, its derived ``theta`` is ``diag(theta_p, theta_o)``,
    and ``c = [c_p, 0]`` picks the plant outputs out of the composite variables;
    ``zo_selector = [0, c_o]``, of the shape of ``c``, picks the observer outputs.

    ``basis`` is an n x d matrix, d >= 1, with orthonormal columns whose span, as a
    space of row vectors, should hold the output rows and be invariant under
    ``A``; ``propagate`` steps the rows in it, and its record's
    ``reduction_residual`` bounds the cost of any shortfall.  It defaults to
    the identity.
    ``assemble_augmented`` gives ``diag(Q, I_{n_o})`` with Q spanning the rows
    of ``c_p``: d = m + n_o.
    """

    zo_selector: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        zo_selector = _as_matrix(self.zo_selector, "zo_selector")
        if zo_selector.shape != self.c.shape:
            raise ValueError(f"zo_selector must have the shape of c, {self.c.shape}, "
                             f"got {zo_selector.shape}")
        basis = np.eye(self.n) if self.basis is None else _as_matrix(self.basis, "basis")
        if basis.shape[0] != self.n or not 0 < basis.shape[1] <= self.n:
            raise ValueError(f"basis must have {self.n} rows and 1 to {self.n} columns, "
                             f"got {basis.shape}")
        if np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) > \
                self.n * RANK_TOL_SCALE:
            raise ValueError("basis columns must be orthonormal")
        object.__setattr__(self, "zo_selector", _read_only(zo_selector))
        object.__setattr__(self, "basis", _read_only(basis))


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
    report = check_plant_conditions(dec.source, condition_tol)
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
    r_c = dec.p[:, dec.n_p1:] @ r_c_tilde
    return ObserverDesign(
        r_o=r_o, beta=beta, c_o=c_o, r_c_tilde=r_c_tilde, r_c=r_c, n_o=n_o,
        consistency_residual=consistency, conditions=report,
    )


def assemble_augmented(plant: QuantumLinearSystem,
                       obs: ObserverDesign) -> AugmentedSystem:
    """Stack plant and observer into the closed composite system.

    Its ``basis`` is ``diag(Q, I_{n_o})``, Q from a QR of ``C_p^T``.  The rows
    it spans are invariant when the coupling is ``R_c = C_p^T beta^T`` and
    ``C_p Theta_p R_p = 0``, ``C_p Theta_p C_p^T = 0``: then ``[C_p, 0] A = 0``
    and ``[0, e] A = 2 [e Theta_o beta C_p, e Theta_o R_o]``.
    """
    n_p, n_o, m = plant.n, obs.n_o, obs.m
    if obs.r_c.shape != (n_p, n_o):
        raise ValueError(f"coupling block must be {n_p}x{n_o}, got {obs.r_c.shape}")
    if m != plant.m:
        raise ValueError(f"observer estimates {m} outputs, plant has {plant.m}")
    return AugmentedSystem(
        r=np.block([[plant.r, obs.r_c], [obs.r_c.T, obs.r_o]]),
        c=np.hstack([plant.c, np.zeros((m, n_o))]),
        zo_selector=np.hstack([np.zeros((m, n_p)), obs.c_o]),
        basis=np.block([[np.linalg.qr(plant.c.T)[0], np.zeros((n_p, n_o))],
                        [np.zeros((n_o, min(n_p, m))), np.eye(n_o)]]))
