"""Matrix-valued data model for closed linear quantum systems.

A closed linear quantum system is described by a canonical commutation
matrix ``Theta`` (block diagonal in 2x2 symplectic units ``J``), a real
symmetric Hamiltonian matrix ``R`` and an output selector ``C``.  The
Heisenberg dynamics matrix is never stored; it is always derived as
``A = 2 Theta R``, which guarantees the commutation relations are
preserved for all time (physical realizability).  The plant is such a
system, and so is the plant together with its directly coupled observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "J",
    "SYMMETRY_TOL",
    "CONDITION_TOL",
    "RANK_TOL_SCALE",
    "QuantumLinearSystem",
    "ConditionReport",
    "make_commutation_matrix",
    "check_plant_conditions",
    "numerical_rank",
]

# 2x2 symplectic unit: one oscillator mode (position/momentum pair).
J = np.array([[0.0, 1.0], [-1.0, 0.0]])
J.setflags(write=False)

# Symmetry of Hamiltonian matrices: |A - A^T|_max relative to |A|_max.
SYMMETRY_TOL = 1e-12
# Max-norm tolerance for the structural plant conditions: absolute for
# C [R, Theta R], on unit-norm output rows for C Theta C^T.
CONDITION_TOL = 1e-9
# Numerical rank: singular values below max_dim * sigma_max * RANK_TOL_SCALE
# count as zero.  The decomposition's thresholds derive from it too (see
# analysis._dynamics_basis).
RANK_TOL_SCALE = 1e-12


def make_commutation_matrix(n_modes: int) -> np.ndarray:
    """Build the canonical commutation matrix diag(J, ..., J).

    Parameters
    ----------
    n_modes : int
        Number of oscillator modes; the result is 2*n_modes square.

    Returns
    -------
    ndarray
        Read-only skew-symmetric matrix satisfying ``Theta @ Theta == -I``
        exactly.
    """
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    theta = np.kron(np.eye(n_modes), J)
    theta.setflags(write=False)
    return theta


def numerical_rank(a: np.ndarray) -> int:
    """Rank of `a` counting singular values above max_dim*sigma_max*1e-12."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > s[0] * (max(a.shape) * RANK_TOL_SCALE)))


def _commutator_residual(c: np.ndarray, theta: np.ndarray) -> float:
    """``max |c_i Theta c_j^T|`` over the rows of ``c``, each scaled to unit norm.

    Each row is first divided by its largest entry, so that its norm cannot
    overflow.  A zero row stays zero: it commutes with everything, and the
    rank check refuses it.
    """
    peak = np.abs(c).max(axis=1, initial=0.0)[:, None]
    c = np.divide(c, peak, out=np.zeros_like(c), where=peak > 0)
    norm = np.linalg.norm(c, axis=1)[:, None]
    c = np.divide(c, norm, out=c, where=norm > 0)
    return float(np.abs(c @ theta @ c.T).max())


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _symmetric(a: np.ndarray) -> bool:
    """``|A - A^T|_max <= SYMMETRY_TOL |A|_max``, so that rescaling A keeps the verdict."""
    return not a.size or np.abs(a - a.T).max() <= SYMMETRY_TOL * np.abs(a).max()


def _dynamics_pair(theta, r) -> tuple[np.ndarray, np.ndarray]:
    """``(theta, r)`` as the checked matrices of one closed system: theta
    exactly canonical (block-J form), r of its size and symmetric relative
    to its largest entry."""
    theta = _as_matrix(theta, "theta")
    r = _as_matrix(r, "r")
    n = theta.shape[0]
    if theta.shape[1] != n or n % 2 != 0 or n == 0:
        raise ValueError(f"theta must be square with even dimension, got {theta.shape}")
    if not np.array_equal(theta.T, -theta):
        raise ValueError("theta must be exactly skew-symmetric")
    if not np.array_equal(theta @ theta, -np.eye(n)):
        raise ValueError("theta must square to -I (canonical block-J form)")
    if r.shape != (n, n):
        raise ValueError(f"r must be {n}x{n}, got {r.shape}")
    if not _symmetric(r):
        raise ValueError("r must be symmetric to within 1e-12 of its largest entry")
    return theta, r


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuantumLinearSystem:
    """A closed linear quantum system (commutation matrix, Hamiltonian, output).

    Attributes
    ----------
    theta : ndarray
        n x n canonical commutation matrix, block diag(J, ..., J).
    r : ndarray
        n x n real symmetric Hamiltonian matrix (energy = 0.5 x^T R x).
    c : ndarray
        m x n output selector; the estimated variables are z = C x.

    The arrays are stored as read-only copies.
    """

    theta: np.ndarray
    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self._store(*_dynamics_pair(self.theta, self.r))

    def _store(self, theta: np.ndarray, r: np.ndarray) -> None:
        """Check ``c`` against the checked pair ``(theta, r)``; store all three read-only."""
        c = _as_matrix(self.c, "c")
        n = theta.shape[0]
        if c.shape[1] != n or c.shape[0] < 1:
            raise ValueError(f"c must have {n} columns and at least one row, got {c.shape}")
        for name, arr in (("theta", theta), ("r", r), ("c", c)):
            object.__setattr__(self, name, _read_only(arr))

    @classmethod
    def _of_checked_pair(cls, theta: np.ndarray, r: np.ndarray, c) -> "QuantumLinearSystem":
        """The system of a pair that ``_dynamics_pair`` has already passed:
        only ``c`` is checked, so the dense ``theta @ theta`` is formed once."""
        system = object.__new__(cls)
        object.__setattr__(system, "c", c)
        system._store(theta, r)
        return system

    @property
    def n(self) -> int:
        """Number of system variables (even)."""
        return self.theta.shape[0]

    @property
    def m(self) -> int:
        """Number of output variables."""
        return self.c.shape[0]

    @property
    def a(self) -> np.ndarray:
        """Heisenberg dynamics matrix ``A = 2 Theta R`` (derived, never stored).

        Raises ``ValueError`` when A does not fit in doubles.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            a = 2.0 * self.theta @ self.r
        if not np.all(np.isfinite(a)):
            raise ValueError("2 theta r overflows doubles")
        return a


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks a plant must pass for observer design.

    All flags are derived from the residuals against the stated tolerances;
    the report is pure data and a failing flag is not an error.
    """

    tf_cond_ok: bool
    cjc_ok: bool
    rank_ok: bool
    bound_ok: bool
    rank_cr: int
    n_p2: int
    residuals: dict = field(default_factory=dict)

    @property
    def flags(self) -> dict[str, bool]:
        """Each ``*_ok`` field and its value, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name.endswith("_ok")}

    @property
    def failing(self) -> list[str]:
        """Names of the conditions that fail, such as ``["tf_cond", "cjc"]``."""
        return [name.removesuffix("_ok") for name, ok in self.flags.items() if not ok]

    @property
    def all_ok(self) -> bool:
        return not self.failing


def check_plant_conditions(plant: QuantumLinearSystem, tol: float = CONDITION_TOL, *,
                           rank_cr: int | None = None) -> ConditionReport:
    """Check the structural conditions for estimability of the plant outputs.

    The checks, with residuals measured in the element-wise max norm:

    * the outputs are decoupled from the plant dynamics for all time,
      checked through the finite equivalent ``C [R, Theta R] = 0``
      (because ``Theta^2 = -I``, vanishing of ``C Theta^k R`` for k = 0, 1
      implies it for every k, which is the transfer-function identity);
    * ``C Theta C^T = 0``, i.e. the output variables commute, judged on the
      unit-norm rows of C, so that rescaling an output keeps the verdict;
    * ``C`` has full row rank m (numerical rank via SVD);
    * ``m <= n_p2 / 2`` where ``n_p2 = n - rank [R, Theta R]`` counts the
      variables that stay constant under the free plant dynamics.

    A caller that has decomposed the plant passes its ``n_p1`` as `rank_cr`,
    so that a design ranks the dynamics once, in the decomposition's ``eigh``
    of R; otherwise ``[R, Theta R]`` is ranked here by its singular values,
    the paper-level reference.
    A `rank_cr` outside ``0..n`` raises ``ValueError``.
    """
    theta, r, c = plant.theta, plant.r, plant.c
    cr = np.hstack([r, theta @ r])
    if rank_cr is None:
        rank_cr = numerical_rank(cr)
    elif not 0 <= rank_cr <= plant.n:
        raise ValueError(f"rank_cr must lie in 0..{plant.n}, got {rank_cr}")
    n_p2 = plant.n - rank_cr

    tf_residual = float(np.abs(c @ cr).max())
    cjc_residual = _commutator_residual(c, theta)
    rank_c = numerical_rank(c)

    return ConditionReport(
        tf_cond_ok=tf_residual <= tol,
        cjc_ok=cjc_residual <= tol,
        rank_ok=rank_c == plant.m,
        bound_ok=2 * plant.m <= n_p2,
        rank_cr=rank_cr,
        n_p2=n_p2,
        residuals={
            "tf_cond": tf_residual,
            "cjc": cjc_residual,
            "rank_defect": float(plant.m - rank_c),
            "bound_excess": float(max(0.0, plant.m - n_p2 / 2)),
        },
    )
