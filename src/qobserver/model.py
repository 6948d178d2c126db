"""Matrix-valued data model for closed linear quantum systems.

A closed linear quantum system of n / 2 oscillator modes is described by a
real symmetric Hamiltonian matrix ``R`` and an output selector ``C``.  Its
canonical commutation matrix ``Theta = diag(J, ..., J)`` (2x2 symplectic
units ``J``) and its Heisenberg dynamics matrix ``A = 2 Theta R`` are derived,
never stored; A so preserves the commutation relations for all time (physical
realizability).  The plant is such a system, and so is the plant together
with its directly coupled observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

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
# count as zero.  The thresholds of the dynamics basis derive from it too
# (see _dynamics_basis).
RANK_TOL_SCALE = 1e-12


def make_commutation_matrix(n_modes: int) -> np.ndarray:
    """The read-only canonical commutation matrix diag(J, ..., J) of ``n_modes``
    oscillator modes, 2 n_modes square: ``QuantumLinearSystem.theta`` of that size."""
    if isinstance(n_modes, bool) or not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    theta = np.kron(np.eye(n_modes), J)
    theta.setflags(write=False)
    return theta


def numerical_rank(a: np.ndarray) -> int:
    """Rank of `a` counting singular values above max_dim*sigma_max*1e-12, taken after
    scaling `a` exactly by the power of two that puts its largest entry in [0.5, 1)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(np.ldexp(a, -np.frexp(np.abs(a).max())[1]), compute_uv=False)
    return int(np.count_nonzero(s > s[0] * (max(a.shape) * RANK_TOL_SCALE)))


def _times_theta(x: np.ndarray) -> np.ndarray:
    """``x @ Theta`` for the canonical Theta of x's width, as the signed column swap it is."""
    y = np.empty(x.shape)
    y[:, 0::2], y[:, 1::2] = -x[:, 1::2], x[:, 0::2]
    return y


def _commutator_residual(c: np.ndarray) -> float:
    """``max |c_i Theta c_j^T|`` over the rows of ``c``, each scaled to unit norm.

    Each row is first divided by its largest entry, so that its norm cannot
    overflow.  A zero row stays zero: it commutes with everything, and the
    rank check refuses it.
    """
    peak = np.abs(c).max(axis=1, initial=0.0)[:, None]
    c = np.divide(c, peak, out=np.zeros_like(c), where=peak > 0)
    norm = np.linalg.norm(c, axis=1)[:, None]
    c = np.divide(c, norm, out=c, where=norm > 0)
    return float(np.abs(_times_theta(c) @ c.T).max())


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


def _hamiltonian(r) -> np.ndarray:
    """``r`` checked: square, of even non-zero size, and symmetric."""
    r = _as_matrix(r, "r")
    n = r.shape[0]
    if r.shape[1] != n or n % 2 != 0 or n == 0:
        raise ValueError(f"r must be square with even non-zero dimension, got {r.shape}")
    if not _symmetric(r):
        raise ValueError("r must be symmetric to within 1e-12 of its largest entry")
    return r


def _pair_basis(theta: np.ndarray) -> np.ndarray:
    """Orthogonal Q with Q^T theta Q = diag(J, ..., J) for skew theta^2 = -I.

    The modes are the orthonormal eigenvectors a + ib of the Hermitian
    i theta at +1, so theta a = b and theta b = -a; each is orthogonal to its
    conjugate at -1, so |a| = |b| = 1/sqrt(2).  Q pairs sqrt(2) a with
    -sqrt(2) b, mode by mode.
    """
    lam, u = np.linalg.eigh(1j * theta)
    u = np.sqrt(2.0) * u[:, lam > 0]
    q = np.empty(theta.shape)
    q[:, 0::2], q[:, 1::2] = u.real, -u.imag
    return q


def _dynamics_basis(r: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthogonal P and rank n_p1 of [R, Theta R], fixed by R and the canonical Theta.

    v is orthogonal to range [R, Theta R] exactly when R v = 0 and R Theta v = 0,
    so the constant subspace is ker R ∩ Theta ker R.  With K an orthonormal
    basis of ker R from ``eigh(R)`` and the skew ``S = K^T Theta K``, that
    subspace is K times the eigenvectors of ``-S^2 = S^T S`` at eigenvalue 1
    (the eigenvalues are at most 1).  P is the range eigenvectors of R, then
    K times the eigenvectors of ``-S^2`` below 1, then K times those at 1,
    paired.  Both thresholds are dimensionless: an eigenvalue of R counts as
    zero within ``n RANK_TOL_SCALE`` of the largest in modulus, one of
    ``-S^2`` as 1 within ``k RANK_TOL_SCALE`` of 1, for K of k columns.  Raises
    ``ValueError`` when an eigenvalue of R does not fit in doubles.
    """
    lam, v = np.linalg.eigh(r)
    if not np.all(np.isfinite(lam)):
        raise ValueError("the eigenvalues of r overflow doubles")
    zero = np.abs(lam) <= r.shape[0] * RANK_TOL_SCALE * np.abs(lam).max()
    kernel = v[:, zero]
    s = _times_theta(kernel.T) @ kernel
    mu, w = np.linalg.eigh(s.T @ s)
    kernel = kernel @ w
    fixed = mu >= 1.0 - kernel.shape[1] * RANK_TOL_SCALE
    tail = kernel[:, fixed]
    tail = tail @ _pair_basis(_times_theta(tail.T) @ tail)
    p = np.hstack([v[:, ~zero], kernel[:, ~fixed], tail])
    p.setflags(write=False)
    return p, p.shape[0] - tail.shape[1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuantumLinearSystem:
    """A closed linear quantum system of n / 2 modes, stored as read-only copies of
    ``r``, the n x n real symmetric Hamiltonian matrix (energy 0.5 x^T R x), and
    ``c``, the m x n output selector of the estimated z = C x.  Its commutation
    matrix ``theta`` is the canonical diag(J, ..., J) of size n, derived.
    """

    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        r = _hamiltonian(self.r)
        c = _as_matrix(self.c, "c")
        n = r.shape[0]
        if c.shape[1] != n or c.shape[0] < 1:
            raise ValueError(f"c must have {n} columns and at least one row, got {c.shape}")
        for name, arr in (("r", r), ("c", c)):
            object.__setattr__(self, name, _read_only(arr))

    @property
    def n(self) -> int:
        """Number of system variables (even)."""
        return self.r.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """Canonical commutation matrix diag(J, ..., J), n x n (derived, never stored)."""
        return make_commutation_matrix(self.n // 2)

    @property
    def m(self) -> int:
        """Number of output variables."""
        return self.c.shape[0]

    @cached_property
    def dynamics_basis(self) -> tuple[np.ndarray, int]:
        """``(P, n_p1)``, P orthogonal (read-only) with its first n_p1 = rank [R, Theta R]
        columns spanning that range; factored on first read (``_dynamics_basis``) and kept."""
        return _dynamics_basis(self.r)

    @property
    def a(self) -> np.ndarray:
        """Heisenberg dynamics matrix ``A = 2 Theta R`` (derived, never stored).

        Raises ``ValueError`` when A does not fit in doubles.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            a = -2.0 * _times_theta(self.r.T).T  # Theta R = -(R^T Theta)^T
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


def check_plant_conditions(plant: QuantumLinearSystem,
                           tol: float = CONDITION_TOL) -> ConditionReport:
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

    The rank is the plant's ``dynamics_basis`` rank n_p1, on which the
    decomposition is built too: one factorization of (Theta, R) per plant.
    """
    r, c = plant.r, plant.c
    rank_cr = plant.dynamics_basis[1]
    n_p2 = plant.n - rank_cr

    # max |[C R, C Theta R]|, from [C; C Theta] R with no n x n product; inf fails
    with np.errstate(over="ignore"):
        tf_residual = float(np.abs(np.vstack([c, _times_theta(c)]) @ r).max())
    cjc_residual = _commutator_residual(c)
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
