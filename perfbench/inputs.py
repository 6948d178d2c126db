"""Seeded generation of the plants the workloads feed to qobserver.

Only numpy is used here: the program receives the generated inputs as
configuration files in its documented JSON format and nothing else.  The
structure of every plant (size, rank of R, number of outputs) comes from a
fixed schedule; the seed draws the matrix entries.  So the cost of a round
is nearly the same on every seed while the values differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

J = np.array([[0.0, 1.0], [-1.0, 0.0]])

LARGE_N_MODES = 100
LARGE_RANK = 80
LARGE_OUTPUTS = (3, 4)
LARGE_T_END = 200.0
LARGE_DT = 0.1

# design_sweep schedule: counts per round.
SWEEP_VALID = 180
SWEEP_NONCOMMUTING = 30
SWEEP_TOO_MANY = 26
# Valid plants with R scaled up, refused today by the absolute condition
# tolerance.  They do not depend on the seed: the six-mode plant at fixed
# scales.
R_SCALES = (1e7, 2e7, 5e7, 1e8)

SIXMODE_R = np.ones((6, 6))
SIXMODE_OUTPUT = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])


def commutation(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), J)


def constant_dimension(r_p: np.ndarray) -> int:
    """n_p2 = n_p - rank [R, Theta R], by a plain SVD rank."""
    n = r_p.shape[0]
    cr = np.hstack([r_p, commutation(n // 2) @ r_p])
    s = np.linalg.svd(cr, compute_uv=False)
    return n - int(np.count_nonzero(s > max(cr.shape) * s[0] * 1e-12))


@dataclass
class Plant:
    """A generated plant and what the benchmark expects qobserver to do with it."""

    name: str
    kind: str          # "valid", "noncommuting", "too_many" or "r_scaled"
    r_p: np.ndarray
    c_p2_tilde: np.ndarray
    t_end: float = 100.0
    dt: float = 0.01

    @property
    def n_p(self) -> int:
        return self.r_p.shape[0]

    @property
    def m(self) -> int:
        return self.c_p2_tilde.shape[0]

    @property
    def valid(self) -> bool:
        return self.kind in ("valid", "r_scaled")

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        doc = {"format_version": 1, "n_p": self.n_p, "m": self.m,
               "r_p": self.r_p.ravel().tolist(),
               "c_p2_tilde": self.c_p2_tilde.ravel().tolist(),
               "simulation": {"t_end": self.t_end, "dt": self.dt}}
        path.write_text(json.dumps(doc))
        return path


def psd_hamiltonian(rng, n_p: int, rank: int) -> np.ndarray:
    """PSD R of the given rank and spectral norm 0.1, as in the test family."""
    g = rng.normal(size=(n_p, rank))
    gram = g @ g.T
    r = 0.1 * gram / np.linalg.norm(gram, 2)
    return (r + r.T) / 2


def commuting_outputs(rng, m: int, n_p2: int) -> np.ndarray:
    """m full-rank rows on the position coordinate of each constant mode pair."""
    c2 = np.zeros((m, n_p2))
    c2[:, 0::2] = 0.5 * rng.normal(size=(m, n_p2 // 2))
    return c2


def valid_plant(rng, name: str, n_modes: int, rank: int, m: int, **grid) -> Plant:
    r_p = psd_hamiltonian(rng, 2 * n_modes, rank)
    return Plant(name, "valid", r_p, commuting_outputs(rng, m, constant_dimension(r_p)), **grid)


def large_plants(seed: int) -> list[Plant]:
    """One n_p = 200 plant, observed through an odd and an even number of outputs."""
    rng = np.random.default_rng([seed, 1])
    r_p = psd_hamiltonian(rng, 2 * LARGE_N_MODES, LARGE_RANK)
    n_p2 = constant_dimension(r_p)
    return [Plant(f"large_m{m}", "valid", r_p, commuting_outputs(rng, m, n_p2),
                  t_end=LARGE_T_END, dt=LARGE_DT) for m in LARGE_OUTPUTS]


def sweep_plants(seed: int) -> list[Plant]:
    """One round of design_sweep inputs, interleaved so every kind spreads over it."""
    rng = np.random.default_rng([seed, 2])
    sizes = np.round(np.geomspace(3, LARGE_N_MODES, SWEEP_VALID)).astype(int)
    plants = []
    for i, n_modes in enumerate(sizes):
        m = min(1 + i % 4, n_modes - 1)
        rank = max(1, (n_modes - m) * (1 + i % 3) // 4)
        plants.append(valid_plant(rng, f"valid{i:03d}", int(n_modes), rank, m))
    for i in range(SWEEP_NONCOMMUTING):
        # Outputs on both coordinates of one constant mode pair do not commute.
        n_modes = int(sizes[(i * 6) % SWEEP_VALID])
        r_p = psd_hamiltonian(rng, 2 * n_modes, max(1, n_modes // 3))
        n_p2 = constant_dimension(r_p)
        c2 = np.zeros((2, n_p2))
        c2[0, 0] = 1.0 + rng.random()
        c2[1, 1] = 1.0 + rng.random()
        plants.append(Plant(f"noncommuting{i:02d}", "noncommuting", r_p, c2))
    for i in range(SWEEP_TOO_MANY):
        # More outputs than half the constant coordinates can carry.
        n_modes = int(sizes[(i * 7) % SWEEP_VALID])
        r_p = psd_hamiltonian(rng, 2 * n_modes, max(1, n_modes // 2))
        n_p2 = constant_dimension(r_p)
        m = n_p2 // 2 + 1
        plants.append(Plant(f"too_many{i:02d}", "too_many", r_p,
                            rng.normal(size=(m, n_p2))))
    for scale in R_SCALES:
        plants.append(Plant(f"r_scaled_{scale:.0e}", "r_scaled", SIXMODE_R * scale,
                            SIXMODE_OUTPUT.copy()))
    order = np.random.default_rng(0).permutation(len(plants))
    return [plants[i] for i in order]
