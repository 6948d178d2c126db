"""Shared fixtures: the bundled six-mode system, its record, and randomized valid systems."""

import numpy as np
import pytest

from qobserver import (
    assemble_augmented,
    make_commutation_matrix,
    numerical_rank,
    plant_from_transformed_output,
    propagate,
    synthesize_observer,
    time_grid,
)
from qobserver.config import build_plant
from qobserver.demo import sixmode_config


@pytest.fixture(scope="session")
def sixmode():
    """(plant, dec) for the bundled six-mode example."""
    return build_plant(sixmode_config())


@pytest.fixture(scope="session")
def sixmode_system(sixmode):
    """(plant, dec, obs, aug) with the identity observer choices."""
    plant, dec = sixmode
    obs = synthesize_observer(dec, r_o=np.eye(2), c_o=np.eye(2), beta=-np.eye(2))
    aug = assemble_augmented(plant, obs)
    return plant, dec, obs, aug


@pytest.fixture(scope="session")
def sixmode_record(sixmode_system):
    """The six-mode system propagated over time_grid(200, 0.01)."""
    *_, aug = sixmode_system
    return propagate(aug, time_grid(200.0, 0.01))


def random_valid_plant(rng, n_modes=None, m=None, r_scale=0.1, c_scale=0.5):
    """Random plant satisfying the structural conditions by construction.

    The Hamiltonian matrix is positive semidefinite of low rank (so the
    closed loop has at most linear secular growth), and the output rows are
    supported on one coordinate per constant-block mode pair, which makes
    them commuting for the canonical block form.  Returns (plant, dec).
    """
    if n_modes is None:
        n_modes = int(rng.integers(2, 5))
    n_p = 2 * n_modes
    theta = make_commutation_matrix(n_modes)
    if m is None:
        m = int(rng.integers(1, min(2, (n_p - 2) // 2) + 1))
    k_max = (n_p - 2 * m) // 2
    k = int(rng.integers(1, k_max + 1))
    g = rng.normal(size=(n_p, k))
    gram = g @ g.T
    r_p = r_scale * gram / np.linalg.norm(gram, 2)
    n_p2 = n_p - numerical_rank(np.hstack([r_p, theta @ r_p]))
    while True:
        w = rng.normal(size=(m, n_p2 // 2))
        if numerical_rank(w) == m:
            break
    c2 = np.zeros((m, n_p2))
    c2[:, 0::2] = c_scale * w
    return plant_from_transformed_output(theta, r_p, c2)


def random_spd(rng, n, eig_range=(0.5, 2.0)):
    """Random symmetric positive-definite matrix with bounded spectrum."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(*eig_range, size=n)
    return q @ np.diag(eigs) @ q.T


def random_valid_system(rng, **plant_kwargs):
    """(plant, dec, obs, aug) for a random valid plant with a random observer."""
    plant, dec = random_valid_plant(rng, **plant_kwargs)
    n_o = plant.m if plant.m % 2 == 0 else plant.m + 1
    obs = synthesize_observer(dec, r_o=random_spd(rng, n_o))
    return plant, dec, obs, assemble_augmented(plant, obs)
