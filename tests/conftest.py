"""Shared fixtures: the bundled six-mode system, its record, randomized valid plants,
configuration files written from a ``PlantConfig``, and the round-off of an average."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qobserver import (
    QuantumLinearSystem,
    assemble_augmented,
    decompose_plant,
    make_commutation_matrix,
    numerical_rank,
    plant_from_transformed_output,
    propagate,
    synthesize_observer,
    time_grid,
)
from qobserver.config import _SECTION_OF, FORMAT_VERSION, build_plant
from qobserver.demo import sixmode_config

from oracles import span_rank


def config_to_dict(cfg):
    """JSON document of ``cfg``: each set matrix and each field off its default."""
    doc = {"format_version": FORMAT_VERSION}
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value.ravel()]
        elif value == field.default:
            continue
        section = _SECTION_OF.get(field.name)
        (doc.setdefault(section, {}) if section else doc)[field.name] = value
    return doc


def same_bits(a, b) -> bool:
    """Whether two float64 arrays hold the same doubles, signed zeros told apart."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def save_config(cfg, path):
    """Write ``cfg`` as a configuration file that ``load_config`` reads back."""
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")


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
    n_p2 = n_p - span_rank(theta, r_p)
    while True:
        w = rng.normal(size=(m, n_p2 // 2))
        if numerical_rank(w) == m:
            break
    c2 = np.zeros((m, n_p2))
    c2[:, 0::2] = c_scale * w
    return plant_from_transformed_output(r_p, c2)


def real_embedding(z):
    """The real form of a complex matrix: each entry a + ib becomes the 2x2 block
    ``[[a, -b], [b, a]]``, which commutes with J.  A unitary becomes orthogonal."""
    out = np.empty((2 * z.shape[0], 2 * z.shape[1]))
    out[0::2, 0::2] = out[1::2, 1::2] = z.real
    out[1::2, 0::2], out[0::2, 1::2] = z.imag, -z.imag
    return out


def random_passive_plant(rng, n_modes, rank, m):
    """Passive plant H = a^dagger M a for a random Hermitian M of the given rank.

    R is the real embedding of M (``real_embedding``), whose 2x2 blocks commute
    with J.  The outputs are the
    q-quadratures of m orthonormal zero modes u of M: each row interleaves
    Re u and Im u.  Needs ``rank + m <= n_modes``.  Returns (plant, dec).
    """
    z = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    u, _ = np.linalg.qr(z)
    eigs = rng.choice([-1.0, 1.0], size=rank) * rng.uniform(0.5, 2.0, size=rank)
    herm = (u[:, :rank] * eigs) @ u[:, :rank].conj().T
    r = real_embedding((herm + herm.conj().T) / 2)
    zero_modes = u[:, rank:rank + m].T
    c = np.empty((m, 2 * n_modes))
    c[:, 0::2], c[:, 1::2] = zero_modes.real, zero_modes.imag
    plant = QuantumLinearSystem(r, c)
    return plant, decompose_plant(plant)


def roundoff(aug, times):
    """Round-off of an exact average at each of ``times``: ``1e-12 + 4 eps |A|_2 t``."""
    return 1e-12 + 4 * np.finfo(float).eps * np.linalg.norm(aug.a, 2) * np.asarray(times)


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
