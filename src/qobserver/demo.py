"""The bundled six-mode demonstration plant.

A three-mode network with an all-ones Hamiltonian matrix: its dynamics span
only a two-dimensional subspace, leaving four constant coordinates, of
which two commuting combinations are chosen as the outputs to estimate.
The identity observer choices reproduce the reference behaviour with zero
configuration: constant plant outputs and 1/T time-averaged convergence of
the observer outputs.
"""

from __future__ import annotations

import numpy as np

from .analysis import plant_from_transformed_output
from .config import PlantConfig
from .model import make_commutation_matrix

__all__ = ["SIXMODE_OUTPUT", "sixmode_plant", "sixmode_config"]

# Output selector in the rotated constant-block coordinates: two rows that
# are constant within each mode pair, hence commuting for any block-J form.
SIXMODE_OUTPUT = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, -1.0],
])
SIXMODE_OUTPUT.setflags(write=False)


def sixmode_plant():
    """Build the demo plant; returns ``(plant, dec)``."""
    theta_p = make_commutation_matrix(3)
    r_p = np.ones((6, 6))
    return plant_from_transformed_output(theta_p, r_p, SIXMODE_OUTPUT)


def sixmode_config(t_end: float = 200.0) -> PlantConfig:
    """The demo plant as a loadable configuration."""
    return PlantConfig(
        n_p=6,
        m=2,
        r_p=np.ones((6, 6)),
        c_p2_tilde=np.array(SIXMODE_OUTPUT),
        t_end=t_end,
    )
