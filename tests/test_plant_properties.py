"""Generated passive plants, H = a^dagger M a: the paper's class through the pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobserver import (
    PlantConditionError,
    QuantumLinearSystem,
    assemble_augmented,
    check_plant_conditions,
    decompose_plant,
    predicted_average_error,
    propagate,
    synthesize_observer,
    time_average_error,
    time_grid,
)

from conftest import random_passive_plant, random_spd, roundoff
from oracles import span_rank

# Derandomized and bounded, so that every run checks the same examples quickly.
PROFILE = settings(derandomize=True, max_examples=30, deadline=None, database=None)


@st.composite
def passive_draws(draw, parity):
    """``(rng, n_modes, rank, m)``: M of ``rank`` on ``n_modes`` modes and m outputs
    of the given parity with 2m <= n_p2 = 2 (n_modes - rank)."""
    low = 1 if parity == "odd" else 2
    n_modes = draw(st.integers(low + 1, 8))
    rank = draw(st.integers(1, n_modes - low))
    m = low + 2 * draw(st.integers(0, (n_modes - rank - low) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, n_modes, rank, m


@pytest.mark.parametrize("parity", ["odd", "even"])
@PROFILE
@given(data=st.data())
def test_passive_plants_are_observed_by_the_reduced_order_design(parity, data):
    rng, n_modes, rank, m = data.draw(passive_draws(parity))
    plant, dec = random_passive_plant(rng, n_modes, rank, m)
    # dim ker M = n_modes - rank zero modes, each a constant (q, p) pair
    assert span_rank(plant.theta, plant.r) == dec.n_p1
    assert dec.n_p2 == 2 * (n_modes - rank)
    assert check_plant_conditions(plant).all_ok

    obs = synthesize_observer(dec, r_o=random_spd(rng, m + m % 2))
    assert obs.n_o == (m if m % 2 == 0 else m + 1)
    aug = assemble_augmented(plant, obs)
    times = time_grid(50.0, 0.05)
    report = time_average_error(propagate(aug, times), aug)
    assert report.first_failure is None and report.passed
    predicted = predicted_average_error(obs, plant.c, times)[-1]
    assert abs(report.final_error - predicted) <= roundoff(aug, times[-1])


@PROFILE
@given(draw=passive_draws("even"))
def test_non_commuting_or_too_many_outputs_are_refused(draw):
    rng, n_modes, rank, _ = draw  # two zero modes or more
    # the q-quadratures of every zero mode: m = n_p2 / 2, the most the bound allows
    plant, _ = random_passive_plant(rng, n_modes, rank, n_modes - rank)
    p_first = plant.c[:1] @ plant.theta  # the first zero mode's p-quadrature
    non_commuting = QuantumLinearSystem(plant.r, np.vstack([plant.c[:1], p_first]))
    too_many = QuantumLinearSystem(plant.r, np.vstack([plant.c, p_first]))
    assert check_plant_conditions(non_commuting).failing == ["cjc"]
    assert "bound" in check_plant_conditions(too_many).failing
    for system in (non_commuting, too_many):
        with pytest.raises(PlantConditionError):
            synthesize_observer(decompose_plant(system))
