"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import time

import numpy as np

from qobserver import (
    PlantConditionError,
    QuantumLinearSystem,
    check_plant_conditions,
    decompose_plant,
    make_commutation_matrix,
    matrix_exponential,
    propagate,
    synthesize_observer,
    time_average_error,
    time_grid,
)
from qobserver.config import build_plant
from qobserver.demo import sixmode_config

from conftest import random_spd, random_valid_plant, random_valid_system
from oracles import ode_oracle


def _criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_structure_reproduction():
    start = time.perf_counter()
    plant, dec = build_plant(sixmode_config())
    report = check_plant_conditions(plant)
    elapsed = time.perf_counter() - start

    ok = report.rank_cr == 2 and (dec.n_p1, dec.n_p2) == (2, 4)
    eigs = np.sort(np.linalg.eigvalsh(dec.r_p11))
    ok = ok and np.allclose(eigs, [0.0, 6.0], atol=1e-9)
    th11 = np.sort(np.linalg.eigvals(dec.theta11).imag)
    th22 = np.sort(np.linalg.eigvals(dec.theta22).imag)
    ok = ok and np.allclose(th11, [-1.0, 1.0], atol=1e-9)
    ok = ok and np.allclose(th22, [-1.0, -1.0, 1.0, 1.0], atol=1e-9)
    ok = ok and elapsed < 1.0
    _criterion(1, "six-mode structure: rank 2, blocks (2, 4), spectra",
               ok, f"{elapsed:.3f}s")


def test_criterion_2_synthesis_reproduction(sixmode_system):
    _, dec, obs, _ = sixmode_system
    reference = np.array([[-1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
    ok = np.array_equal(obs.r_c_tilde, reference)
    consistency = np.abs(
        -obs.c_o @ np.linalg.solve(obs.r_o, obs.beta) - np.eye(2)).max()
    ok = ok and consistency == 0.0
    stacked = np.vstack([np.zeros((dec.n_p1, 2)), obs.r_c_tilde])
    ok = ok and np.array_equal(obs.r_c, dec.p @ stacked)
    rotation_residual = np.abs(dec.p.T @ obs.r_c - stacked).max()
    ok = ok and rotation_residual <= 1e-12
    _criterion(2, "six-mode synthesis: exact coupling block, zero consistency residual",
               ok, f"rotation residual {rotation_residual:.1e}")


def test_criterion_3_output_constancy(sixmode_system):
    *_, aug = sixmode_system
    start = time.perf_counter()
    record = propagate(aug, time_grid(100.0, 0.01))
    elapsed = time.perf_counter() - start
    drift = np.abs(record.zp_coeffs - record.zp_coeffs[0]).max()
    ok = drift <= 1e-6 and elapsed < 10.0
    _criterion(3, "plant output coefficients constant over [0, 100]",
               ok, f"drift {drift:.2e}, {elapsed:.2f}s")


def test_criterion_4_time_averaged_convergence(sixmode_system, sixmode_record):
    *_, aug = sixmode_system
    record = sixmode_record
    report = time_average_error(record, aug)
    ok = report.decay_slope is not None and -1.3 <= report.decay_slope <= -0.7

    errors = np.linalg.norm(record.zo_avg - aug.c, axis=(1, 2))
    err_10 = errors[int(round(10.0 / 0.01))]
    err_200 = errors[-1]
    ok = ok and err_200 <= 2.0 * (err_10 / 10.0)
    _criterion(4, "time-averaged convergence at rate 1/T over [6.25, 200]",
               ok, f"slope {report.decay_slope:.3f}, "
                   f"err(200)/err(10) = {err_200 / err_10:.3f}")


def test_criterion_5_physical_realizability_invariants():
    rng = np.random.default_rng(2025)
    worst_ccr = worst_energy = 0.0
    for _ in range(50):
        *_, aug = random_valid_system(rng)
        for t in (1.0, 10.0, 100.0):
            phi = matrix_exponential(aug.a * t)
            worst_ccr = max(worst_ccr, np.abs(
                phi @ aug.theta @ phi.T - aug.theta).max())
            worst_energy = max(worst_energy, np.abs(
                phi.T @ aug.r @ phi - aug.r).max())
    ok = worst_ccr <= 1e-8 and worst_energy <= 1e-8
    _criterion(5, "commutation/energy preservation on 50 random systems",
               ok, f"worst {worst_ccr:.2e} / {worst_energy:.2e}")


def test_criterion_6_observer_flow_bound():
    rng = np.random.default_rng(4099)
    worst_excess = -np.inf
    for _ in range(50):
        n_o = int(rng.choice([2, 4]))
        r_o = random_spd(rng, n_o, eig_range=(0.2, 4.0))
        theta_o = make_commutation_matrix(n_o // 2)
        evals = np.linalg.eigvalsh(r_o)
        bound = np.sqrt(evals[-1] / evals[0])
        for t in (0.5, 5.0, 50.0):
            norm = np.linalg.norm(matrix_exponential(2.0 * theta_o @ r_o * t), 2)
            worst_excess = max(worst_excess, norm - bound)
    ok = worst_excess <= 1e-8
    _criterion(6, "observer flow norm within condition-number bound",
               ok, f"worst excess {worst_excess:.2e}")


def test_criterion_7_oracle_equivalence(sixmode_system):
    *_, aug = sixmode_system
    worst = 0.0

    def deviation(system):
        ref = propagate(system, time_grid(50.0, 0.01))
        _, zp, zo = ode_oracle(system, 50.0)
        return max(np.abs(ref.zp_coeffs[-1] - zp[-1]).max(),
                   np.abs(ref.zo_coeffs[-1] - zo[-1]).max())

    worst = deviation(aug)
    rng = np.random.default_rng(515)
    for _ in range(10):
        *_, random_aug = random_valid_system(rng)
        worst = max(worst, deviation(random_aug))
    ok = worst <= 1e-6

    nilpotent = np.array([[6.0, 6.0], [-6.0, -6.0]])
    exact = np.abs(nilpotent @ nilpotent).max() == 0.0
    nil_dev = np.abs(matrix_exponential(nilpotent) - (np.eye(2) + nilpotent)).max()
    ok = ok and exact and nil_dev <= 1e-12
    _criterion(7, "propagator agrees with RK4 oracle; nilpotent exponential exact",
               ok, f"worst dev {worst:.2e}, nilpotent {nil_dev:.1e}")


def test_criterion_8_condition_checker_soundness():
    rng = np.random.default_rng(89)
    tol = 1e-9
    equivalent = True
    for trial in range(100):
        if trial % 3 == 0:
            plant, _ = random_valid_plant(rng)
        else:
            n_modes = int(rng.integers(1, 5))
            n_p = 2 * n_modes
            g = rng.normal(size=(n_p, n_p))
            plant = QuantumLinearSystem((g + g.T) / 2, rng.normal(size=(1, n_p)))
        theta, r, c = plant.theta, plant.r, plant.c
        finite = np.abs(c @ np.hstack([r, theta @ r])).max() <= tol
        direct = max(np.abs(c @ np.linalg.matrix_power(theta, k) @ r).max()
                     for k in range(4)) <= tol
        equivalent = equivalent and (finite == direct)

    # estimability bound: four outputs on a four-dimensional constant block
    plant, dec = build_plant(sixmode_config())
    over = QuantumLinearSystem(plant.r, np.hstack([np.zeros((4, 2)), np.eye(4)]) @ dec.p.T)
    over_report = check_plant_conditions(over)
    rejected = not over_report.bound_ok
    try:
        synthesize_observer(decompose_plant(over))
        refused = False
    except PlantConditionError:
        refused = True
    ok = equivalent and rejected and refused
    _criterion(8, "finite condition check equivalent to direct powers; bound enforced",
               ok)
