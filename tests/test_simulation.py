"""Propagator, trajectories, time-average diagnostics, and the RK4 oracle."""

import dataclasses

import numpy as np
import pytest

from qobserver import (
    AugmentedSystem,
    assemble_augmented,
    averaging_error_bound,
    matrix_exponential,
    propagate,
    time_average_error,
    time_grid,
)

from conftest import random_valid_system
from oracles import ode_oracle


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def single_mode_system(r=None):
    """A 1-mode augmented stand-in: a_a = 2 J R with selectors on each row."""
    theta = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r = np.eye(2) if r is None else np.asarray(r, dtype=float)
    return AugmentedSystem(
        theta_a=theta, r_a=r, a_a=2.0 * theta @ r,
        zp_selector=np.eye(1, 2), zo_selector=np.eye(1, 2, k=1),
    )


# 0, 0.1, ..., 1.0 then 1.25, ..., 3.0: two distinct step sizes
MIXED_GRID = np.concatenate([np.arange(11) * 0.1, 1.0 + np.arange(1, 9) * 0.25])


@pytest.fixture
def exponentials(monkeypatch):
    """Arguments of the matrix_exponential calls made by the simulation module."""
    calls = []

    def counted(a):
        calls.append(a)
        return matrix_exponential(a)

    monkeypatch.setattr("qobserver.simulation.matrix_exponential", counted)
    return calls


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_rotation_closed_form(self):
        a = 2.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.abs(matrix_exponential(a) - rotation(2.0)).max() <= 1e-15

    def test_nilpotent_is_exact(self):
        a = np.array([[6.0, 6.0], [-6.0, -6.0]])
        assert np.abs(a @ a).max() == 0.0  # series truncates after the linear term
        assert np.abs(matrix_exponential(a) - (np.eye(2) + a)).max() <= 1e-12

    def test_symmetric_cross_check(self):
        # independent route through the spectral decomposition
        rng = np.random.default_rng(61)
        for scale in (1.0, 10.0, 40.0):
            g = rng.normal(size=(5, 5))
            s = scale * (g + g.T) / np.linalg.norm(g + g.T, 2)
            evals, vecs = np.linalg.eigh(s)
            reference = vecs @ np.diag(np.exp(evals)) @ vecs.T
            result = matrix_exponential(s)
            rel = np.linalg.norm(result - reference) / np.linalg.norm(reference)
            assert rel <= 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[0.0, np.inf], [0.0, 0.0]]))


class TestTimeGrid:
    def test_basic(self):
        grid = time_grid(1.0, 0.25)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("t_end,dt", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1)])
    def test_rejects_degenerate(self, t_end, dt):
        with pytest.raises(ValueError):
            time_grid(t_end, dt)


class TestPropagate:
    def test_initial_coefficients_are_selectors(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        assert np.array_equal(sixmode_record.zp_coeffs[0], aug.zp_selector)
        assert np.array_equal(sixmode_record.zo_coeffs[0], aug.zo_selector)

    def test_plant_outputs_stay_constant(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, time_grid(100.0, 0.01))
        drift = np.abs(record.zp_coeffs - record.zp_coeffs[0]).max()
        assert drift <= 1e-8

    def test_decoupled_observer_rotates(self, sixmode_system):
        plant, dec, obs, _ = sixmode_system
        decoupled = dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                                        r_c_tilde=np.zeros_like(obs.r_c_tilde))
        aug = assemble_augmented(plant, decoupled)
        record = propagate(aug, time_grid(20.0, 0.01))
        # closed form: zo(t) = [0, rot(2t)], period pi, average -> 0
        for k in (0, 314, 1000, 2000):
            t = record.times[k]
            expected = np.hstack([np.zeros((2, 6)), rotation(2.0 * t)])
            assert np.abs(record.zo_coeffs[k] - expected).max() <= 1e-9
        integral = 0.5 * np.array([
            [np.sin(40.0), 1.0 - np.cos(40.0)],
            [np.cos(40.0) - 1.0, np.sin(40.0)]])
        expected_avg = np.hstack([np.zeros((2, 6)), integral / 20.0])
        # tolerance dominated by trapezoid quadrature error ~ (2 dt)^2 / 12
        assert np.abs(record.zo_avg[-1] - expected_avg).max() <= 1e-5

    def test_single_point_grid(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, np.array([0.0]))
        assert record.times.shape == (1,)
        assert np.array_equal(record.zp_coeffs[0], aug.zp_selector)
        assert record.zo_avg.shape[0] == 0

    @pytest.mark.parametrize("times", [[], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 2.0]])
    def test_rejects_bad_grids(self, sixmode_system, times):
        *_, aug = sixmode_system
        with pytest.raises(ValueError):
            propagate(aug, np.array(times, dtype=float))

    def test_nonuniform_grid(self):
        aug = single_mode_system()
        times = np.array([0.0, 0.1, 0.25, 0.7, 1.3])
        record = propagate(aug, times)
        for k, t in enumerate(times):
            assert np.abs(record.zo_coeffs[k] - rotation(2.0 * t)[1]).max() <= 1e-12

    def test_one_exponential_per_distinct_step(self, sixmode_system, exponentials):
        *_, aug = sixmode_system
        propagate(aug, time_grid(200.0, 0.01))
        assert len(exponentials) == 1
        exponentials.clear()
        propagate(aug, MIXED_GRID)
        assert len(exponentials) == 2

    def test_mixed_grid_rows_match_direct_exponentials(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, MIXED_GRID)
        selectors = np.vstack([aug.zp_selector, aug.zo_selector])
        for k, t in enumerate(MIXED_GRID):
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.abs(rows - selectors @ matrix_exponential(aug.a_a * t)).max() <= 1e-12

    def test_random_system_rows_match_direct_exponentials(self):
        *_, aug = random_valid_system(np.random.default_rng(73))
        times = time_grid(50.0, 0.01)
        record = propagate(aug, times)
        selectors = np.vstack([aug.zp_selector, aug.zo_selector])
        for k in (0, times.size // 2, times.size - 1):
            reference = selectors @ matrix_exponential(aug.a_a * times[k])
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.all(np.abs(rows - reference)
                          <= 1e-9 * np.maximum(1.0, np.abs(reference)))

    def test_commutation_and_energy_preserved_on_grid(self):
        # step-and-square propagation keeps both quadratic invariants
        rng = np.random.default_rng(67)
        for _ in range(5):
            *_, aug = random_valid_system(rng)
            h = 0.5
            e = matrix_exponential(aug.a_a * h)
            phi = np.eye(aug.n)
            worst_ccr = worst_energy = 0.0
            for _ in range(200):  # t up to 100
                phi = e @ phi
                worst_ccr = max(worst_ccr, np.abs(
                    phi @ aug.theta_a @ phi.T - aug.theta_a).max())
                worst_energy = max(worst_energy, np.abs(
                    phi.T @ aug.r_a @ phi - aug.r_a).max())
            assert worst_ccr <= 1e-8
            assert worst_energy <= 1e-8


class TestTimeAverageError:
    def test_sixmode_converges(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        report = time_average_error(sixmode_record, aug)
        assert report.passed
        assert report.zp_drift <= 1e-6
        assert -1.3 <= report.decay_slope <= -0.7
        assert report.final_error <= 0.02

    def test_sixmode_error_matches_closed_form(self, sixmode_system, sixmode_record):
        # with R_o = I the averaging error is |sin T| / T times the norm of
        # the initial offset [-C_p, I]
        plant, _, obs, aug = sixmode_system
        offset = np.linalg.norm(np.hstack([-plant.c, np.eye(2)]))
        errors = np.linalg.norm(sixmode_record.zo_avg - aug.zp_selector, axis=(1, 2))
        for t in (10.0, 50.0, 200.0):
            k = int(round(t / 0.01))
            predicted = abs(np.sin(t)) / t * offset
            assert abs(errors[k] - predicted) <= 1e-4

    def test_bounded_by_averaging_constant(self, sixmode_system, sixmode_record):
        plant, _, obs, aug = sixmode_system
        k_const = averaging_error_bound(obs, plant.c)
        errors = np.linalg.norm(sixmode_record.zo_avg - aug.zp_selector, axis=(1, 2))
        mask = sixmode_record.times >= 10.0
        assert np.all(errors[mask] <= 2.0 * k_const / sixmode_record.times[mask])

    def test_bound_holds_for_random_systems(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            plant, _, obs, aug = random_valid_system(rng)
            record = propagate(aug, time_grid(50.0, 0.01))
            k_const = averaging_error_bound(obs, plant.c)
            errors = np.linalg.norm(record.zo_avg - aug.zp_selector, axis=(1, 2))
            mask = record.times >= 10.0
            assert np.all(errors[mask] <= 2.0 * k_const / record.times[mask])

    def test_decoupled_fails_with_full_target_error(self, sixmode_system):
        plant, dec, obs, _ = sixmode_system
        decoupled = dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                                        r_c_tilde=np.zeros_like(obs.r_c_tilde))
        aug = assemble_augmented(plant, decoupled)
        record = propagate(aug, time_grid(50.0, 0.01))
        report = time_average_error(record, aug)
        assert not report.passed
        # average of pure rotations tends to zero, so the error approaches
        # the norm of the target itself
        target_norm = np.linalg.norm(aug.zp_selector)
        assert abs(report.final_error - target_norm) <= 0.1
        assert report.zp_drift <= 1e-10  # plant outputs still constant

    def test_requires_minimum_horizon(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, time_grid(5.0, 0.01))
        with pytest.raises(ValueError, match="t_end"):
            time_average_error(record, aug)

    def test_slope_needs_five_samples(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, time_grid(10.0, 2.5))
        report = time_average_error(record, aug)
        assert report.decay_slope is None
        assert not report.passed


class TestOdeOracle:
    def test_rotation_closed_form(self):
        aug = single_mode_system()
        times, zp, zo = ode_oracle(aug, 10.0, dt=1e-3)
        expected = rotation(2.0 * times[-1])
        assert np.abs(zp[-1] - expected[0]).max() <= 1e-9
        assert np.abs(zo[-1] - expected[1]).max() <= 1e-9

    def test_nilpotent_polynomial_solution(self):
        # a_a = 2 J R for R = [[3,3],[3,3]] squares to zero: X(t) = I + a t
        aug = single_mode_system(r=[[3.0, 3.0], [3.0, 3.0]])
        times, zp, zo = ode_oracle(aug, 1.0, dt=1e-3)
        expected = np.eye(2) + aug.a_a * times[-1]
        assert np.abs(zp[-1] - expected[0]).max() <= 1e-9
        assert np.abs(zo[-1] - expected[1]).max() <= 1e-9

    def test_agrees_with_propagator_on_sixmode(self, sixmode_system):
        *_, aug = sixmode_system
        record_p = propagate(aug, time_grid(50.0, 0.01))
        times, zp, zo = ode_oracle(aug, 50.0)
        assert times[-1] == pytest.approx(50.0, abs=1e-12)
        assert np.abs(record_p.zp_coeffs[-1] - zp[-1]).max() <= 1e-6
        assert np.abs(record_p.zo_coeffs[-1] - zo[-1]).max() <= 1e-6

    def test_detects_unstable_step(self):
        # oscillation at frequency 2 with dt = 2: far outside the RK4
        # stability interval on the imaginary axis, so the step map grows
        aug = single_mode_system()
        with pytest.raises(RuntimeError, match="diverged"):
            ode_oracle(aug, 100.0, dt=2.0)

    def test_rejects_bad_horizon(self, sixmode_system):
        *_, aug = sixmode_system
        with pytest.raises(ValueError):
            ode_oracle(aug, 0.0)
