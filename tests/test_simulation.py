"""Propagator, trajectories, time-average diagnostics, and the RK4 oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import cumulative_trapezoid

from qobserver import (
    AugmentedSystem,
    assemble_augmented,
    matrix_exponential,
    predicted_average_error,
    propagate,
    simulation,
    synthesize_observer,
    time_average_error,
    time_grid,
)
from qobserver.simulation import DRIFT_TOL, _average_errors

from conftest import random_passive_plant, random_spd, random_valid_system
from oracles import average_error_reference, full_composite_rows, ode_oracle


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def single_mode_system(r=None):
    """A 1-mode augmented stand-in: A = 2 J R with selectors on each row."""
    return AugmentedSystem(
        theta=np.array([[0.0, 1.0], [-1.0, 0.0]]), r=np.eye(2) if r is None else r,
        c=np.eye(1, 2), zo_selector=np.eye(1, 2, k=1),
    )


def trapezoid_bias_bound(obs, times):
    """Bound on |trapezoid zo_avg(T) - exact zo_avg(T)|_F on a uniform grid.

    ``zo^(k)(t) = C_o A_o^k e^{A_o t} X`` and ``R_o^{1/2} e^{A_o t} R_o^{-1/2}``
    is orthogonal, so ``|zo^(k)|_F <= B_k = |C_o A_o^k R_o^{-1/2}|_2 |R_o^{1/2} X|_F``.
    The trapezoid's Peano kernel bounds the averaged bias by ``h^2 B_2 / 12``;
    Euler-Maclaurin bounds it by ``h^2 B_1 / (6 T) + h^4 B_4 / 720``.
    """
    h = times[1] - times[0]
    lam, q = np.linalg.eigh(obs.r_o)
    root, inv_root = (q * np.sqrt(lam)) @ q.T, (q / np.sqrt(lam)) @ q.T
    a_o = 2.0 * obs.theta_o @ obs.r_o
    sx = np.linalg.norm(np.hstack([inv_root @ obs.r_c.T, root]))
    b = [np.linalg.norm(obs.c_o @ np.linalg.matrix_power(a_o, k) @ inv_root, 2) * sx
         for k in range(5)]
    with np.errstate(divide="ignore"):
        return np.minimum(h**2 * b[2] / 12, h**2 * b[1] / (6 * times) + h**4 * b[4] / 720)


def decoupled(obs):
    """The design with its coupling Hamiltonian removed."""
    return dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                               r_c_tilde=np.zeros_like(obs.r_c_tilde))


# Round-off of the propagated rows, 5e-10 over T = 200, on top of the bias.
ROUNDOFF = 1e-9


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


def random_normal_matrix(rng, n, norm):
    """(A, e^A) for A = Q D Q^T with D of blocks [[x, y], [-y, x]] (and one 1x1 for odd n)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    x, y, z = rng.normal(size=n // 2), rng.normal(size=n // 2), rng.normal(size=n % 2)
    d = scipy.linalg.block_diag(*(np.array([[xi, yi], [-yi, xi]]) for xi, yi in zip(x, y)),
                                np.diag(z))
    c = norm / np.abs(q @ d @ q.T).sum(axis=0).max()
    exp_d = scipy.linalg.block_diag(*(np.exp(c * xi) * rotation(c * yi) for xi, yi in zip(x, y)),
                                    np.diag(np.exp(c * z)))
    return c * (q @ d @ q.T), q @ exp_d @ q.T


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

    def test_nilpotent_absolute_value_is_exact(self):
        # |A| is nilpotent too, so the backward-error estimate needs no squaring
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(matrix_exponential(a), np.eye(2) + a)

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

    def test_rejects_unrepresentable_powers(self):
        with pytest.raises(ValueError, match="1-norm"):
            matrix_exponential(np.array([[0.0, 1e40], [-1e40, 0.0]]))

    def test_rejects_overflow_in_squaring(self):
        # a 1-norm under 2^100 whose squarings overflow; no warning escapes
        with pytest.raises(ValueError, match="overflowed"):
            matrix_exponential(np.array([[0.0, 2e29], [-2e29, 0.0]]))

    def test_matches_scipy_expm(self, sixmode_system):
        # 1-norms from 1e-3 to theta_13 = 4.25 take r_13 unscaled; the
        # composite steps (the demo's and a passive plant's) are scaled
        rng = np.random.default_rng(83)
        inputs = []
        for n in (2, 5, 20, 60):
            for norm in (1e-3, 0.1, 0.5, 1.5, 4.0):
                a = rng.normal(size=(n, n))
                inputs.append(a * (norm / np.abs(a).sum(axis=0).max()))
        *_, aug = sixmode_system
        inputs += [aug.a * h for h in (0.01, 1.0, 10.0)]
        plant, dec = random_passive_plant(rng, 5, 2, 2)
        inputs.append(assemble_augmented(plant, synthesize_observer(dec)).a * 0.1)
        for a in inputs:
            reference = scipy.linalg.expm(a)
            rel = np.linalg.norm(matrix_exponential(a) - reference) / np.linalg.norm(reference)
            assert rel <= 1e-12

    def test_squaring_matches_spectral_form(self):
        # Above theta_13 = 4.25 (Al-Mohy & Higham 2009) the result is squared.
        # The reference is exact here: scipy's degree-13 path itself strays
        # by up to ~6e-12 on such matrices at n <= 5 (measured against
        # 50-digit arithmetic).
        rng = np.random.default_rng(89)
        for n in (2, 5, 20, 60):
            for norm in (20.0, 100.0):
                a, reference = random_normal_matrix(rng, n, norm)
                assert np.abs(a).sum(axis=0).max() > 4.25
                rel = np.linalg.norm(matrix_exponential(a) - reference) / np.linalg.norm(reference)
                assert rel <= 1e-12


class TestTimeGrid:
    def test_basic(self):
        grid = time_grid(1.0, 0.25)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("t_end,dt", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1), (1.0, 3.0)])
    def test_rejects_degenerate(self, t_end, dt):
        with pytest.raises(ValueError):
            time_grid(t_end, dt)

    @pytest.mark.parametrize("t_end,dt", [(200.0, 1e-300), (1e300, 1e-300)])
    def test_rejects_grid_beyond_record_bound(self, t_end, dt):
        with pytest.raises(ValueError, match="would exceed MAX_RECORD_BYTES"):
            time_grid(t_end, dt)


class TestPropagate:
    def test_initial_coefficients_are_selectors(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        assert np.array_equal(sixmode_record.zp_coeffs[0], aug.c)
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
        assert np.array_equal(record.zp_coeffs[0], aug.c)
        assert record.zo_avg.shape == (1, aug.m, aug.n)
        assert np.array_equal(record.zo_avg[0], aug.zo_selector)

    @pytest.mark.parametrize("times", [[], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 2.0]])
    def test_rejects_bad_grids(self, sixmode_system, times):
        *_, aug = sixmode_system
        with pytest.raises(ValueError):
            propagate(aug, np.array(times, dtype=float))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, 1.0, np.inf]])
    def test_rejects_nonfinite_grids(self, sixmode_system, times):
        plant, _, obs, aug = sixmode_system
        with pytest.raises(ValueError, match="time grid must hold finite times"):
            propagate(aug, np.array(times))
        with pytest.raises(ValueError, match="time grid must hold finite times"):
            predicted_average_error(obs, plant.c, times)

    def test_refuses_record_beyond_bound_before_allocating(self, sixmode_system, monkeypatch):
        # time_grid applies the same bound, so the grid is built directly
        *_, aug = sixmode_system
        times = np.arange(20_001) * 0.01
        record_bytes = 24 * times.size * aug.m * aug.n
        monkeypatch.setattr(simulation, "MAX_RECORD_BYTES", record_bytes - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="per point would exceed MAX_RECORD_BYTES"):
                propagate(aug, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * times.nbytes < record_bytes / 20
        monkeypatch.setattr(simulation, "MAX_RECORD_BYTES", record_bytes)
        assert propagate(aug, times).zo_avg.shape == (times.size, aug.m, aug.n)

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
        selectors = np.vstack([aug.c, aug.zo_selector])
        for k, t in enumerate(MIXED_GRID):
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.abs(rows - selectors @ matrix_exponential(aug.a * t)).max() <= 1e-12

    def test_random_system_rows_match_direct_exponentials(self):
        *_, aug = random_valid_system(np.random.default_rng(73))
        times = time_grid(50.0, 0.01)
        record = propagate(aug, times)
        selectors = np.vstack([aug.c, aug.zo_selector])
        for k in (0, times.size // 2, times.size - 1):
            reference = selectors @ matrix_exponential(aug.a * times[k])
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.all(np.abs(rows - reference)
                          <= 1e-9 * np.maximum(1.0, np.abs(reference)))

    @pytest.mark.parametrize("design", ["demo", "random", "passive", "decoupled", "given_r_o"])
    def test_reduced_rows_match_full_composite(self, sixmode_system, design):
        # the rows are stepped in the (m + n_o)-dimensional basis and mapped back
        rng = np.random.default_rng(97)
        plant, dec, obs, _ = sixmode_system
        if design == "random":
            plant, dec, obs, _ = random_valid_system(rng, n_modes=5, m=3)
        elif design == "passive":  # C_p given in original coordinates
            plant, dec = random_passive_plant(rng, 5, 2, 2)
            obs = synthesize_observer(dec)
        elif design == "decoupled":
            obs = decoupled(obs)
        elif design == "given_r_o":
            obs = synthesize_observer(dec, r_o=random_spd(rng, 2))
        aug = assemble_augmented(plant, obs)
        assert aug.basis.shape == (aug.n, plant.m + obs.n_o)
        times = time_grid(50.0, 0.01)
        record = propagate(aug, times)
        checkpoints = [0, 1, times.size // 2, times.size - 1]
        reference = full_composite_rows(aug, times[checkpoints])
        rows = np.concatenate([record.zp_coeffs[checkpoints], record.zo_coeffs[checkpoints]],
                              axis=1)
        assert np.all(np.abs(rows - reference) <= 1e-9 * np.maximum(1.0, np.abs(reference)))
        assert time_average_error(record, aug).reduction_residual <= 1e-10

    def test_direct_composite_steps_all_coordinates(self, sixmode_system):
        *_, aug = sixmode_system
        direct = AugmentedSystem(aug.theta, aug.r, aug.c, aug.zo_selector)
        assert np.array_equal(direct.basis, np.eye(aug.n))
        record = propagate(direct, MIXED_GRID)
        reference = full_composite_rows(direct, MIXED_GRID)
        assert np.abs(np.concatenate([record.zp_coeffs, record.zo_coeffs], axis=1)
                      - reference).max() <= 1e-12
        assert time_average_error(propagate(direct, time_grid(20.0, 0.01)),
                                  direct).reduction_residual == 0.0

    def test_stepped_plant_outputs_hold_over_20000_steps(self, sixmode_system):
        # the odd/even split I + 2 (V - U)^-1 U keeps this below 1e-9;
        # solving (V - U) X = V + U drifts to about 2.3e-9
        *_, aug = sixmode_system
        e = matrix_exponential(aug.a * 0.01)
        rows = np.vstack([aug.c, aug.zo_selector])
        drift = 0.0
        for _ in range(20000):
            rows = rows @ e
            drift = max(drift, np.abs(rows[:aug.m] - aug.c).max())
        assert drift <= 1e-9

    @pytest.mark.parametrize("grid", ["sixmode", "mixed"])
    def test_average_is_cumulative_trapezoid(self, sixmode_system, sixmode_record, grid):
        *_, aug = sixmode_system
        record = sixmode_record if grid == "sixmode" else propagate(aug, MIXED_GRID)
        t = record.times
        reference = cumulative_trapezoid(record.zo_coeffs, t, axis=0, initial=0)
        assert np.array_equal(record.zo_avg[1:], reference[1:] / t[1:, None, None])
        assert np.array_equal(record.zo_avg[0], record.zo_coeffs[0])

    def test_commutation_and_energy_preserved_on_grid(self):
        # step-and-square propagation keeps both quadratic invariants
        rng = np.random.default_rng(67)
        for _ in range(5):
            *_, aug = random_valid_system(rng)
            h = 0.5
            e = matrix_exponential(aug.a * h)
            phi = np.eye(aug.n)
            worst_ccr = worst_energy = 0.0
            for _ in range(200):  # t up to 100
                phi = e @ phi
                worst_ccr = max(worst_ccr, np.abs(
                    phi @ aug.theta @ phi.T - aug.theta).max())
                worst_energy = max(worst_energy, np.abs(
                    phi.T @ aug.r @ phi - aug.r).max())
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
        # the trapezoid average differs from the closed form by at most its
        # bias: 1.05e-4 at the first grid point, 1.05e-5 for T >= 10
        plant, _, obs, aug = sixmode_system
        times = sixmode_record.times
        errors = np.linalg.norm(sixmode_record.zo_avg - aug.c, axis=(1, 2))
        predicted = predicted_average_error(obs, plant.c, times)
        bound = trapezoid_bias_bound(obs, times)
        assert np.all(np.abs(errors - predicted) <= bound + ROUNDOFF)
        assert bound.max() <= 2e-4 and bound[times >= 10].max() <= 2e-5

    def test_error_norms_are_blocked_without_record_sized_temporaries(
            self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        zo_avg = sixmode_record.zo_avg
        expected = np.linalg.norm(zo_avg - aug.c, axis=(1, 2))
        tracemalloc.start()
        try:
            errors = _average_errors(zo_avg, aug.c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(errors, expected)
        assert peak < zo_avg.nbytes / 2

    def test_bounded_by_averaging_constant(self, sixmode_system, sixmode_record):
        # K = sup_{T >= 10} T * prediction is sqrt(m) times the spectral
        # averaging constant, sqrt(10) on the demo
        plant, _, obs, aug = sixmode_system
        times = sixmode_record.times
        mask = times >= 10.0
        k_const = (times * predicted_average_error(obs, plant.c, times))[mask].max()
        assert abs(k_const - np.sqrt(10.0)) <= 1e-6
        errors = np.linalg.norm(sixmode_record.zo_avg - aug.c, axis=(1, 2))
        bias = trapezoid_bias_bound(obs, times)
        assert np.all(errors[mask] <= k_const / times[mask] + bias[mask] + ROUNDOFF)

    def test_bound_holds_for_random_systems(self):
        # the simulated error stays within the trapezoid's bias of the closed
        # form on random designs (m = 1 to 4, R_o random positive definite),
        # passive plants, and each of them without coupling
        rng = np.random.default_rng(71)
        designs = [random_valid_system(rng, n_modes=5, m=m)[::2] for m in (1, 2, 3, 4)]
        for n_modes, rank, m in ((3, 1, 1), (4, 2, 2), (5, 1, 3)):
            plant, dec = random_passive_plant(rng, n_modes, rank, m)
            designs.append((plant, synthesize_observer(dec, r_o=random_spd(rng, m + m % 2))))
        designs += [(plant, decoupled(obs)) for plant, obs in designs]
        times = time_grid(50.0, 0.01)
        for plant, obs in designs:
            aug = assemble_augmented(plant, obs)
            errors = np.linalg.norm(propagate(aug, times).zo_avg - aug.c, axis=(1, 2))
            predicted = predicted_average_error(obs, plant.c, times)
            assert np.all(np.abs(errors - predicted)
                          <= trapezoid_bias_bound(obs, times) + ROUNDOFF)

    def test_decoupled_fails_with_full_target_error(self, sixmode_system):
        plant, dec, obs, _ = sixmode_system
        aug = assemble_augmented(plant, decoupled(obs))
        record = propagate(aug, time_grid(50.0, 0.01))
        report = time_average_error(record, aug)
        assert not report.passed
        # average of pure rotations tends to zero, so the error approaches
        # the norm of the target itself
        target_norm = np.linalg.norm(aug.c)
        assert abs(report.final_error - target_norm) <= 0.1
        assert report.zp_drift <= 1e-10  # plant outputs still constant

    def test_basis_that_is_not_invariant_fails_the_verdict(self, sixmode_system):
        # tilt the first basis vector by 1e-8 towards the dynamical block: the
        # outputs still look constant and decay, but the residual flags it
        _, dec, _, aug = sixmode_system
        basis = aug.basis.copy()
        basis[:6, 0] += 1e-8 * dec.p[:, 0]
        skewed = dataclasses.replace(aug, basis=np.linalg.qr(basis)[0])
        times = time_grid(50.0, 0.01)
        record = propagate(skewed, times)
        report = time_average_error(record, skewed)
        assert report.zp_drift <= DRIFT_TOL and -1.3 <= report.decay_slope <= -0.7
        assert report.reduction_residual > DRIFT_TOL and not report.passed
        # and it bounds how far the rows strayed
        reference = full_composite_rows(skewed, times[-1:])[0]
        rows = np.vstack([record.zp_coeffs[-1], record.zo_coeffs[-1]])
        assert np.abs(rows - reference).max() <= report.reduction_residual

    def test_drift_is_largest_deviation(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        zp = sixmode_record.zp_coeffs
        assert time_average_error(sixmode_record, aug).zp_drift == np.abs(zp - zp[0]).max()

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

    def test_decay_slope_equals_polyfit(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        rec = sixmode_record
        errors = np.linalg.norm(rec.zo_avg - aug.c, axis=(1, 2))
        window = (rec.times >= rec.t_end / 32) & (rec.times > 0)
        fitted = np.polyfit(np.log(rec.times[window]), np.log(errors[window]), 1)[0]
        slope = time_average_error(rec, aug).decay_slope
        assert abs(slope - fitted) <= 1e-12 * abs(fitted)

    def test_verdict_needs_no_record_sized_temporaries(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        tracemalloc.start()
        try:
            time_average_error(sixmode_record, aug)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sixmode_record.zo_avg.nbytes / 3


class TestPredictedAverageError:
    def test_sixmode_is_sqrt10_sinc(self, sixmode_system, sixmode_record):
        # R_o = I rotates by 2t, and |[-C_p, I]|_F = sqrt(10)
        plant, _, obs, _ = sixmode_system
        times = sixmode_record.times
        predicted = predicted_average_error(obs, plant.c, times)
        assert np.abs(predicted - np.sqrt(10.0) * np.abs(np.sinc(times / np.pi))).max() <= 1e-12

    def test_matches_van_loan_integral(self, sixmode_system):
        plant, _, obs, _ = sixmode_system
        rng = np.random.default_rng(73)
        designs = [(plant, obs)] + [random_valid_system(rng, n_modes=5, m=m)[::2]
                                    for m in (1, 2, 3, 4)]
        designs += [(plant, decoupled(obs)) for plant, obs in designs]
        times = time_grid(10.0, 0.01)
        for plant, obs in designs:
            reference = average_error_reference(obs, plant.c, times)
            predicted = predicted_average_error(obs, plant.c, times)
            # the Hermitian form's terms are of the size of the curve's
            # largest value, so round-off is relative to that value
            assert np.abs(predicted - reference).max() <= 1e-12 * reference.max()

    def test_offset_vanishes_for_consistent_designs(self, sixmode):
        # -C_o R_o^-1 beta = I makes the error decay like 1/T; without the
        # coupling it tends to |C_p|_F instead
        plant, dec = sixmode
        rng = np.random.default_rng(41)
        times = np.array([0.0, 1e9])
        for _ in range(5):
            obs = synthesize_observer(dec, r_o=random_spd(rng, 2))
            assert predicted_average_error(obs, plant.c, times)[1] <= 1e-8
            limit = predicted_average_error(decoupled(obs), plant.c, times)[1]
            assert abs(limit - np.linalg.norm(plant.c)) <= 1e-8

    def test_rejects_wrong_output_shape(self, sixmode_system):
        plant, _, obs, _ = sixmode_system
        with pytest.raises(ValueError, match="c_p must be 2x6"):
            predicted_average_error(obs, plant.c[:, :4], [0.0, 1.0])


class TestOdeOracle:
    def test_rotation_closed_form(self):
        aug = single_mode_system()
        times, zp, zo = ode_oracle(aug, 10.0, dt=1e-3)
        expected = rotation(2.0 * times[-1])
        assert np.abs(zp[-1] - expected[0]).max() <= 1e-9
        assert np.abs(zo[-1] - expected[1]).max() <= 1e-9

    def test_nilpotent_polynomial_solution(self):
        # A = 2 J R for R = [[3,3],[3,3]] squares to zero: X(t) = I + A t
        aug = single_mode_system(r=[[3.0, 3.0], [3.0, 3.0]])
        times, zp, zo = ode_oracle(aug, 1.0, dt=1e-3)
        expected = np.eye(2) + aug.a * times[-1]
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
