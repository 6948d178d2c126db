"""Propagator, trajectories, time-average diagnostics, and the RK4 oracle."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import unitary_group

from qobserver import (
    AugmentedSystem,
    assemble_augmented,
    check_plant_conditions,
    model,
    predicted_average_error,
    propagate,
    simulation,
    synthesize_observer,
    time_average_error,
    time_grid,
)
from qobserver.config import PlantConfig, build_plant
from qobserver.demo import sixmode_config
from qobserver.simulation import DRIFT_TOL, _distances, _norms

from conftest import (random_passive_plant, random_spd, random_valid_plant,
                      random_valid_system, real_embedding, roundoff, same_bits)
from oracles import (average_error_reference, full_composite_rows, integrated_average,
                     ode_oracle, stepped_rows)


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, s], [-s, c]])


def single_mode(r=None):
    """A one-mode stand-in for the RK4 oracle: A = 2 J R, one selector on each row.

    At n = 2 there is no room for a plant beside an observer, so it is not an
    ``AugmentedSystem``; it carries only what ``ode_oracle`` reads.
    """
    r = np.eye(2) if r is None else np.asarray(r, dtype=float)
    return SimpleNamespace(a=2.0 * model.J @ r, c=np.eye(1, 2), zo_selector=np.eye(1, 2, k=1),
                           theta=model.J, n=2, m=1)


def decoupled(obs):
    """The design with its coupling Hamiltonian removed."""
    return dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                               r_c_tilde=np.zeros_like(obs.r_c_tilde))


# 0, 0.1, ..., 1.0 then 1.25, ..., 3.0: two distinct step sizes
MIXED_GRID = np.concatenate([np.arange(11) * 0.1, 1.0 + np.arange(1, 9) * 0.25])
# steps 0.1, 0.15, 0.1, ...: two distinct step sizes, alternating
ALTERNATING_GRID = np.concatenate([[0.0], np.cumsum(np.resize([0.1, 0.15], 12))])


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
        # the average is exact: measured 5.7e-16
        assert np.abs(record.zo_avg[-1] - expected_avg).max() <= roundoff(aug, 20.0)

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

    def test_record_in_the_basis_is_not_bounded(self, monkeypatch):
        # the record keeps its closed form, not its rows: a bound below the rows in
        # the basis and their average, 24 N m d bytes, changes nothing
        *_, aug = random_valid_system(np.random.default_rng(103), n_modes=100, m=4)
        times = time_grid(200.0, 0.01)
        expected = time_average_error(propagate(aug, times), aug)
        monkeypatch.setattr(simulation, "MAX_RECORD_BYTES",
                            24 * times.size * aug.m * aug.basis.shape[1] - 1)
        record = propagate(aug, times)
        assert time_average_error(record, aug) == expected
        assert all(np.size(getattr(record, field.name)) < times.size
                   for field in dataclasses.fields(record) if field.name != "times")

    def test_holds_a_few_doubles_per_point(self):
        # a large_plant-shaped design over 20 001 points: the rows in the basis and
        # their average would be 96 doubles per point.  Measured: 5.9 and 4.2, each
        # with about 0.8 MB of block temporaries
        *_, aug = random_valid_system(np.random.default_rng(103), n_modes=100, m=4)
        times = time_grid(200.0, 0.01)
        assert aug.n == 204 and times.size == 20_001
        peaks = []
        tracemalloc.start()
        try:
            record = propagate(aug, times)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            time_average_error(record, aug)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 8 * times.nbytes

    @pytest.mark.parametrize("start", [0, 1, "-N", "1-N"])
    @pytest.mark.parametrize("stop", [None, 5, 0, "-N"])
    def test_blocks_pin_the_row_at_zero_by_its_index(self, sixmode_system, sixmode_record,
                                                     start, stop):
        # a block that holds t = 0, whichever index names it, starts with exactly c or
        # zo_selector, in the basis exactly the record's start; each other row is the
        # full read's, and "z" stacks the rows of "zp" and "zo"
        *_, aug = sixmode_system
        rec, m = sixmode_record, aug.m
        size = rec.times.size
        start, stop = ({"-N": -size, "1-N": 1 - size}.get(i, i) for i in (start, stop))
        index = range(size)[start:stop]
        for name, first, start_rows in (("zp", aug.c, rec.start[:m]),
                                        ("zo", aug.zo_selector, rec.start[m:]),
                                        ("zo_avg", aug.zo_selector, rec.start[m:])):
            block, rows = rec.coefficients(name, start, stop), rec.rows(name, start, stop)
            assert len(block) == len(rows) == len(index)
            assert np.array_equal(block, rec.coefficients(name)[start:stop])
            assert np.array_equal(rows, rec.rows(name)[start:stop])
            if 0 in index:
                assert np.array_equal(block[0], first)
                assert np.array_equal(rows[0], start_rows)
        assert np.array_equal(rec.rows("z", start, stop), np.concatenate(
            [rec.rows("zp", start, stop), rec.rows("zo", start, stop)], axis=1))

    @pytest.mark.parametrize("design", ["demo", "valid", "leaky", "moving"])
    def test_constant_plant_rows_are_formed_once(self, sixmode_system, design, monkeypatch):
        # an assembled composite's plant rows have no sinusoid terms, so a zp block is one
        # row, formed with no call to rows; it must equal rows("zp") @ basis.T bit for bit
        # at every split.  The leaky composite of test_drift_fails_a_plant_output_that_moves
        # keeps constant rows in the basis (its leak is what reduction_residual bounds); a
        # plant output that reads an observer coordinate moves there: the general path
        augs = [sixmode_system[3]]
        if design == "valid":
            augs = [assemble_augmented(plant, synthesize_observer(dec)) for plant, dec in
                    (random_valid_plant(np.random.default_rng(seed)) for seed in range(6))]
        elif design != "demo":
            c = augs[0].c.copy()
            c[0, 0 if design == "leaky" else -1] += 1e-3
            augs = [AugmentedSystem(augs[0].r, c, augs[0].zo_selector)]
        calls, rows = [], simulation.TrajectoryRecord.rows
        monkeypatch.setattr(simulation.TrajectoryRecord, "rows",
                            lambda self, *args: calls.append(args) or rows(self, *args))
        for aug in augs:
            rec = propagate(aug, time_grid(1.0, 0.1))
            (m, n), d, size = aug.c.shape, aug.basis.shape[1], rec.times.size
            assert rec.k[1:, :m].any() == (design == "moving")
            for length in range(1, size + 1):
                for k in range(0, size, length):
                    calls.clear()
                    block = rec.coefficients("zp", k, k + length)
                    assert bool(calls) == (design == "moving")
                    general = rows(rec, "zp", k, k + length).reshape(-1, d) @ rec.basis.T
                    general = general.reshape(-1, m, n)
                    if k == 0:
                        general[0] = aug.c
                    assert same_bits(block, general)

    def test_derived_arrays_are_bounded_on_first_read(self, sixmode_system, monkeypatch):
        # a bound between the record in the basis and the derived zp, zo and zo_avg
        *_, aug = sixmode_system
        times = time_grid(20.0, 0.01)
        d = aug.basis.shape[1]
        assert d < aug.n
        monkeypatch.setattr(simulation, "MAX_RECORD_BYTES", 24 * times.size * aug.m * d)
        record = propagate(aug, times)
        assert time_average_error(record, aug).passed
        for name in ("zp_coeffs", "zo_coeffs", "zo_avg"):
            with pytest.raises(ValueError, match="per point would exceed MAX_RECORD_BYTES"):
                getattr(record, name)
        block = record.coefficients("zo_avg", 1, 3)  # a block is read within the bound
        monkeypatch.setattr(simulation, "MAX_RECORD_BYTES", 24 * times.size * aug.m * aug.n)
        assert record.zo_avg.shape == (times.size, aug.m, aug.n)
        assert np.array_equal(block, record.zo_avg[1:3])

    def test_allocates_no_full_width_array(self):
        # a large_plant-shaped design: n_p = 200, m = 4, 2 001 points, d = 8
        *_, aug = random_valid_system(np.random.default_rng(103), n_modes=100, m=4)
        times = time_grid(20.0, 0.01)
        tracemalloc.start()
        try:
            record = propagate(aug, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aug.basis.shape == (204, 8)
        assert peak < times.size * aug.m * aug.n * 8
        # formed on each read, never kept
        assert record.zo_avg is not record.zo_avg and not vars(record).keys() - {
            field.name for field in dataclasses.fields(record)}
        assert record.zo_avg.shape == (times.size, aug.m, aug.n)

    def test_nonuniform_grid(self, sixmode_system):
        *_, aug = sixmode_system
        times = np.array([0.0, 0.1, 0.25, 0.7, 1.3])
        record = propagate(aug, times)
        rows = np.concatenate([record.zp_coeffs, record.zo_coeffs], axis=1)
        assert np.abs(rows - full_composite_rows(aug, times)).max() <= 1e-12

    @pytest.mark.parametrize("grid", [1, 2, 3, 64, 65, "alternating"])
    def test_filled_rows_match_direct_exponentials(self, sixmode_system, grid):
        # uniform grids of 1, 2, 3, 2^k and 2^k + 1 points, and alternating steps
        *_, aug = sixmode_system
        times = ALTERNATING_GRID if grid == "alternating" else np.arange(grid) * 0.1
        record = propagate(aug, times)
        selectors = np.vstack([aug.c, aug.zo_selector])
        assert record.rows("zo").shape[0] == times.size
        for k, t in enumerate(times):
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.abs(rows - selectors @ scipy.linalg.expm(aug.a * t)).max() <= 1e-12

    def test_filled_rows_match_stepping_over_20000_steps(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, time_grid(2000.0, 0.1))
        assert np.abs(record.rows("z") - stepped_rows(aug, 0.1, 20_000)).max() <= 1e-10

    def test_mixed_grid_rows_match_direct_exponentials(self, sixmode_system):
        *_, aug = sixmode_system
        record = propagate(aug, MIXED_GRID)
        selectors = np.vstack([aug.c, aug.zo_selector])
        for k, t in enumerate(MIXED_GRID):
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.abs(rows - selectors @ scipy.linalg.expm(aug.a * t)).max() <= 1e-12

    def test_random_system_rows_match_direct_exponentials(self):
        *_, aug = random_valid_system(np.random.default_rng(73))
        times = time_grid(50.0, 0.01)
        record = propagate(aug, times)
        selectors = np.vstack([aug.c, aug.zo_selector])
        for k in (0, times.size // 2, times.size - 1):
            reference = selectors @ scipy.linalg.expm(aug.a * times[k])
            rows = np.vstack([record.zp_coeffs[k], record.zo_coeffs[k]])
            assert np.all(np.abs(rows - reference)
                          <= 1e-9 * np.maximum(1.0, np.abs(reference)))

    @pytest.mark.parametrize("design", ["demo", "random", "passive", "decoupled", "given_r_o"])
    def test_reduced_rows_match_full_composite(self, sixmode_system, design):
        # the rows are formed in the (m + n_o)-dimensional basis and mapped back
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
        # a composite built directly derives the basis assemble_augmented's has
        *_, aug = sixmode_system
        direct = AugmentedSystem(aug.r, aug.c, aug.zo_selector)
        assert np.array_equal(direct.basis, aug.basis)
        record = propagate(direct, MIXED_GRID)
        reference = full_composite_rows(direct, MIXED_GRID)
        assert np.abs(np.concatenate([record.zp_coeffs, record.zo_coeffs], axis=1)
                      - reference).max() <= 1e-12
        assert time_average_error(propagate(direct, time_grid(20.0, 0.01)),
                                  direct).reduction_residual <= 1e-10

    def test_stepped_plant_outputs_hold_over_20000_steps(self, sixmode_system, sixmode_record):
        # the plant rows are constant in closed form: at each of the 20 000 steps
        # of the grid they are exactly row 0, on the demo and on large_plant-shaped
        # designs (n_p = 200, m = 3 and 4)
        designs = [(sixmode_system[3], sixmode_record)]
        for m in (3, 4):
            *_, aug = random_valid_system(np.random.default_rng(103), n_modes=100, m=m)
            designs.append((aug, propagate(aug, time_grid(200.0, 0.01))))
        for aug, record in designs:
            assert record.times.size == 20_001
            zp = record.rows("zp")
            assert (zp == zp[0]).all()

    def test_refuses_an_observer_block_that_is_not_positive_definite(self, sixmode_system):
        *_, aug = sixmode_system
        r = aug.r.copy()
        r[6:, 6:] *= -1.0
        with pytest.raises(ValueError, match="r_o must be positive definite"):
            propagate(AugmentedSystem(r, aug.c, aug.zo_selector), MIXED_GRID)

    @pytest.mark.parametrize("grid", ["sixmode", "mixed"])
    def test_average_is_exact_integral(self, sixmode_system, sixmode_record, grid):
        # against scipy's Van Loan integral of each step: measured 1.2e-14 and 4.4e-16
        *_, aug = sixmode_system
        record = sixmode_record if grid == "sixmode" else propagate(aug, MIXED_GRID)
        t, avg = record.times, record.rows("zo_avg")
        reference = integrated_average(aug, record.rows("z"), t)
        assert np.all(np.abs(avg - reference).max(axis=(1, 2)) <= roundoff(aug, t))
        assert np.array_equal(avg[0], record.rows("zo")[0])
        # the original-coordinate average is the map-back of the one in the basis
        assert np.array_equal(record.zo_avg[1:], avg[1:] @ record.basis.T)
        assert np.array_equal(record.zo_avg[0], aug.zo_selector)

    def test_commutation_and_energy_preserved_on_grid(self):
        # the recorded rows r(t) = r(0) Phi(t) keep the flow's quadratic invariants:
        # Phi Theta Phi^T = Theta keeps r Theta r^T, and Phi^T R Phi = R keeps
        # (r Theta) R (r Theta)^T
        rng = np.random.default_rng(67)
        for _ in range(5):
            *_, aug = random_valid_system(rng)
            record = propagate(aug, time_grid(100.0, 0.5))
            rows = np.concatenate([record.zp_coeffs, record.zo_coeffs], axis=1)
            turned = rows @ aug.theta
            ccr = turned @ rows.transpose(0, 2, 1)
            energy = turned @ aug.r @ turned.transpose(0, 2, 1)
            assert np.abs(ccr - ccr[0]).max() <= 1e-8
            assert np.abs(energy - energy[0]).max() <= 1e-8


class TestTimeAverageError:
    def test_sixmode_converges(self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        report = time_average_error(sixmode_record, aug)
        assert report.passed
        assert -1.3 <= report.decay_slope <= -0.7
        assert report.final_error <= 0.02

    def test_sixmode_error_matches_closed_form(self, sixmode_system, sixmode_record):
        plant, _, obs, aug = sixmode_system
        times = sixmode_record.times
        errors = np.linalg.norm(sixmode_record.zo_avg - aug.c, axis=(1, 2))
        predicted = predicted_average_error(obs, plant.c, times)
        assert np.all(np.abs(errors - predicted) <= roundoff(aug, times))

    @pytest.mark.parametrize("omega", [1e2, 1e3, 1e5, 3e5, 1e6])
    def test_average_is_exact_at_any_stiffness(self, sixmode, omega):
        # omega = 1 is the test above; here omega dt reaches 1e4, beyond any
        # quadrature on this grid.  Measured: at most 1.3e-15
        plant, dec = sixmode
        obs = synthesize_observer(dec, omega=omega)
        aug = assemble_augmented(plant, obs)
        times = time_grid(200.0, 0.01)
        errors = np.linalg.norm(propagate(aug, times).zo_avg - aug.c, axis=(1, 2))
        predicted = predicted_average_error(obs, plant.c, times)
        assert np.all(np.abs(errors - predicted) <= roundoff(aug, times))

    @pytest.mark.parametrize("omega", [1e5, 3e5, 1e6])
    def test_decay_is_one_over_t_at_any_stiffness(self, sixmode, omega):
        # omega dt reaches 1e4: the slope is read from exact averages
        plant, dec = sixmode
        aug = assemble_augmented(plant, synthesize_observer(dec, omega=omega))
        report = time_average_error(propagate(aug, time_grid(200.0, 0.01)), aug)
        assert abs(report.decay_slope + 1.0) <= 0.01
        if omega <= 3e5:
            assert report.passed

    def test_coarse_grid_error_is_exact(self, sixmode_system):
        # about six steps of 0.5 per period of pi, yet the error is exact
        *_, aug = sixmode_system
        report = time_average_error(propagate(aug, time_grid(10.0, 0.5)), aug)
        assert abs(report.final_error - np.sqrt(10.0) * abs(np.sin(10.0)) / 10.0) \
            <= roundoff(aug, 10.0)

    def test_error_norms_are_blocked_without_record_sized_temporaries(
            self, sixmode_system, sixmode_record):
        *_, aug = sixmode_system
        avg, target = sixmode_record.rows("zo_avg"), aug.c @ sixmode_record.basis
        expected = np.linalg.norm(avg - target, axis=(1, 2))
        tracemalloc.start()
        try:
            errors = _distances(sixmode_record, "zo_avg", target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(errors, expected)
        assert peak < sixmode_record.zo_avg.nbytes / 2

    @pytest.mark.filterwarnings("error")
    def test_error_norms_do_not_overflow(self, sixmode_record):
        # each difference is scaled by a power of two before it is squared
        rows = sixmode_record.rows("zo_avg", 0, 500)
        expected = np.linalg.norm(rows, axis=(1, 2))
        assert np.array_equal(_norms(rows * 2.0**1000), expected * 2.0**1000)

    def test_bounded_by_averaging_constant(self, sixmode_system, sixmode_record):
        # K = sup_{T >= 10} T * prediction is sqrt(m) times the spectral
        # averaging constant, sqrt(10) on the demo
        plant, _, obs, aug = sixmode_system
        times = sixmode_record.times
        mask = times >= 10.0
        k_const = (times * predicted_average_error(obs, plant.c, times))[mask].max()
        assert abs(k_const - np.sqrt(10.0)) <= 1e-6
        errors = np.linalg.norm(sixmode_record.zo_avg - aug.c, axis=(1, 2))
        assert np.all(errors[mask] <= k_const / times[mask] + roundoff(aug, times[mask]))

    def test_bound_holds_for_random_systems(self):
        # the simulated error matches the closed form to round-off on random
        # designs (m = 1 to 4, R_o random positive definite), passive plants,
        # and each of them without coupling
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
            assert np.all(np.abs(errors - predicted) <= roundoff(aug, times))

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
        zp = record.rows("zp")
        assert (zp == zp[0]).all()  # plant outputs constant

    def test_basis_that_is_not_invariant_fails_the_verdict(self, sixmode_system):
        # tilt the first plant output by 1e-8 towards the dynamical block: the basis
        # it derives is not invariant.  The outputs still look constant and decay,
        # but the residual flags it
        _, dec, _, aug = sixmode_system
        c = aug.c.copy()
        c[0, :6] += 1e-8 * dec.p[:, 0]
        skewed = AugmentedSystem(aug.r, c, aug.zo_selector)
        times = time_grid(50.0, 0.01)
        record = propagate(skewed, times)
        report = time_average_error(record, skewed)
        zp = record.rows("zp")
        assert (zp == zp[0]).all()
        assert -1.3 <= report.decay_slope <= -0.7
        assert report.reduction_residual > DRIFT_TOL and not report.passed
        assert report.first_failure.startswith("reduction_residual ")
        # and it bounds how far the rows strayed
        reference = full_composite_rows(skewed, times[-1:])[0]
        rows = np.vstack([record.zp_coeffs[-1], record.zo_coeffs[-1]])
        assert np.abs(rows - reference).max() <= report.reduction_residual

    @pytest.mark.parametrize("design", ["demo", "random", "passive", "decoupled", "direct"])
    def test_verdict_from_basis_matches_derived_arrays(self, sixmode_system, sixmode_record,
                                                       monkeypatch, design):
        rng = np.random.default_rng(101)
        plant, _, obs, aug = sixmode_system
        systems = [aug]
        if design == "random":
            systems = [random_valid_system(rng)[3] for _ in range(3)]
        elif design == "passive":
            plant, dec = random_passive_plant(rng, 5, 2, 2)
            systems = [assemble_augmented(plant, synthesize_observer(dec))]
        elif design == "decoupled":
            systems = [assemble_augmented(plant, decoupled(obs))]
        elif design == "direct":  # built directly, its basis derived
            systems = [AugmentedSystem(aug.r, aug.c, aug.zo_selector)]
        calls = []

        def kept(rec, name, target):
            # the verdict finishes the error norms from the array this returns
            calls.append((name, _distances(rec, name, target)))
            return calls[-1][1]

        monkeypatch.setattr(simulation, "_distances", kept)
        for aug in systems:
            rec = sixmode_record if design == "demo" else propagate(aug, time_grid(50.0, 0.01))
            time_average_error(rec, aug)
            curve = [norms for name, norms in calls if name == "zo_avg"]
            calls.clear()
            assert len(curve) == 1
            derived = np.linalg.norm(rec.zo_avg - aug.c, axis=(1, 2))
            # relative to the curve's largest value: the demo's error crosses zero
            assert np.abs(curve[0] - derived).max() <= 1e-13 * derived.max()

    def test_drift_fails_a_plant_output_that_moves(self, sixmode_system):
        # give the first plant output a 1e-3 component along a row x with
        # x A != 0: the output is no longer constant.  The record keeps its
        # plant rows, and the residual bounds how far that strays
        *_, aug = sixmode_system
        x = np.eye(1, aug.n)[0]
        assert np.abs(x @ aug.a).max() > 0.1
        c = aug.c.copy()
        c[0] += 1e-3 * x
        leaky = AugmentedSystem(aug.r, c, aug.zo_selector)
        times = time_grid(20.0, 0.01)
        rec = propagate(leaky, times)
        report = time_average_error(rec, leaky)
        assert report.first_failure.startswith("reduction_residual ")
        checkpoints = np.arange(0, times.size, 100)
        reference = full_composite_rows(leaky, times[checkpoints])
        assert np.abs(reference[:, :aug.m] - c).max() > DRIFT_TOL
        rows = np.concatenate([rec.zp_coeffs[checkpoints], rec.zo_coeffs[checkpoints]], axis=1)
        assert np.abs(rows - reference).max() <= report.reduction_residual

    @pytest.mark.parametrize("design", ["demo", "204_wide"])
    def test_verdict_reads_nothing_n_wide(self, sixmode_system, monkeypatch, design):
        aug = sixmode_system[3]
        if design == "204_wide":
            aug = random_valid_system(np.random.default_rng(5), n_modes=100, m=4)[3]
            assert aug.n == 204
        rec = propagate(aug, time_grid(50.0, 0.01))

        def refuse(*args):
            raise AssertionError("the verdict mapped rows back to original coordinates")

        monkeypatch.setattr(simulation.TrajectoryRecord, "coefficients", refuse)
        report = time_average_error(rec, aug)
        monkeypatch.undo()
        assert time_average_error(rec, aug) == report

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


class TestConstantBlockBasis:
    """The constant block's basis is one choice among unitarily equivalent ones:
    no verdict and no convergence figure depends on it."""

    @staticmethod
    def run(draw):
        plant, dec = draw()
        obs = synthesize_observer(dec)
        aug = assemble_augmented(plant, obs)
        conv = time_average_error(propagate(aug, time_grid(50.0, 0.01)), aug)
        return dec, check_plant_conditions(plant), obs, aug, conv

    @pytest.mark.parametrize("design", ["sixmode", "valid", "passive"])
    def test_results_do_not_depend_on_the_pairing(self, design, monkeypatch):
        # the pairing is rotated by the real form E of a random unitary, which
        # keeps E^T diag(J, ..., J) E = diag(J, ..., J)
        draws = {
            "sixmode": [lambda: build_plant(sixmode_config())],
            "valid": [lambda seed=seed: random_valid_plant(np.random.default_rng(seed),
                                                           n_modes=int(3 + seed % 3))
                      for seed in range(6)],
            "passive": [lambda shape=shape: random_passive_plant(np.random.default_rng(7), *shape)
                        for shape in ((3, 1, 1), (4, 2, 2), (5, 1, 3))],
        }[design]
        runs = [[self.run(draw) for draw in draws]]
        rng = np.random.default_rng(211)
        pair_basis = model._pair_basis

        def rotated(theta):
            u = unitary_group.rvs(len(theta) // 2, random_state=rng)
            return pair_basis(theta) @ real_embedding(u)

        monkeypatch.setattr(model, "_pair_basis", rotated)
        runs.append([self.run(draw) for draw in draws])
        for (dec0, cond0, obs0, aug0, conv0), (dec1, cond1, obs1, _, conv1) in zip(*runs):
            assert np.abs(dec1.p[:, dec1.n_p1:] - dec0.p[:, dec0.n_p1:]).max() > 1e-3
            assert dec1.residuals["theta22_canonical"] <= 1e-14
            assert (cond1.flags, cond1.rank_cr) == (cond0.flags, cond0.rank_cr)
            assert (obs1.n_o, conv1.passed) == (obs0.n_o, conv0.passed)
            # the slope is fitted to log errors, so its round-off is relative
            bound = roundoff(aug0, 50.0)
            bounds = {"final_error": bound, "decay_slope": bound / conv0.final_error}
            for name, tol in bounds.items():
                assert abs(getattr(conv1, name) - getattr(conv0, name)) <= tol, name


class TestTimeRescaling:
    """R_p and omega multiplied by a, t_end and dt divided by a: the same design on
    another clock, so no verdict and no convergence figure depends on a."""

    @staticmethod
    def run(cfg):
        plant, dec = build_plant(cfg)
        obs = synthesize_observer(dec, omega=cfg.omega)
        aug = assemble_augmented(plant, obs)
        return obs, aug, time_average_error(propagate(aug, time_grid(cfg.t_end, cfg.dt)), aug)

    @pytest.mark.parametrize("design", ["sixmode", "valid"])
    @pytest.mark.parametrize("a", [1e-3, 0.1, 1.0, 10.0])
    def test_results_do_not_depend_on_the_clock(self, design, a):
        # measured on the demo: final_error 1.380804e-02 and slope -0.9944 at every a.
        # At a = 1e3 the horizon, 0.2, is below time_average_error's absolute floor
        cfg = sixmode_config()
        if design == "valid":
            plant, _ = random_valid_plant(np.random.default_rng(5))
            cfg = PlantConfig(n_p=plant.n, m=plant.m, r_p=plant.r, c_p=plant.c, t_end=200.0,
                              dt=0.05)
        obs0, aug0, conv0 = self.run(cfg)
        obs1, _, conv1 = self.run(dataclasses.replace(
            cfg, r_p=a * cfg.r_p, omega=a * cfg.omega, t_end=cfg.t_end / a, dt=cfg.dt / a))
        assert (obs1.conditions.flags, obs1.n_o, conv1.passed) == \
            (obs0.conditions.flags, obs0.n_o, conv0.passed)
        # the slope is fitted to log errors, so its round-off is relative
        bound = roundoff(aug0, cfg.t_end)
        bounds = {"final_error": bound, "decay_slope": bound / conv0.final_error}
        for name, tol in bounds.items():
            assert abs(getattr(conv1, name) - getattr(conv0, name)) <= tol, name


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
        aug = single_mode()
        times, zp, zo = ode_oracle(aug, 10.0, dt=1e-3)
        expected = rotation(2.0 * times[-1])
        assert np.abs(zp[-1] - expected[0]).max() <= 1e-9
        assert np.abs(zo[-1] - expected[1]).max() <= 1e-9

    def test_nilpotent_polynomial_solution(self):
        # A = 2 J R for R = [[3,3],[3,3]] squares to zero: X(t) = I + A t
        aug = single_mode(r=[[3.0, 3.0], [3.0, 3.0]])
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
        aug = single_mode()
        with pytest.raises(RuntimeError, match="diverged"):
            ode_oracle(aug, 100.0, dt=2.0)

    def test_rejects_bad_horizon(self, sixmode_system):
        *_, aug = sixmode_system
        with pytest.raises(ValueError):
            ode_oracle(aug, 0.0)
