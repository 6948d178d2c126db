"""Core model: commutation matrices, dynamics, structural condition checks."""

import warnings

import numpy as np
import pytest

from qobserver import (
    J,
    QuantumLinearSystem,
    check_plant_conditions,
    make_commutation_matrix,
    numerical_rank,
)

from conftest import random_spd, random_valid_plant


class TestMakeCommutationMatrix:
    def test_single_mode_is_j(self):
        assert np.array_equal(make_commutation_matrix(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_two_modes_block_structure(self):
        theta = make_commutation_matrix(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = J
        expected[2:, 2:] = J
        assert np.array_equal(theta, expected)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 7])
    def test_exact_invariants(self, n_modes):
        theta = make_commutation_matrix(n_modes)
        n = 2 * n_modes
        assert theta.shape == (n, n)
        assert np.array_equal(theta.T, -theta)
        assert np.array_equal(theta @ theta, -np.eye(n))

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects_invalid_mode_count(self, bad):
        with pytest.raises(ValueError):
            make_commutation_matrix(bad)


def dynamics(theta, r):
    """``A = 2 Theta R`` of the one-output system on (theta, r)."""
    return QuantumLinearSystem(theta, r, np.eye(1, np.shape(theta)[0])).a


class TestDynamicsFromHamiltonian:
    def test_identity_hamiltonian(self):
        assert np.array_equal(dynamics(J, np.eye(2)), 2 * J)

    def test_rank_one_block(self):
        # the dynamical block of the six-mode demo
        a = dynamics(J, [[3.0, 3.0], [3.0, 3.0]])
        assert np.array_equal(a, [[6.0, 6.0], [-6.0, -6.0]])

    def test_zero_hamiltonian(self):
        assert np.array_equal(dynamics(J, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dynamics(J, np.eye(4))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            dynamics(J, [[0.0, 1.0], [0.0, 0.0]])

    def test_nonsquare_theta_rejected(self):
        with pytest.raises(ValueError, match="square"):
            dynamics(np.zeros((2, 3)), np.eye(2))

    def test_rejects_overflow(self):
        # 2 * 1e308 is beyond doubles; the caller gets an error, not a warning
        with pytest.raises(ValueError, match="overflows"):
            dynamics(J, np.eye(2) * 1e308)

    def test_flow_preserves_commutation_structure(self):
        # A Theta + Theta A^T = 0 for any symmetric r
        rng = np.random.default_rng(11)
        for _ in range(20):
            n_modes = int(rng.integers(1, 5))
            theta = make_commutation_matrix(n_modes)
            g = rng.normal(size=(2 * n_modes, 2 * n_modes))
            r = (g + g.T) / 2
            a = dynamics(theta, r)
            assert np.abs(a @ theta + theta @ a.T).max() <= 1e-12


class TestQuantumLinearSystem:
    def test_valid_construction(self):
        plant = QuantumLinearSystem(make_commutation_matrix(2), np.eye(4), np.eye(1, 4))
        assert plant.n == 4 and plant.m == 1
        assert np.array_equal(plant.a, 2 * plant.theta)

    def test_arrays_are_read_only(self):
        plant = QuantumLinearSystem(make_commutation_matrix(1), np.zeros((2, 2)), np.eye(1, 2))
        with pytest.raises(ValueError):
            plant.r[0, 0] = 1.0

    def test_rejects_asymmetric_r(self):
        r = np.zeros((2, 2))
        r[0, 1] = 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            QuantumLinearSystem(make_commutation_matrix(1), r, np.eye(1, 2))

    def test_symmetry_is_judged_relative_to_scale(self):
        # round-off asymmetry of a large R is far above 1e-12 in absolute terms
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))
        rank_two = 1e5 * q[:, :2] @ np.diag([1.0, 2.0]) @ q[:, :2].T
        rng = np.random.default_rng(5)
        for r in [rank_two] + [1e5 * random_spd(rng, 8) for _ in range(5)]:
            assert np.abs(r - r.T).max() > 1e-12
            theta = make_commutation_matrix(r.shape[0] // 2)
            QuantumLinearSystem(theta, r, np.eye(1, r.shape[0])).a
            asymmetric = r.copy()
            asymmetric[0, 1] += 1e-11 * np.abs(r).max()
            with pytest.raises(ValueError, match="symmetric"):
                QuantumLinearSystem(theta, asymmetric, np.eye(1, r.shape[0]))

    def test_rejects_noncanonical_theta(self):
        with pytest.raises(ValueError):
            QuantumLinearSystem(2 * np.asarray(J), np.zeros((2, 2)), np.eye(1, 2))

    def test_rejects_wrong_output_width(self):
        with pytest.raises(ValueError):
            QuantumLinearSystem(make_commutation_matrix(2), np.zeros((4, 4)), np.eye(1, 3))

    @pytest.mark.parametrize("theta,r,match", [
        (J, [[np.nan, 0.0], [0.0, 0.0]], "non-finite"),
        (J, np.zeros((1, 2, 2)), "2-D"),
        (np.eye(3), np.zeros((3, 3)), "even dimension"),
        ([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)), "skew-symmetric"),
    ])
    def test_rejects_malformed_matrices(self, theta, r, match):
        with pytest.raises(ValueError, match=match):
            QuantumLinearSystem(theta, r, np.eye(1, 2))


class TestNumericalRank:
    def test_zero(self):
        assert numerical_rank(np.zeros((3, 6))) == 0

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 3))) == 0

    def test_full(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_near_rank_deficient(self):
        a = np.diag([1.0, 1e-3, 1e-14])
        assert numerical_rank(a) == 2

    def test_huge_singular_values_do_not_overflow(self):
        # the threshold max_dim * 1e-12 * sigma_max must be scaled last
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numerical_rank(np.diag([1e308, 1e300])) == 2


class TestPlantConditions:
    def test_sixmode_plant_passes(self, sixmode):
        plant, _ = sixmode
        report = check_plant_conditions(plant)
        assert report.all_ok
        assert report.tf_cond_ok and report.cjc_ok and report.rank_ok and report.bound_ok
        assert report.rank_cr == 2
        assert report.n_p2 == 4

    @pytest.mark.parametrize("rank_cr", [-1, 7, 99])
    def test_rejects_rank_outside_dimension(self, sixmode, rank_cr):
        # n_p2 = n - rank_cr would be negative or above n
        plant, _ = sixmode
        with pytest.raises(ValueError, match="rank_cr"):
            check_plant_conditions(plant, rank_cr=rank_cr)
        assert check_plant_conditions(plant, rank_cr=6).n_p2 == 0

    def test_zero_hamiltonian_plant(self):
        # any single variable of a free plant is estimable
        n_p = 6
        c = np.eye(1, n_p)
        plant = QuantumLinearSystem(make_commutation_matrix(3), np.zeros((n_p, n_p)), c)
        report = check_plant_conditions(plant)
        assert report.tf_cond_ok and report.cjc_ok and report.rank_ok
        assert report.rank_cr == 0 and report.n_p2 == n_p

    def test_duplicated_output_row_fails_rank(self, sixmode):
        plant, dec = sixmode
        row = dec.c_p2_tilde[0]
        c2 = np.vstack([row, row])
        c_p = np.hstack([np.zeros((2, dec.n_p1)), c2]) @ dec.p.T
        degraded = QuantumLinearSystem(plant.theta, plant.r, c_p)
        # independent rank oracle on the 2 x 6 output matrix
        svals = np.linalg.svd(c_p, compute_uv=False)
        assert int(np.sum(svals > max(c_p.shape) * svals[0] * 1e-12)) == 1
        report = check_plant_conditions(degraded)
        assert not report.rank_ok
        assert report.tf_cond_ok and report.cjc_ok  # unaffected by duplication
        assert report.failing == ["rank"] and not report.all_ok

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_flags_invariant_under_row_scaling(self, sixmode, scale):
        plant, _ = sixmode
        scaled = QuantumLinearSystem(plant.theta, plant.r, scale * plant.c)
        report = check_plant_conditions(scaled)
        assert report.tf_cond_ok and report.cjc_ok

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_commutator_is_judged_on_unit_rows(self, sixmode, scale):
        # no overflow at any output scale; the verdict is that of scale 1
        plant, dec = sixmode
        scaled = QuantumLinearSystem(plant.theta, plant.r, scale * plant.c)
        report = check_plant_conditions(scaled, rank_cr=dec.n_p1)
        assert report.cjc_ok and report.residuals["cjc"] <= 1e-15
        unit = plant.c / np.linalg.norm(plant.c, axis=1)[:, None]
        assert report.residuals["cjc"] == pytest.approx(
            np.abs(unit @ plant.theta @ unit.T).max(), abs=1e-16)

    def test_zero_output_row_is_left_to_the_rank_check(self, sixmode):
        plant, _ = sixmode
        c = np.vstack([plant.c[:1], np.zeros((1, 6))])
        report = check_plant_conditions(QuantumLinearSystem(plant.theta, plant.r, c))
        assert report.cjc_ok and report.failing == ["rank"]

    def test_finite_check_equals_direct_powers(self):
        # ||C [R, Theta R]|| = 0 iff C Theta^k R = 0 for k = 0..3: because
        # Theta^2 = -I the k = 2, 3 terms are sign flips of k = 0, 1.
        rng = np.random.default_rng(23)
        tol = 1e-9
        n_valid = 0
        for trial in range(100):
            if trial % 3 == 0:
                plant, _ = random_valid_plant(rng)
            else:
                n_modes = int(rng.integers(1, 5))
                n_p = 2 * n_modes
                theta = make_commutation_matrix(n_modes)
                g = rng.normal(size=(n_p, n_p))
                plant = QuantumLinearSystem(theta, (g + g.T) / 2,
                                            rng.normal(size=(1, n_p)))
            theta, r, c = plant.theta, plant.r, plant.c
            finite = np.abs(c @ np.hstack([r, theta @ r])).max() <= tol
            direct = max(np.abs(c @ np.linalg.matrix_power(theta, k) @ r).max()
                         for k in range(4)) <= tol
            assert finite == direct
            n_valid += finite
        assert 0 < n_valid < 100  # both outcomes exercised
