"""Observer synthesis, augmented assembly, and the convergence mechanics."""

import dataclasses

import numpy as np
import pytest

from qobserver import (
    PlantConditionError,
    QuantumLinearSystem,
    assemble_augmented,
    check_plant_conditions,
    decompose_plant,
    make_commutation_matrix,
    matrix_exponential,
    plant_from_transformed_output,
    synthesize_observer,
)

from conftest import random_passive_plant, random_spd, random_valid_plant, random_valid_system


def odd_m_plant():
    """n_p = 4, one estimated output: forces the padded observer order."""
    theta = make_commutation_matrix(2)
    return plant_from_transformed_output(theta, np.ones((4, 4)), np.array([[1.0, 0.0]]))


class TestSynthesizeObserver:
    def test_sixmode_identity_choices(self, sixmode):
        _, dec = sixmode
        obs = synthesize_observer(dec, r_o=np.eye(2), c_o=np.eye(2), beta=-np.eye(2))
        assert obs.n_o == 2
        assert np.array_equal(obs.r_c_tilde,
                              [[-1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
        # full coupling block is the rotated tilde block
        assert np.allclose(obs.r_c, dec.p @ np.vstack([np.zeros((2, 2)), obs.r_c_tilde]))
        assert np.abs(dec.p.T @ obs.r_c
                      - np.vstack([np.zeros((2, 2)), obs.r_c_tilde])).max() <= 1e-12

    def test_sixmode_defaults_equal_identity_choices(self, sixmode):
        _, dec = sixmode
        obs = synthesize_observer(dec)
        assert np.array_equal(obs.r_o, np.eye(2))
        assert np.array_equal(obs.c_o, np.eye(2))
        assert np.array_equal(obs.beta, -np.eye(2))
        residual = np.abs(-obs.c_o @ np.linalg.solve(obs.r_o, obs.beta) - np.eye(2)).max()
        assert residual == 0.0 == obs.consistency_residual

    def test_odd_output_count_pads_observer(self):
        _, dec = odd_m_plant()
        obs = synthesize_observer(dec)
        assert obs.n_o == 2
        assert np.array_equal(obs.c_o, [[1.0, 0.0]])
        assert np.array_equal(obs.beta, [[-1.0], [0.0]])
        assert np.array_equal(obs.r_c_tilde, [[-1.0, 0.0], [0.0, 0.0]])

    def test_omega_scales_default_hamiltonian(self, sixmode):
        _, dec = sixmode
        obs = synthesize_observer(dec, omega=2.5)
        assert np.array_equal(obs.r_o, 2.5 * np.eye(2))
        # consistency holds for any omega with the derived beta
        residual = np.abs(-obs.c_o @ np.linalg.solve(obs.r_o, obs.beta) - np.eye(2)).max()
        assert residual <= 1e-12

    def test_random_observer_hamiltonians(self, sixmode):
        _, dec = sixmode
        rng = np.random.default_rng(17)
        for _ in range(10):
            obs = synthesize_observer(dec, r_o=random_spd(rng, 2))
            assert np.linalg.eigvalsh(obs.r_o)[0] > 0
            residual = np.abs(
                -obs.c_o @ np.linalg.solve(obs.r_o, obs.beta) - np.eye(2)).max()
            assert residual <= 1e-10 and obs.consistency_residual == residual
            assert np.abs(obs.r_c_tilde - dec.c_p2_tilde.T @ obs.beta.T).max() == 0.0

    def test_refuses_failing_plant(self, sixmode):
        plant, _ = sixmode
        bad = QuantumLinearSystem(plant.theta, plant.r, np.eye(2, 6))
        with pytest.raises(PlantConditionError, match=r"conditions \['tf_cond', 'cjc'\];"):
            synthesize_observer(decompose_plant(bad))

    def test_refuses_when_nothing_constant(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4))
        plant = QuantumLinearSystem(make_commutation_matrix(2), (g + g.T) / 2,
                                    np.eye(1, 4))
        with pytest.raises(PlantConditionError):
            synthesize_observer(decompose_plant(plant))

    def test_refuses_inconsistent_matrices(self, sixmode):
        _, dec = sixmode
        with pytest.raises(PlantConditionError, match="consistency|R_o"):
            synthesize_observer(dec, r_o=np.eye(2), c_o=np.eye(2), beta=np.eye(2))

    def test_refuses_indefinite_hamiltonian(self, sixmode):
        _, dec = sixmode
        with pytest.raises(PlantConditionError, match="positive definite"):
            synthesize_observer(dec, r_o=np.diag([1.0, -1.0]))

    def test_refuses_rank_deficient_gain(self, sixmode):
        _, dec = sixmode
        with pytest.raises(PlantConditionError):
            synthesize_observer(dec, r_o=np.eye(2), c_o=np.eye(2), beta=np.zeros((2, 2)))

    def test_accepts_rescaled_r_o(self):
        # symmetry of R_o is judged relative to its largest entry
        _, dec = random_valid_plant(np.random.default_rng(7), n_modes=5, m=4)
        r_o = 1e5 * random_spd(np.random.default_rng(0), 4)
        assert np.abs(r_o - r_o.T).max() > 1e-12
        assert np.array_equal(synthesize_observer(dec, r_o=r_o).r_o, r_o)

    @pytest.mark.parametrize("kwargs,match", [
        ({"r_o": np.eye(3)}, "r_o must be 2x2"),
        ({"r_o": [[1.0, 0.5], [0.0, 1.0]]}, "r_o must be symmetric"),
        ({"omega": 0.0}, "positive"),
        ({"omega": -1.0}, "positive"),
        ({"c_o": np.eye(3, 2)}, "c_o must be 2x2"),
        ({"c_o": [[1.0, 0.0], [1.0, 0.0]]}, "c_o must have full row rank"),
        ({"beta": np.eye(3, 2)}, "beta must be 2x2"),
    ])
    def test_refuses_malformed_observer_matrices(self, sixmode, kwargs, match):
        _, dec = sixmode
        with pytest.raises(PlantConditionError, match=match):
            synthesize_observer(dec, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"omega": np.nan}, {"omega": np.inf},
                                        {"r_o": [[np.nan, 0.0], [0.0, 1.0]]}])
    def test_refuses_nonfinite_observer_hamiltonian(self, sixmode, kwargs):
        _, dec = sixmode
        with pytest.raises(ValueError):
            synthesize_observer(dec, **kwargs)

    def test_output_constancy_mechanism(self):
        # c_p2_tilde theta22 r_c_tilde = 0: the coupling cannot move the
        # estimated outputs
        rng = np.random.default_rng(29)
        for _ in range(10):
            _, dec, obs, _ = random_valid_system(rng)
            residual = np.abs(dec.c_p2_tilde @ dec.theta22 @ obs.r_c_tilde).max()
            assert residual <= 1e-9


class TestAssembleAugmented:
    def test_sixmode_block_layout(self, sixmode_system):
        plant, dec, obs, aug = sixmode_system
        assert aug.a_a.shape == (8, 8)
        theta_a = np.zeros((8, 8))
        theta_a[:6, :6] = plant.theta
        theta_a[6:, 6:] = obs.theta_o
        r_a = np.zeros((8, 8))
        r_a[:6, :6] = plant.r
        r_a[:6, 6:] = obs.r_c
        r_a[6:, :6] = obs.r_c.T
        r_a[6:, 6:] = obs.r_o
        assert np.array_equal(aug.theta_a, theta_a)
        assert np.array_equal(aug.r_a, r_a)
        assert np.array_equal(aug.a_a, 2.0 * theta_a @ r_a)
        assert np.array_equal(aug.zp_selector, np.hstack([plant.c, np.zeros((2, 2))]))
        assert np.array_equal(aug.zo_selector, np.hstack([np.zeros((2, 6)), obs.c_o]))

    def test_constant_block_couples_only_through_coupling(self, sixmode_system):
        plant, dec, obs, aug = sixmode_system
        # rotate the plant part of a_a: the constant-coordinate rows read
        # [0, 0, 2 theta22 r_c_tilde]
        t = np.zeros((8, 8))
        t[:6, :6] = dec.p
        t[6:, 6:] = np.eye(2)
        a_rot = t.T @ aug.a_a @ t
        rows = slice(dec.n_p1, 6)
        assert np.abs(a_rot[rows, :6]).max() <= 1e-12
        assert np.abs(a_rot[rows, 6:] - 2.0 * dec.theta22 @ obs.r_c_tilde).max() <= 1e-12

    def test_invariants(self, sixmode_system):
        *_, aug = sixmode_system
        assert np.abs(aug.r_a - aug.r_a.T).max() == 0.0
        assert np.abs(aug.a_a @ aug.theta_a + aug.theta_a @ aug.a_a.T).max() <= 1e-12

    def test_zero_coupling_decouples(self, sixmode_system):
        plant, dec, obs, _ = sixmode_system
        decoupled = dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                                        r_c_tilde=np.zeros_like(obs.r_c_tilde))
        aug = assemble_augmented(plant, decoupled)
        assert np.abs(aug.a_a[:6, 6:]).max() == 0.0
        assert np.abs(aug.a_a[6:, :6]).max() == 0.0

    def test_zero_hamiltonian_plant(self):
        theta = make_commutation_matrix(2)
        plant, dec = plant_from_transformed_output(
            theta, np.zeros((4, 4)), np.array([[1.0, 0, 0, 0]]))
        obs = synthesize_observer(dec)
        aug = assemble_augmented(plant, obs)
        # free plant: the plant-plant block vanishes, coupling enters as
        # 2 theta_p r_c
        assert np.abs(aug.a_a[:4, :4]).max() == 0.0
        assert np.array_equal(aug.a_a[:4, 4:], 2.0 * theta @ obs.r_c)

    def test_dimension_mismatch(self, sixmode_system):
        _, dec, obs, _ = sixmode_system
        other = QuantumLinearSystem(make_commutation_matrix(2), np.zeros((4, 4)),
                                    np.eye(2, 4))
        with pytest.raises(ValueError):
            assemble_augmented(other, obs)

    def test_output_count_mismatch(self, sixmode_system):
        plant, _, obs, _ = sixmode_system
        one_output = QuantumLinearSystem(plant.theta, plant.r, plant.c[:1])
        with pytest.raises(ValueError, match="observer estimates 2 outputs, plant has 1"):
            assemble_augmented(one_output, obs)


class TestPassivePlants:
    @pytest.mark.parametrize("n_modes,rank,m", [(2, 1, 1), (3, 1, 2), (4, 1, 3), (5, 1, 4),
                                                (5, 2, 3), (6, 3, 2)])
    def test_reduced_order_observer(self, n_modes, rank, m):
        # H = a^dagger M a: R commutes with Theta, so rank [R, Theta R] is
        # rank R = 2 rank M, and the order is m (even) or m + 1 (odd)
        rng = np.random.default_rng(1000 * n_modes + 10 * rank + m)
        plant, dec = random_passive_plant(rng, n_modes, rank, m)
        assert np.array_equal(plant.theta @ plant.r, plant.r @ plant.theta)
        assert dec.n_p1 == 2 * rank
        assert check_plant_conditions(plant).all_ok
        assert synthesize_observer(dec).n_o == m + m % 2


class TestObserverFlowBounds:
    def test_flow_norm_bounded_by_condition_number(self):
        # ||e^{2 Theta_o R_o t}|| <= sqrt(lmax/lmin): energy conservation
        rng = np.random.default_rng(53)
        for _ in range(12):
            n_o = int(rng.choice([2, 4, 6]))
            r_o = random_spd(rng, n_o, eig_range=(0.3, 3.0))
            theta_o = make_commutation_matrix(n_o // 2)
            evals = np.linalg.eigvalsh(r_o)
            bound = np.sqrt(evals[-1] / evals[0])
            for t in (0.1, 1.0, 10.0, 100.0):
                norm = np.linalg.norm(matrix_exponential(2.0 * theta_o @ r_o * t), 2)
                assert norm <= bound + 1e-8

    def test_error_energy_conserved_along_flow(self):
        # 0.5 x^T R_o x is constant along x' = 2 Theta_o R_o x; checked with
        # an explicit RK4 step loop independent of the library integrator
        rng = np.random.default_rng(59)
        for _ in range(5):
            n_o = int(rng.choice([2, 4]))
            r_o = random_spd(rng, n_o)
            a = 2.0 * make_commutation_matrix(n_o // 2) @ r_o
            x = rng.normal(size=n_o)
            energy0 = 0.5 * x @ r_o @ x
            h = 1e-3
            drift = 0.0
            for _ in range(10000):  # t in [0, 10]
                k1 = a @ x
                k2 = a @ (x + 0.5 * h * k1)
                k3 = a @ (x + 0.5 * h * k2)
                k4 = a @ (x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                drift = max(drift, abs(0.5 * x @ r_o @ x - energy0))
            assert drift <= 1e-8
