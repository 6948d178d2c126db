"""Observer synthesis, augmented assembly, and the convergence mechanics."""

import dataclasses

import numpy as np
import pytest

from qobserver import (
    AugmentedSystem,
    PlantConditionError,
    QuantumLinearSystem,
    assemble_augmented,
    check_plant_conditions,
    decompose_plant,
    make_commutation_matrix,
    matrix_exponential,
    plant_from_transformed_output,
    propagate,
    synthesize_observer,
    time_average_error,
    time_grid,
)
from qobserver import analysis, cli, config, model, simulation, synthesis
from qobserver.config import PlantConfig, build_plant
from qobserver.demo import sixmode_config
from qobserver.synthesis import EQ_CONSISTENCY_TOL

from conftest import random_passive_plant, random_spd, random_valid_plant, random_valid_system


def odd_m_plant():
    """n_p = 4, one estimated output: forces the padded observer order."""
    return plant_from_transformed_output(np.ones((4, 4)), np.array([[1.0, 0.0]]))


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
        bad = QuantumLinearSystem(plant.r, np.eye(2, 6))
        with pytest.raises(PlantConditionError, match=r"conditions \['tf_cond', 'cjc'\];"):
            synthesize_observer(decompose_plant(bad))

    def test_refuses_when_nothing_constant(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4))
        plant = QuantumLinearSystem((g + g.T) / 2, np.eye(1, 4))
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

    # the last case is finite, but its default gain -R_o C_o^+ overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kwargs", [{"omega": np.nan}, {"omega": np.inf},
                                        {"r_o": [[np.nan, 0.0], [0.0, 1.0]]},
                                        {"r_o": 1e308 * np.eye(2), "c_o": 0.5 * np.eye(2)}])
    def test_refuses_nonfinite_observer_hamiltonian(self, sixmode, kwargs):
        _, dec = sixmode
        with pytest.raises(ValueError):
            synthesize_observer(dec, **kwargs)

    def test_omega_only_scales_the_default_hamiltonian(self, sixmode):
        _, dec = sixmode
        r_o = 2.0 * np.eye(2)
        assert np.array_equal(synthesize_observer(dec, omega=1.0, r_o=r_o).r_o, r_o)
        with pytest.raises(ValueError, match="omega") as info:
            synthesize_observer(dec, omega=7.0, r_o=r_o)
        assert not isinstance(info.value, PlantConditionError)

    @pytest.mark.filterwarnings("error")
    def test_default_gain_of_tiny_output_selector(self, sixmode):
        # C_o C_o^T underflows to zero; the pseudoinverse needs no Gram matrix
        _, dec = sixmode
        obs = synthesize_observer(dec, c_o=1e-300 * np.eye(2))
        assert np.allclose(obs.beta, -1e300 * np.eye(2), rtol=1e-15, atol=0)
        assert obs.consistency_residual <= EQ_CONSISTENCY_TOL

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
        assert isinstance(aug, QuantumLinearSystem)
        assert aug.n == 8 and aug.m == 2
        theta = np.zeros((8, 8))
        theta[:6, :6] = plant.theta
        theta[6:, 6:] = obs.theta_o
        r = np.zeros((8, 8))
        r[:6, :6] = plant.r
        r[:6, 6:] = obs.r_c
        r[6:, :6] = obs.r_c.T
        r[6:, 6:] = obs.r_o
        assert np.array_equal(aug.theta, theta)
        assert np.array_equal(aug.r, r)
        assert np.array_equal(aug.a, 2 * aug.theta @ aug.r)
        assert np.array_equal(aug.c, np.hstack([plant.c, np.zeros((2, 2))]))
        assert np.array_equal(aug.zo_selector, np.hstack([np.zeros((2, 6)), obs.c_o]))

    def test_arrays_are_read_only(self, sixmode_system):
        *_, aug = sixmode_system
        for name in ("theta", "r", "c", "zo_selector"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(aug, name)[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(1, 8), (2, 6), (3, 8)])
    def test_rejects_zo_selector_of_wrong_shape(self, sixmode_system, shape):
        *_, aug = sixmode_system
        with pytest.raises(ValueError, match="zo_selector must have the shape of c"):
            AugmentedSystem(aug.r, aug.c, np.zeros(shape))

    @pytest.mark.parametrize("basis, match", [
        (np.eye(7, 4), "basis must have 8 rows"),
        (np.eye(8, 9), "basis must have 8 rows"),
        (2.0 * np.eye(8, 4), "orthonormal"),
        (np.zeros((8, 0)), "basis must have 8 rows and 1 to 8 columns"),
    ])
    def test_rejects_malformed_basis(self, sixmode_system, basis, match):
        *_, aug = sixmode_system
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(aug, basis=basis)

    def test_composite_is_validated_as_a_system(self, sixmode_system):
        *_, aug = sixmode_system
        asymmetric = aug.r.copy()
        asymmetric[0, 7] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            AugmentedSystem(asymmetric, aug.c, aug.zo_selector)

    def test_constant_block_couples_only_through_coupling(self, sixmode_system):
        plant, dec, obs, aug = sixmode_system
        # rotate the plant part of A: the constant-coordinate rows read
        # [0, 0, 2 theta22 r_c_tilde]
        t = np.zeros((8, 8))
        t[:6, :6] = dec.p
        t[6:, 6:] = np.eye(2)
        a_rot = t.T @ aug.a @ t
        rows = slice(dec.n_p1, 6)
        assert np.abs(a_rot[rows, :6]).max() <= 1e-12
        assert np.abs(a_rot[rows, 6:] - 2.0 * dec.theta22 @ obs.r_c_tilde).max() <= 1e-12

    def test_invariants(self, sixmode_system):
        *_, aug = sixmode_system
        assert np.abs(aug.r - aug.r.T).max() == 0.0
        assert np.abs(aug.a @ aug.theta + aug.theta @ aug.a.T).max() <= 1e-12

    def test_zero_coupling_decouples(self, sixmode_system):
        plant, dec, obs, _ = sixmode_system
        decoupled = dataclasses.replace(obs, r_c=np.zeros_like(obs.r_c),
                                        r_c_tilde=np.zeros_like(obs.r_c_tilde))
        aug = assemble_augmented(plant, decoupled)
        assert np.abs(aug.a[:6, 6:]).max() == 0.0
        assert np.abs(aug.a[6:, :6]).max() == 0.0

    def test_zero_hamiltonian_plant(self):
        theta = make_commutation_matrix(2)
        plant, dec = plant_from_transformed_output(np.zeros((4, 4)), np.array([[1.0, 0, 0, 0]]))
        obs = synthesize_observer(dec)
        aug = assemble_augmented(plant, obs)
        # free plant: the plant-plant block vanishes, coupling enters as
        # 2 theta_p r_c
        assert np.abs(aug.a[:4, :4]).max() == 0.0
        assert np.array_equal(aug.a[:4, 4:], 2.0 * theta @ obs.r_c)

    def test_dimension_mismatch(self, sixmode_system):
        _, dec, obs, _ = sixmode_system
        other = QuantumLinearSystem(np.zeros((4, 4)), np.eye(2, 4))
        with pytest.raises(ValueError):
            assemble_augmented(other, obs)

    def test_output_count_mismatch(self, sixmode_system):
        plant, _, obs, _ = sixmode_system
        one_output = QuantumLinearSystem(plant.r, plant.c[:1])
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


class TestCommutationMatrixIsDerived:
    """Theta is fixed by the mode count: no layer takes it, stores it or forms it."""

    @pytest.mark.parametrize("design", ["sixmode", "random"])
    def test_pipeline_forms_no_commutation_matrix(self, design, monkeypatch):
        if design == "sixmode":
            cfg = sixmode_config(t_end=20.0)
        else:
            plant, dec, obs, _ = random_valid_system(np.random.default_rng(41))
            cfg = PlantConfig(n_p=plant.n, m=plant.m, r_p=plant.r, c_p2_tilde=dec.c_p2_tilde,
                              r_o=obs.r_o, t_end=20.0)
        calls = []

        def counted(n_modes):
            calls.append(n_modes)
            return make_commutation_matrix(n_modes)

        for module in (model, analysis, synthesis, config, simulation, cli):
            if hasattr(module, "make_commutation_matrix"):
                monkeypatch.setattr(module, "make_commutation_matrix", counted)
        plant, dec = build_plant(cfg)
        obs = synthesize_observer(dec, r_o=cfg.r_o)
        aug = assemble_augmented(plant, obs)
        conv = time_average_error(propagate(aug, time_grid(cfg.t_end, cfg.dt)), aug)
        assert conv.zp_drift <= 1e-9
        assert calls == []

        for owner, name, size in ((plant, "theta", plant.n), (aug, "theta", aug.n),
                                  (obs, "theta_o", obs.n_o), (dec, "theta22", dec.n_p2)):
            assert name not in {field.name for field in dataclasses.fields(owner)}
            value = getattr(owner, name)
            assert not value.flags.writeable, name
            assert np.array_equal(value, make_commutation_matrix(size // 2)), name
