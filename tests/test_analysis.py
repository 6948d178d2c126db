"""Rank of the dynamics span [R, Theta R] and block decomposition."""

import dataclasses

import numpy as np
import pytest

from qobserver import (
    QuantumLinearSystem,
    check_plant_conditions,
    decompose_plant,
    make_commutation_matrix,
    plant_from_transformed_output,
    transformed_condition_check,
)
from qobserver import analysis, model
from qobserver.model import _dynamics_basis, _hamiltonian, _pair_basis

from conftest import random_passive_plant, random_valid_plant
from oracles import span_rank


def sorted_imag(mat):
    """Sorted imaginary parts of the eigenvalues of a (skew) matrix."""
    return np.sort(np.linalg.eigvals(mat).imag)


def span_plant(r):
    """A plant with Hamiltonian r; its output plays no part in rank [R, Theta R]."""
    return QuantumLinearSystem(r, np.eye(1, len(r)))


def span_ranks(plant):
    """rank [R, Theta R] by the reference SVD, and as the decomposition sees it."""
    return span_rank(plant.theta, plant.r), decompose_plant(plant).n_p1


def assert_in_dynamical_block(plant, cr):
    """The columns of `cr` lie in the span of the decomposition's first n_p1 basis vectors."""
    dec = decompose_plant(plant)
    p1 = dec.p[:, :dec.n_p1]
    assert np.abs(cr - p1 @ (p1.T @ cr)).max() <= 1e-12


class TestControllabilitySpan:
    def test_sixmode_matches_printed_sign_pattern(self):
        # all-ones R: left half all ones; right half alternates +/- by row
        plant = span_plant(np.ones((6, 6)))
        expected = np.ones((6, 12))
        expected[1::2, 6:] = -1.0
        assert span_ranks(plant) == (2, 2)
        assert_in_dynamical_block(plant, expected)

    def test_zero_hamiltonian(self):
        plant = span_plant(np.zeros((4, 4)))
        assert span_ranks(plant) == (0, 0)
        assert_in_dynamical_block(plant, np.zeros((4, 8)))

    def test_identity_hamiltonian(self):
        theta = make_commutation_matrix(2)
        plant = span_plant(np.eye(4))
        assert span_ranks(plant) == (4, 4)
        assert_in_dynamical_block(plant, np.hstack([np.eye(4), theta]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="c must have 6 columns"):
            QuantumLinearSystem(np.eye(6), np.eye(1, 4))
        with pytest.raises(ValueError, match="n_p2 = 0"):
            plant_from_transformed_output(np.eye(6), np.eye(1, 4))

    def test_span_equals_full_controllability_matrix(self):
        # rank [R, Theta R] = rank [R, Theta R, Theta^2 R, ...] since
        # higher powers of Theta only flip signs
        rng = np.random.default_rng(5)
        for _ in range(25):
            n_modes = int(rng.integers(1, 5))
            n_p = 2 * n_modes
            theta = make_commutation_matrix(n_modes)
            g = rng.normal(size=(n_p, int(rng.integers(1, n_p + 1))))
            r = g @ g.T
            full = np.hstack([np.linalg.matrix_power(theta, k) @ r for k in range(n_p)])
            rank = np.linalg.matrix_rank(full)
            assert span_ranks(span_plant(r)) == (rank, rank)

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_eigh_rank_equals_svd_rank_on_generated_plants(self, scale):
        # the plant ranks by eigh(R); the reference ranks [R, Theta R] by its
        # singular values
        rng = np.random.default_rng(29)
        plants = [random_valid_plant(rng)[0] for _ in range(30)]
        plants += [random_passive_plant(rng, n_modes, rank, m)[0]
                   for n_modes, rank, m in ((3, 1, 1), (4, 2, 2), (6, 3, 2), (8, 2, 5))]
        for plant in plants:
            plant = QuantumLinearSystem(scale * plant.r, plant.c)
            rank, n_p1 = span_ranks(plant)
            assert rank == n_p1


class TestDecomposePlant:
    def test_sixmode_blocks(self, sixmode):
        _, dec = sixmode
        assert (dec.n_p1, dec.n_p2) == (2, 4)
        np.testing.assert_allclose(np.linalg.eigvalsh(dec.r_p11), [0.0, 6.0], atol=1e-9)
        # skew spectra: one mode pair and two mode pairs
        np.testing.assert_allclose(sorted_imag(dec.theta11), [-1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(sorted_imag(dec.theta22), [-1, -1, 1, 1], atol=1e-9)

    def test_sixmode_invariants(self, sixmode):
        plant, dec = sixmode
        p = dec.p
        n1 = dec.n_p1
        assert np.abs(p.T @ p - np.eye(6)).max() <= 1e-10
        theta_t = p.T @ plant.theta @ p
        assert np.abs(theta_t[:n1, n1:]).max() <= 1e-9
        assert np.abs(theta_t[n1:, :n1]).max() <= 1e-9
        assert np.abs(theta_t[:n1, :n1] - dec.theta11).max() <= 1e-9
        assert np.abs(theta_t[n1:, n1:] - dec.theta22).max() <= 1e-9
        r_t = p.T @ plant.r @ p
        assert np.abs(r_t[:n1, :n1] - dec.r_p11).max() <= 1e-9
        assert np.abs(r_t[n1:, :]).max() <= 1e-9
        assert np.abs(r_t[:n1, n1:]).max() <= 1e-9
        c_t = plant.c @ p
        assert np.abs(c_t[:, :n1]).max() <= 1e-9
        assert np.abs(c_t[:, n1:] - dec.c_p2_tilde).max() <= 1e-9
        # both theta blocks nonsingular
        assert np.linalg.svd(dec.theta11, compute_uv=False)[-1] > 1e-9
        assert np.linalg.svd(dec.theta22, compute_uv=False)[-1] > 1e-9

    def test_zero_hamiltonian_degenerate_case(self):
        theta = make_commutation_matrix(2)
        c = np.eye(1, 4)
        plant = QuantumLinearSystem(np.zeros((4, 4)), c)
        dec = decompose_plant(plant)
        assert (dec.n_p1, dec.n_p2) == (0, 4)
        # the whole space is constant; its paired basis is one of many
        assert np.abs(dec.p.T @ dec.p - np.eye(4)).max() <= 1e-15
        assert np.abs(dec.p.T @ theta @ dec.p - theta).max() <= 1e-15
        assert np.array_equal(dec.theta22, theta)
        assert np.array_equal(dec.c_p2_tilde, c @ dec.p)
        assert dec.theta11.shape == (0, 0) and dec.r_p11.shape == (0, 0)

    def test_fully_dynamical_plant_has_nothing_to_estimate(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(4, 4))
        r = (g + g.T) / 2
        theta = make_commutation_matrix(2)
        # independent rank check of [R, Theta R]
        assert np.linalg.matrix_rank(np.hstack([r, theta @ r])) == 4
        plant = QuantumLinearSystem(r, np.eye(1, 4))
        dec = decompose_plant(plant)
        assert (dec.n_p1, dec.n_p2) == (4, 0)
        assert dec.c_p2_tilde.shape == (1, 0)

    def test_violating_plant_still_decomposes_with_residual(self, sixmode):
        plant, _ = sixmode
        # an output that overlaps the dynamical subspace
        bad = QuantumLinearSystem(plant.r, np.eye(2, 6))
        dec = decompose_plant(bad)
        assert dec.residuals["c_zero_block"] > 1e-3

    def test_block_structure_emerges_for_random_plants(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            plant, dec = random_valid_plant(rng)
            for key in ("orthogonality", "theta_offdiag", "theta22_canonical",
                        "r_structure", "c_zero_block"):
                assert dec.residuals[key] <= 1e-9, key

    def test_dynamics_spectrum_preserved(self):
        # eig(A_p) = eig(2 Theta11 R_p11) plus n_p2 zeros.  Kept at modest
        # norm: the zero eigenvalues are defective (free-particle Jordan
        # blocks), where eig is only accurate to ~sqrt(eps) * ||A||.
        def by_imag(values):
            return values[np.lexsort((values.real, values.imag))]

        rng = np.random.default_rng(3)
        for _ in range(10):
            plant, dec = random_valid_plant(rng, r_scale=0.1)
            a_p = plant.a
            block = 2.0 * dec.theta11 @ dec.r_p11
            eig_full = by_imag(np.linalg.eigvals(a_p))
            eig_block = by_imag(np.concatenate(
                [np.linalg.eigvals(block), np.zeros(dec.n_p2)]))
            np.testing.assert_allclose(eig_full, eig_block, atol=1e-8)

    def test_constant_rows_of_transformed_dynamics(self, sixmode):
        plant, dec = sixmode
        a_t = dec.p.T @ plant.a @ dec.p
        assert np.abs(a_t[dec.n_p1:, :]).max() <= 1e-9


class TestPairBasis:
    @pytest.mark.parametrize("n", [2, 4, 6, 10, 24, 50, 100, 150])
    def test_matches_reference_and_realizes_canonical_form(self, n):
        theta = make_commutation_matrix(n // 2)
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        for t in (theta, u.T @ theta @ u):
            q = _pair_basis(t)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-13
            assert np.abs(q.T @ t @ q - theta).max() <= 1e-13


class TestTransformedConditionCheck:
    def test_sixmode_exact_zero(self, sixmode):
        _, dec = sixmode
        assert transformed_condition_check(dec) == 0.0

    def test_single_output_always_passes(self, sixmode):
        _, dec = sixmode
        single = dataclasses.replace(dec, c_p2_tilde=np.eye(1, 4))
        assert transformed_condition_check(single) == 0.0

    def test_identity_output_fails(self, sixmode):
        # m = n_p2 violates the m <= n_p2 / 2 bound and the residual is 1
        _, dec = sixmode
        bad = dataclasses.replace(dec, c_p2_tilde=np.eye(4))
        assert transformed_condition_check(bad) == 1.0

    def test_equivalent_to_original_condition(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            plant, dec = random_valid_plant(rng)
            original = np.abs(plant.c @ plant.theta @ plant.c.T).max()
            assert abs(transformed_condition_check(dec) - original) <= 1e-9


class TestPlantFromTransformedOutput:
    def test_round_trip_keeps_given_output(self, sixmode):
        plant, dec = sixmode
        assert np.array_equal(dec.c_p2_tilde,
                              [[1.0, 1, 1, 1], [1, 1, -1, -1]])
        # mapping back through P reproduces it to rounding
        assert np.abs(plant.c @ dec.p[:, dec.n_p1:] - dec.c_p2_tilde).max() <= 1e-12

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="n_p2"):
            plant_from_transformed_output(np.ones((6, 6)), np.eye(2, 3))

    def test_dynamics_pair_is_checked_before_factoring(self):
        # refused as the plant refuses it, not for the width the SVD implies
        r = np.ones((6, 6))
        r[0, 1] = 2.0
        with pytest.raises(ValueError, match="r must be symmetric"):
            plant_from_transformed_output(r, np.eye(2, 4))

    def test_dynamics_pair_is_checked_before_factoring_and_by_the_plant(self, monkeypatch):
        # the check of R forms no n x n product, so the plant's constructor repeats it;
        # the factorization is the plant's, and the check and decomposition read it
        events = []

        def counted(r):
            events.append("check")
            return _hamiltonian(r)

        def factored(r):
            events.append("factor")
            return _dynamics_basis(r)

        monkeypatch.setattr(model, "_hamiltonian", counted)
        monkeypatch.setattr(analysis, "_hamiltonian", counted)
        monkeypatch.setattr(analysis, "_dynamics_basis", factored)
        monkeypatch.setattr(model, "_dynamics_basis", factored)
        plant, dec = plant_from_transformed_output(np.ones((6, 6)), np.eye(2, 4))
        assert check_plant_conditions(plant).rank_cr == decompose_plant(plant).n_p1 == 2
        assert events == ["check", "factor", "check"]
        assert plant.dynamics_basis[0] is dec.p and dec.p.flags.writeable is False
        assert plant.c.flags.writeable is False and plant.c.shape == (2, 6)

    def test_matches_decompose_plant(self):
        rng = np.random.default_rng(13)
        plant, dec = random_valid_plant(rng)
        redec = decompose_plant(plant)
        assert (redec.n_p1, redec.n_p2) == (dec.n_p1, dec.n_p2)
        assert np.allclose(redec.p, dec.p)
        assert np.abs(redec.c_p2_tilde - dec.c_p2_tilde).max() <= 1e-12
