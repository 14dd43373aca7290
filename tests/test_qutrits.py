import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgame
from qgame.linalg import PAULI, is_unitary
from qgame.qutrits import (
    _PERMS,
    build_Z,
    commutant_is_scalar,
    entangled_initial_state,
    is_qutrit_product,
    max_entangling_beta,
    perm_matrix,
    qutrit_entangler,
    qutrit_tensor,
)


class TestPermMatrices:
    def test_all_six_are_permutations(self):
        for name in _PERMS:
            p = perm_matrix(name)
            assert np.array_equal(np.abs(p) @ np.ones(3), np.ones(3))
            assert is_unitary(p, 1e-15)

    def test_group_closure(self):
        mats = {name: perm_matrix(name) for name in _PERMS}
        products = []
        for a in mats.values():
            for b in mats.values():
                products.append(a @ b)
        for prod in products:
            assert any(np.array_equal(prod, m) for m in mats.values())

    def test_cycle_action(self):
        c = perm_matrix("C123")
        e0 = np.array([1, 0, 0])
        assert np.array_equal(c @ e0, [0, 1, 0])
        assert np.array_equal(c @ c @ e0, [0, 0, 1])
        assert np.array_equal(c @ c @ c, np.eye(3))

    def test_transpositions_generate(self):
        s12, s13 = perm_matrix("S12"), perm_matrix("S13")
        assert np.array_equal(s12 @ s13, perm_matrix("C123")) or np.array_equal(
            s13 @ s12, perm_matrix("C123")
        )

    def test_unknown(self):
        with pytest.raises(ValueError):
            perm_matrix("S14")


class TestGeneratorZ:
    def test_quadratic_identity_exact(self):
        z = build_Z()
        assert np.array_equal(z @ z, z + 2 * np.eye(9))

    def test_symmetric_binary(self):
        z = build_Z()
        assert np.array_equal(z, z.T)
        assert set(np.unique(z.real).tolist()) == {0.0, 1.0}

    def test_action_on_00(self):
        out = build_Z() @ np.eye(9)[0]
        want = np.zeros(9)
        want[4] = want[8] = 1.0
        assert np.array_equal(out, want)


class TestEntangler:
    @given(st.floats(0, 2 * math.pi))
    @settings(max_examples=80)
    def test_unitary_for_all_beta(self, beta):
        assert is_unitary(qutrit_entangler(beta), 1e-12)

    def test_identity_at_zero(self):
        assert np.allclose(qutrit_entangler(0.0), np.eye(9))

    def test_matches_eigh_expm(self):
        # exp(i beta Z) from the eigendecomposition of the real symmetric Z,
        # independent of the Z^2 = Z + 2I closed form
        lam, v = np.linalg.eigh(build_Z())
        for beta in (0.3, 1.0, 2.0):
            want = (v * np.exp(1j * beta * lam)) @ v.T
            assert np.abs(qutrit_entangler(beta) - want).max() < 1e-12

    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    def test_non_finite_beta_refused(self, beta):
        with pytest.raises(ValueError, match="finite"):
            qutrit_entangler(beta)
        with pytest.raises(ValueError, match="finite"):
            entangled_initial_state(beta)

    @given(st.floats(0, math.pi / 3))
    @settings(max_examples=50)
    def test_initial_state_matches_column(self, beta):
        state = entangled_initial_state(beta)
        col = qutrit_entangler(beta)[:, 0]
        assert np.abs(state - col).max() < 1e-14
        assert abs(np.vdot(state, state).real - 1.0) < 1e-12

    def test_initial_state_is_exported(self):
        assert qgame.entangled_initial_state is entangled_initial_state


class TestMaxEntanglement:
    def test_value(self):
        assert abs(max_entangling_beta() - 2 * math.pi / 9) < 1e-12

    def test_amplitudes_are_uniform(self):
        amps = entangled_initial_state(max_entangling_beta())
        mags = np.abs(amps[[0, 4, 8]])
        assert np.abs(mags - 1 / math.sqrt(3)).max() < 1e-12

    def test_state_is_entangled(self):
        assert is_qutrit_product(entangled_initial_state(0.0))
        assert not is_qutrit_product(entangled_initial_state(max_entangling_beta()))


class TestCommutant:
    def test_pauli_pair_is_irreducible(self):
        assert commutant_is_scalar([PAULI[0], PAULI[1]], 2) == (True, 1)

    def test_identity_alone_commutes_with_everything(self):
        scalar_only, dim = commutant_is_scalar([np.eye(3)], 3)
        assert not scalar_only and dim == 9

    def test_two_transpositions_have_two_dimensional_commutant(self):
        # span{I, all-ones}: the all-ones matrix commutes with every
        # permutation, so the permutation action of S3 is reducible and the
        # commutant is strictly larger than the scalars
        gens = [perm_matrix("S12"), perm_matrix("S13")]
        scalar_only, dim = commutant_is_scalar(gens, 3)
        assert (scalar_only, dim) == (False, 2)
        # I and E commute with all six permutations and are linearly
        # independent, so they span that two-dimensional commutant
        basis = [np.eye(3), np.ones((3, 3))]
        for m in basis:
            for name in _PERMS:
                p = perm_matrix(name)
                assert np.array_equal(p @ m, m @ p)
        assert np.linalg.matrix_rank(np.stack([m.ravel() for m in basis])) == 2

    def test_all_ones_matrix_is_in_the_commutant(self):
        ones = np.ones((3, 3))
        for name in _PERMS:
            p = perm_matrix(name)
            assert np.array_equal(p @ ones, ones @ p)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            commutant_is_scalar([np.eye(2)], 3)

    @pytest.mark.parametrize("dim, expected", [(1, (True, 1)), (3, (False, 9))])
    def test_no_generators_leave_every_matrix(self, dim, expected):
        assert commutant_is_scalar([], dim) == expected


class TestQutritStates:
    def test_tensor_layout(self):
        q1 = np.array([1, 0, 0])
        q2 = np.array([0, 1, 0])
        out = qutrit_tensor(q1, q2)
        assert np.array_equal(out, np.eye(9)[1])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_products_are_detected(self, seed):
        rng = np.random.default_rng(seed)
        q1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        q2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert is_qutrit_product(qutrit_tensor(q1, q2), tol=1e-9)

    def test_entangled_state_rejected(self):
        ghz_like = (np.eye(9)[0] + np.eye(9)[4]) / math.sqrt(2)
        assert not is_qutrit_product(ghz_like)
