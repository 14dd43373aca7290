import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.linalg import (
    GELL_MANN,
    PAULI,
    SIGMA_1,
    SIGMA_2,
    SIGMA_3,
    StructureError,
    commutator,
    dagger,
    expm_structured,
    is_unitary,
    tensor,
)
from qgame.entanglers import is_product_state
from qgame.qutrits import is_qutrit_product, perm_matrix, qutrit_tensor
from qgame.strategies import StrategyAngles, classical_gate, su2_from_angles

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)
Y = classical_gate("Y")


def _taylor_expm(a, x, terms=20):
    out = np.zeros_like(a)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(terms):
        out = out + term
        term = term @ (x * a) / (k + 1)
    return out


class TestTensor:
    def test_basis_vectors(self):
        v = tensor(E0.reshape(2, 1), E0.reshape(2, 1))
        assert np.array_equal(v.ravel(), [1, 0, 0, 0])

    def test_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_double_flip_sends_00_to_11(self):
        out = tensor(Y, Y) @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(np.abs(out), [0, 0, 0, 1])

    def test_block_structure(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[0, 5], [6, 7]], dtype=complex)
        out = tensor(a, b)
        assert out.shape == (4, 4)
        assert np.array_equal(out[:2, 2:], 2 * b)


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(2)), np.eye(2))

    def test_y_is_orthogonal(self):
        assert np.allclose(dagger(Y) @ Y, np.eye(2))

    def test_hermitian_example(self):
        h = np.array([[2, 3 - 1j], [3 + 1j, 5]], dtype=complex)
        assert np.array_equal(dagger(h), h)


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4), 1e-12)

    def test_rejects_near_miss(self):
        # looks plausible but rows 0 and 2 are not orthogonal
        m = np.array(
            [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
        ) / math.sqrt(2)
        assert not is_unitary(m, 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))


class TestCommutator:
    def test_pauli(self):
        assert np.allclose(commutator(SIGMA_1, SIGMA_2), 2j * SIGMA_3)

    def test_identity_commutes(self):
        m = np.array([[1, 2], [3, 4j]], dtype=complex)
        assert np.abs(commutator(np.eye(2), m)).max() == 0

    def test_transpositions_do_not_commute(self):
        c = commutator(perm_matrix("S12"), perm_matrix("S13"))
        assert np.abs(c).max() > 0.5

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))


class TestExpmStructured:
    def test_involution_builds_entangler(self):
        yy = tensor(Y, Y)
        got = expm_structured(yy, 1j * math.pi / 4, "involution")
        want = (np.eye(4) + 1j * yy) / math.sqrt(2)
        assert np.abs(got - want).max() < 1e-12

    def test_zero_angle(self):
        assert np.allclose(expm_structured(SIGMA_1, 0.0, "involution"), np.eye(2))

    def test_diagonal(self):
        got = expm_structured(SIGMA_3, 0.7j, "diagonal")
        want = np.diag([np.exp(0.7j), np.exp(-0.7j)])
        assert np.abs(got - want).max() < 1e-12

    def test_cubic_matches_taylor(self):
        for lam in (GELL_MANN[1], GELL_MANN[2], GELL_MANN[4]):
            got = expm_structured(lam, 1.3j, "cubic")
            assert np.abs(got - _taylor_expm(lam, 1.3j, 30)).max() < 1e-12

    def test_structure_violation_is_distinct(self):
        with pytest.raises(StructureError):
            expm_structured(SIGMA_1, 1.0, "diagonal")
        with pytest.raises(StructureError):
            expm_structured(GELL_MANN[0], 1.0, "involution")  # lambda_1^2 != I3
        with pytest.raises(StructureError):
            expm_structured(2 * SIGMA_1, 1.0, "cubic")  # (2 sigma_1)^3 = 8 sigma_1

    @pytest.mark.parametrize("a, kind", [(np.zeros((2, 3)), "involution"), (SIGMA_1, "bogus")])
    def test_shape_and_kind_errors_are_plain_value_errors(self, a, kind):
        with pytest.raises(ValueError) as excinfo:
            expm_structured(a, 1.0, kind)
        assert excinfo.type is ValueError

    @given(st.floats(-math.pi, math.pi))
    @settings(max_examples=50)
    def test_involution_matches_taylor(self, x):
        got = expm_structured(SIGMA_2, 1j * x, "involution")
        assert np.abs(got - _taylor_expm(SIGMA_2, 1j * x, 25)).max() < 1e-12


class TestConstants:
    def test_pauli_squares(self):
        for sigma in PAULI:
            assert np.array_equal(sigma @ sigma, np.eye(2))

    def test_pauli_entries_exact(self):
        allowed = {0, 1, -1, 1j, -1j}
        for sigma in PAULI:
            assert set(sigma.ravel().tolist()) <= allowed

    def test_gell_mann_traceless_hermitian(self):
        for lam in GELL_MANN:
            assert abs(np.trace(lam)) < 1e-15
            assert np.abs(lam - dagger(lam)).max() < 1e-15


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_trace_cyclic_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_tensor_of_unitaries_is_unitary(seed):
    rng = np.random.default_rng(seed)
    gs = [
        StrategyAngles(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi))
        for _ in range(2)
    ]
    u = tensor(su2_from_angles(gs[0]), su2_from_angles(gs[1]))
    assert is_unitary(u, 1e-12)


def _unit_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


class TestRankOne:
    """is_product_state and is_qutrit_product share one rank-one test, at sizes 2x2 and 3x3."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_products_of_unit_vectors_are_products(self, seed):
        rng = np.random.default_rng(seed)
        assert is_product_state(tensor(_unit_vector(rng, 2), _unit_vector(rng, 2)))
        assert is_qutrit_product(qutrit_tensor(_unit_vector(rng, 3), _unit_vector(rng, 3)))

    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, math.sqrt(0.5)))
    @settings(max_examples=100)
    def test_schmidt_rank_two_states_are_not_products(self, seed, small):
        # small |u0 v0> + large |u1 v1> with orthonormal u0, u1 and v0, v1
        rng = np.random.default_rng(seed)
        large = math.sqrt(1.0 - small * small)
        for dim, predicate in ((2, is_product_state), (3, is_qutrit_product)):
            u, v = _unitary(rng, dim), _unitary(rng, dim)
            state = small * np.kron(u[:, 0], v[:, 0]) + large * np.kron(u[:, 1], v[:, 1])
            assert not predicate(state)

    def test_a_state_with_nan_is_not_a_product(self):
        assert not is_product_state([math.nan, 0, 0, 0])
        assert not is_qutrit_product([math.nan] + [0] * 8)
