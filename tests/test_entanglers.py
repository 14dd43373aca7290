import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.entanglers import (
    BETA_MAX,
    Y_TENSOR_Y,
    EntanglerSpec,
    bell_state,
    build_entangler,
    is_classically_commensurate,
    is_product_state,
    partial_state,
)
from qgame.games import PRISONER_DILEMMA, final_state, payoffs
from qgame.linalg import expm_structured, is_unitary, tensor
from qgame.qutrits import commutant_is_scalar
from qgame.strategies import StrategyAngles, classical_gate

betas = st.floats(0, math.pi / 2)


class TestEntanglerSpec:
    def test_valid(self):
        assert EntanglerSpec("j1", 0.3).beta == 0.3

    def test_bad_family(self):
        with pytest.raises(ValueError):
            EntanglerSpec("j3", 0.3)

    @pytest.mark.parametrize("beta", [-0.1, math.pi])
    def test_bad_beta(self, beta):
        with pytest.raises(ValueError):
            EntanglerSpec("j1", beta)

    def test_top_beta_takes_a_rounding_margin(self):
        assert EntanglerSpec("j1", BETA_MAX + 5e-13).beta == BETA_MAX + 5e-13
        with pytest.raises(ValueError, match="beta out of range"):
            EntanglerSpec("j1", BETA_MAX + 2e-12)

    def test_identity_ignores_beta_but_still_checks_it(self):
        with pytest.raises(ValueError, match="beta out of range"):
            EntanglerSpec("identity", 2.0)

    def test_identity_stores_beta_zero(self):
        spec = EntanglerSpec("identity", 0.7)
        assert spec.beta == 0.0
        assert spec == EntanglerSpec("identity")


# The magic basis Q: U in SU(4) is a product of one-qubit gates exactly when Q^dag U Q is real.
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2)


def makhlin_invariants(u):
    """Makhlin's local invariants (G1, G2) of a two-qubit gate U.

    With U_B = Q^dag U Q in the magic basis and m = U_B^T U_B,
    G1 = tr^2(m) / (16 det U) and G2 = (tr^2(m) - tr(m^2)) / (4 det U).
    Two gates are equal up to local unitaries exactly when their invariants
    agree (Makhlin, Quantum Inf. Process. 2002): CNOT has (0, 1) and every
    local gate (1, 3).
    """
    ub = _MAGIC.conj().T @ u @ _MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    return tr * tr / (16 * det), (tr * tr - np.trace(m @ m)) / (4 * det)


class TestLocalInvariants:
    @pytest.mark.parametrize("beta", np.linspace(0.0, math.pi / 2, 33).tolist())
    def test_j2_is_locally_cnot(self, beta):
        g1, g2 = makhlin_invariants(build_entangler(EntanglerSpec("j2", beta)))
        assert abs(g1) < 1e-12 and abs(g2 - 1) < 1e-12

    def test_j1_maximal_is_locally_cnot(self):
        g1, g2 = makhlin_invariants(build_entangler(EntanglerSpec("j1", math.pi / 2)))
        assert abs(g1) < 1e-12 and abs(g2 - 1) < 1e-12

    def test_identity_is_local(self):
        g1, g2 = makhlin_invariants(np.eye(4))
        assert abs(g1 - 1) < 1e-12 and abs(g2 - 3) < 1e-12


class TestBuildEntangler:
    @pytest.mark.parametrize("beta", [0.0, 0.7, math.pi / 2])
    def test_identity_family(self, beta):
        # built as J1 at its stored beta = 0: no negative zero, no rounding
        got = build_entangler(EntanglerSpec("identity", beta))
        assert got.tobytes() == np.eye(4, dtype=complex).tobytes()

    def test_j1_zero_is_identity(self):
        assert build_entangler(EntanglerSpec("j1", 0.0)).tobytes() == np.eye(4, dtype=complex).tobytes()

    def test_j1_is_matrix_exponential(self):
        beta = 0.77
        got = build_entangler(EntanglerSpec("j1", beta))
        want = expm_structured(Y_TENSOR_Y, 1j * beta / 2.0, "involution")
        assert np.abs(got - want).max() < 1e-14

    def test_j1_max_produces_psi_plus(self):
        j = build_entangler(EntanglerSpec("j1", math.pi / 2))
        state = j @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.abs(state - bell_state("psi_plus")).max() < 1e-15

    def test_j2_max_produces_triplet(self):
        j = build_entangler(EntanglerSpec("j2", math.pi / 2))
        state = j @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.abs(state - bell_state("T")).max() < 1e-15

    @given(betas, st.sampled_from(["j1", "j2"]))
    @settings(max_examples=100)
    def test_unitary(self, beta, family):
        assert is_unitary(build_entangler(EntanglerSpec(family, beta)), 1e-12)

    @given(betas)
    @settings(max_examples=50)
    def test_j1_commutes_with_classical_gates(self, beta):
        j = build_entangler(EntanglerSpec("j1", beta))
        assert is_classically_commensurate(j, 1e-12)


class TestBellStates:
    @pytest.mark.parametrize("name", ["psi_plus", "psi_minus", "T", "S"])
    def test_normalized(self, name):
        s = bell_state(name)
        assert abs(np.vdot(s, s).real - 1.0) < 1e-15

    @pytest.mark.parametrize("name", ["psi_plus", "psi_minus", "T", "S"])
    def test_maximally_entangled(self, name):
        m = bell_state(name).reshape(2, 2)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.abs(sv - 1 / math.sqrt(2)).max() < 1e-15

    def test_orthogonal_family(self):
        names = ["psi_plus", "psi_minus", "T", "S"]
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert abs(np.vdot(bell_state(a), bell_state(b))) < 1e-15

    def test_unknown(self):
        with pytest.raises(ValueError):
            bell_state("phi_plus")


class TestPartialState:
    def test_endpoints_psi_plus(self):
        assert np.array_equal(partial_state("psi_plus", 0.0), [1, 0, 0, 0])
        end = partial_state("psi_plus", math.pi / 2)
        assert np.abs(end - bell_state("psi_plus")).max() < 1e-15
        # cos(pi/4) is one ulp above the 1/sqrt(2) of the Bell state
        assert end[0].real == math.nextafter(bell_state("psi_plus")[0].real, 1.0)

    def test_endpoints_T(self):
        assert np.array_equal(partial_state("T", 0.0), [0, 1, 0, 0])
        mid = partial_state("T", math.pi / 2)
        assert np.abs(mid - bell_state("T")).max() < 1e-15
        assert np.abs(partial_state("T", math.pi) - np.array([0, 0, 1, 0])).max() < 1e-15

    @given(st.floats(0, math.pi), st.sampled_from(["psi_plus", "T"]))
    @settings(max_examples=60)
    def test_normalized(self, gamma, family):
        s = partial_state(family, gamma)
        assert abs(np.vdot(s, s).real - 1.0) < 1e-12

    def test_product_only_at_poles(self):
        assert is_product_state(partial_state("psi_plus", 0.0))
        assert not is_product_state(partial_state("psi_plus", 1.0))

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            partial_state("psi_plus", -0.1)
        with pytest.raises(ValueError):
            partial_state("psi_plus", math.pi + 0.1)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown partial state family 'bogus'"):
            partial_state("bogus", 0.3)

    @pytest.mark.parametrize("family, j", [("psi_plus", "j1"), ("T", "j2")])
    def test_is_the_first_column_of_j(self, family, j):
        for gamma in np.linspace(0.0, math.pi / 2, 1001).tolist():
            column = build_entangler(EntanglerSpec(j, gamma))[:, 0]
            assert partial_state(family, gamma).tobytes() == column.tobytes()

    def test_past_the_entangler_range_is_the_cos_sin_carrier(self):
        for gamma in np.linspace(math.pi / 2, math.pi, 1001)[1:].tolist():
            c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
            psi_plus = np.array([c, 0, 0, 1j * s], dtype=complex)
            t = np.array([0, c, s, 0], dtype=complex)
            assert partial_state("psi_plus", gamma).tobytes() == psi_plus.tobytes()
            assert partial_state("T", gamma).tobytes() == t.tobytes()


class TestCommensurability:
    def test_j2_max_is_not_commensurate(self):
        j = build_entangler(EntanglerSpec("j2", math.pi / 2))
        assert not is_classically_commensurate(j, 1e-12)

    def test_identity_is_commensurate(self):
        assert is_classically_commensurate(np.eye(4), 1e-12)

    def test_swap_is_not_commensurate(self):
        # SWAP commutes with Y x Y, yet swaps the outcomes of (I, Y) and (Y, I)
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.abs(swap @ Y_TENSOR_Y - Y_TENSOR_Y @ swap).max() == 0.0
        cooperate, defect = StrategyAngles(0, 0, 0), StrategyAngles(0, 0, math.pi)
        pay = payoffs(final_state(swap, cooperate, defect), PRISONER_DILEMMA)
        assert (pay.p1, pay.p2) == (-2.0, -6.0)
        assert PRISONER_DILEMMA.u1[0][1] == -6.0 and PRISONER_DILEMMA.u2[0][1] == -2.0
        assert not is_classically_commensurate(swap, 1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, math.pi / 4, math.pi / 2])
    def test_j2_is_never_commensurate(self, beta):
        # J2(0) is not the identity: it swaps |00> and |01>
        assert not is_classically_commensurate(build_entangler(EntanglerSpec("j2", beta)), 1e-12)

    def test_single_flips_fix_a_smaller_commutant_than_the_double_flip(self):
        y, eye = classical_gate("Y"), classical_gate("I")
        assert commutant_is_scalar([tensor(y, eye), tensor(eye, y)], 4) == (False, 4)
        assert commutant_is_scalar([Y_TENSOR_Y], 4) == (False, 8)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            is_classically_commensurate(2.0 * np.eye(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="unitary 4x4"):
            is_classically_commensurate(np.eye(3))

    def test_tol_bounds_only_the_commutator(self):
        # unitary only to 1e-9: refused like every other entangler input
        with pytest.raises(ValueError, match="unitary 4x4"):
            is_classically_commensurate((1.0 + 1e-9) * np.eye(4), 1e-6)


class TestIsProductState:
    def test_product(self):
        q1 = np.array([0.6, 0.8])
        q2 = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
        assert is_product_state(np.kron(q1, q2))

    def test_entangled(self):
        assert not is_product_state(bell_state("psi_plus"))
        assert not is_product_state(bell_state("S"))
