import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.strategies import (
    CLASSICAL_ANGLES,
    StrategyAngles,
    bloch_coords,
    classical_gate,
    su2_from_angles,
    su3_from_angles,
)

angle_triples = st.tuples(
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
    st.floats(0, math.pi),
)


class TestStrategyAngles:
    def test_round_trip(self):
        g = StrategyAngles(0.3, 1.2, 2.0)
        assert g.as_tuple() == (0.3, 1.2, 2.0)

    def test_phases_kept_at_poles(self):
        assert StrategyAngles(1.0, 2.0, 0.0).as_tuple() == (1.0, 2.0, 0.0)
        assert StrategyAngles(1.0, 2.0, math.pi).as_tuple() == (1.0, 2.0, math.pi)
        assert StrategyAngles(1.0, 2.0, 0.0) != StrategyAngles(3.0, 4.0, 0.0)
        # at theta=0 phi acts: diag(e^{i phi}, e^{-i phi})
        u = su2_from_angles(StrategyAngles(1.0, 2.0, 0.0))
        assert np.allclose(u, np.diag([np.exp(1j), np.exp(-1j)]), atol=1e-15)

    def test_interior_not_canonicalized(self):
        g = StrategyAngles(1.0, 2.0, 1.5)
        assert g.phi == 1.0 and g.alpha == 2.0

    @pytest.mark.parametrize(
        "phi,alpha,theta",
        [(-0.1, 0, 1), (7.0, 0, 1), (0, -0.1, 1), (0, 7.0, 1), (0, 0, -0.1), (0, 0, 4.0)],
    )
    def test_range_validation(self, phi, alpha, theta):
        with pytest.raises(ValueError):
            StrategyAngles(phi, alpha, theta)

    def test_frozen(self):
        g = StrategyAngles(0.3, 1.2, 2.0)
        with pytest.raises(AttributeError):
            g.phi = 0.0


class TestSu2:
    def test_identity_at_origin(self):
        assert np.allclose(su2_from_angles(StrategyAngles(0, 0, 0)), np.eye(2))

    def test_matches_classical_gates(self):
        assert np.allclose(su2_from_angles(StrategyAngles(0, 0, 0)), classical_gate("I"))
        assert np.allclose(
            su2_from_angles(StrategyAngles(0, 0, math.pi)), classical_gate("Y")
        )

    @pytest.mark.parametrize("which", ["I", "Y"])
    def test_classical_angles_give_the_classical_gates(self, which):
        u = su2_from_angles(StrategyAngles(*CLASSICAL_ANGLES[which]))
        assert np.abs(u - classical_gate(which)).max() <= 1e-16

    @given(angle_triples)
    @settings(max_examples=100)
    def test_special_unitary(self, triple):
        u = su2_from_angles(StrategyAngles(*triple))
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_entry_layout(self):
        g = StrategyAngles(0.7, 1.1, 1.9)
        u = su2_from_angles(g)
        c, s = math.cos(g.theta / 2), math.sin(g.theta / 2)
        assert abs(u[0, 0] - np.exp(1j * g.phi) * c) < 1e-15
        assert abs(u[0, 1] - np.exp(1j * g.alpha) * s) < 1e-15
        assert abs(u[1, 0] + np.exp(-1j * g.alpha) * s) < 1e-15
        assert abs(u[1, 1] - np.exp(-1j * g.phi) * c) < 1e-15


class TestClassicalGate:
    def test_identity(self):
        assert np.array_equal(classical_gate("I"), np.eye(2))

    def test_flip(self):
        y = classical_gate("Y")
        assert np.array_equal(y, [[0, 1], [-1, 0]])
        assert np.array_equal(y @ y, -np.eye(2))

    def test_unknown(self):
        with pytest.raises(ValueError):
            classical_gate("X")


class TestBlochCoords:
    def test_poles(self):
        assert np.allclose(bloch_coords(1.0, 0.0), (0, 0, 1))
        assert np.allclose(bloch_coords(0.0, 1.0), (0, 0, -1))

    def test_equator(self):
        r = 1 / math.sqrt(2)
        assert np.allclose(bloch_coords(r, r), (1, 0, 0), atol=1e-12)
        assert np.allclose(bloch_coords(r, 1j * r), (0, 1, 0), atol=1e-12)

    def test_global_phase_invariant(self):
        r = 1 / math.sqrt(2)
        phase = np.exp(0.9j)
        assert np.allclose(
            bloch_coords(phase * r, phase * 1j * r), bloch_coords(r, 1j * r), atol=1e-12
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            bloch_coords(1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(complex("nan"), 0), (1, complex("nan"))], ids=["a", "b"])
    def test_rejects_nan_amplitude(self, a, b):
        with pytest.raises(ValueError, match="not normalized"):
            bloch_coords(a, b)

    @given(angle_triples)
    @settings(max_examples=100)
    def test_unit_sphere(self, triple):
        u = su2_from_angles(StrategyAngles(*triple))
        x, y, z = bloch_coords(u[0, 0], u[1, 0])
        assert abs(x * x + y * y + z * z - 1.0) < 1e-9


class TestSu3:
    def test_identity_at_origin(self):
        assert np.allclose(su3_from_angles([0.0] * 8), np.eye(3))

    def test_needs_eight_angles(self):
        with pytest.raises(ValueError):
            su3_from_angles([0.0] * 7)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValueError, match="finite"):
            su3_from_angles([0.0] * 7 + [bad])

    def test_random_unitarity(self):
        rng = np.random.default_rng(12345)
        worst_u = 0.0
        worst_d = 0.0
        for _ in range(1000):
            u = su3_from_angles(rng.uniform(0, 2 * math.pi, size=8))
            worst_u = max(worst_u, np.abs(u @ u.conj().T - np.eye(3)).max())
            worst_d = max(worst_d, abs(np.linalg.det(u) - 1.0))
        assert worst_u < 1e-10
        assert worst_d < 1e-10

    def test_single_factor_is_rotation(self):
        u = su3_from_angles([0, 0.8, 0, 0, 0, 0, 0, 0])
        # second factor mixes only levels 0 and 1
        assert abs(u[2, 2] - 1.0) < 1e-12
        assert abs(u[0, 0] - math.cos(0.8)) < 1e-12
