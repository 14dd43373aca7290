import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame._kernels import _features
from qgame.mesh import MeshSpec, angles_to_index, index_to_angles, mesh_angle_array, mesh_classes
from qgame.strategies import CLASSICAL_ANGLES, StrategyAngles

mesh_specs = st.builds(
    MeshSpec,
    n_theta=st.integers(3, 9),
    n_phi=st.integers(1, 9),
    n_alpha=st.integers(1, 9),
)


class TestMeshSpec:
    def test_strategy_counts(self):
        assert MeshSpec(9, 17, 17).n_strategies == 2025
        assert MeshSpec(9, 33, 33).n_strategies == 7625
        assert MeshSpec(3, 1, 1).n_strategies == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshSpec(2, 17, 17)
        with pytest.raises(ValueError):
            MeshSpec(9, 0, 17)

    @pytest.mark.parametrize("dims", [(9, 16.5, 17), (9.0, 17, 17), (9, 17, "17"), (9, True, 17)])
    def test_sizes_must_be_integers(self, dims):
        with pytest.raises(ValueError, match="integers"):
            MeshSpec(*dims)

    @pytest.mark.parametrize("index", [1.5, 2.0, True])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(ValueError, match="integers"):
            index_to_angles(MeshSpec(3, 2, 2), index)

    def test_numpy_integer_sizes_accepted(self):
        mesh = MeshSpec(np.int64(9), np.int32(17), np.int16(17))
        assert mesh.n_strategies == 2025
        assert index_to_angles(mesh, 5) == index_to_angles(MeshSpec(9, 17, 17), 5)
        assert index_to_angles(mesh, np.int64(5)) == index_to_angles(mesh, 5)

    def test_axis_values(self):
        mesh = MeshSpec(9, 17, 17)
        assert mesh.theta_value(0) == 0.0
        assert mesh.theta_value(8) == math.pi
        assert mesh.phi_value(16) == 2 * math.pi
        assert abs(mesh.phi_value(8) - math.pi) < 1e-15


class TestIndexing:
    def test_poles(self):
        mesh = MeshSpec(9, 17, 17)
        assert index_to_angles(mesh, 1) == StrategyAngles(0, 0, 0)
        assert index_to_angles(mesh, 2025) == StrategyAngles(0, 0, math.pi)
        assert index_to_angles(mesh, 1).as_tuple() == CLASSICAL_ANGLES["I"]
        assert index_to_angles(mesh, 2025).as_tuple() == CLASSICAL_ANGLES["Y"]

    def test_first_interior(self):
        mesh = MeshSpec(9, 17, 17)
        g = index_to_angles(mesh, 2)
        assert g.theta == math.pi / 8 and g.phi == 0.0 and g.alpha == 0.0

    def test_alpha_fastest(self):
        mesh = MeshSpec(9, 17, 17)
        g2, g3 = index_to_angles(mesh, 2), index_to_angles(mesh, 3)
        assert g3.alpha > g2.alpha and g3.phi == g2.phi and g3.theta == g2.theta

    def test_out_of_range(self):
        mesh = MeshSpec(9, 17, 17)
        with pytest.raises(ValueError):
            index_to_angles(mesh, 0)
        with pytest.raises(ValueError):
            index_to_angles(mesh, 2026)

    def test_off_mesh_angles_rejected(self):
        mesh = MeshSpec(9, 17, 17)
        with pytest.raises(ValueError):
            angles_to_index(mesh, StrategyAngles(0.1234, 0.0, math.pi / 8))

    @pytest.mark.parametrize(
        "angles, index",
        [((0, 1.3, 0), 1), ((2 * math.pi, 0.4, 0), 1), ((0.7, 2 * math.pi, math.pi), 2025)],
    )
    def test_pole_maps_when_its_acting_phase_is_zero(self, angles, index):
        # alpha drops out at theta=0 and phi at theta=pi
        assert angles_to_index(MeshSpec(9, 17, 17), StrategyAngles(*angles)) == index

    @pytest.mark.parametrize(
        "angles", [(0, math.pi / 2, math.pi), (3 * math.pi / 2, 0, 0), (math.pi, 0, 0)]
    )
    def test_pole_with_acting_phase_rejected(self, angles):
        with pytest.raises(ValueError):
            angles_to_index(MeshSpec(9, 17, 17), StrategyAngles(*angles))

    @given(mesh_specs, st.data())
    @settings(max_examples=100)
    def test_round_trip(self, mesh, data):
        index = data.draw(st.integers(1, mesh.n_strategies))
        assert angles_to_index(mesh, index_to_angles(mesh, index)) == index


class TestMeshAngleArray:
    @pytest.mark.parametrize(
        "dims", [(5, 5, 3), (9, 13, 13), (9, 17, 17), (9, 21, 21), (17, 33, 33), (5, 7, 11)]
    )
    def test_matches_indexing(self, dims):
        # bit for bit: the search evaluates the array, results report index_to_angles
        mesh = MeshSpec(*dims)
        arr = mesh_angle_array(mesh)
        assert arr.shape == (mesh.n_strategies, 3)
        by_index = [index_to_angles(mesh, i).as_tuple() for i in range(1, mesh.n_strategies + 1)]
        assert arr.tolist() == [list(t) for t in by_index]

    def test_axes_are_linspace(self):
        # the search's mesh axes are the np.linspace grids for every axis length
        for n in range(3, 400):
            mesh = MeshSpec(n, n, n)
            assert [mesh.theta_value(k) for k in range(n)] == np.linspace(0, math.pi, n).tolist()
            assert [mesh.phi_value(k) for k in range(n)] == np.linspace(0, 2 * math.pi, n).tolist()

    def test_pole_rows(self):
        arr = mesh_angle_array(MeshSpec(9, 17, 17))
        assert np.array_equal(arr[0], [0, 0, 0])
        assert np.array_equal(arr[-1], [0, 0, math.pi])

    @given(mesh_specs)
    @settings(max_examples=50)
    def test_row_count_and_ranges(self, mesh):
        arr = mesh_angle_array(mesh)
        assert arr.shape == (mesh.n_strategies, 3)
        assert arr[:, 2].min() >= 0 and arr[:, 2].max() <= math.pi
        assert arr[:, 0].max() <= 2 * math.pi and arr[:, 1].max() <= 2 * math.pi


class TestMeshClasses:
    @pytest.mark.parametrize(
        "dims, count",
        [
            ((9, 13, 13), 506),
            ((9, 17, 17), 898),
            ((9, 21, 21), 1402),
            ((5, 1, 9), 26),  # one phi value: no -U partner
            ((5, 2, 3), 8),  # phi in {0, 2*pi}: one phase value
            ((4, 4, 6), 32),  # odd step counts: no -U partner
        ],
    )
    def test_class_counts(self, dims, count):
        reps, inverse = mesh_classes(MeshSpec(*dims))
        assert reps.size == count
        assert inverse.shape == (MeshSpec(*dims).n_strategies,)
        assert inverse.min() == 0 and inverse.max() == count - 1

    @given(mesh_specs)
    @settings(max_examples=100, deadline=None)
    def test_class_count_follows_from_the_mesh_sizes(self, mesh):
        # distinct phase steps per axis (0 and 2*pi coincide); halved when
        # shifting both phases by pi, which gives -U, stays on the mesh
        m_phi, m_alpha = max(mesh.n_phi - 1, 1), max(mesh.n_alpha - 1, 1)
        k = 2 if m_phi % 2 == m_alpha % 2 == 0 else 1
        reps, _ = mesh_classes(mesh)
        assert reps.size == (mesh.n_theta - 2) * m_phi * m_alpha // k + 2

    @given(mesh_specs)
    @settings(max_examples=100, deadline=None)
    def test_members_share_their_representatives_features(self, mesh):
        reps, inverse = mesh_classes(mesh)
        f = _features(mesh_angle_array(mesh))
        assert np.abs(f - f[reps[inverse]]).max() <= 1e-15

    @given(mesh_specs)
    @settings(max_examples=100, deadline=None)
    def test_classes_are_the_distinct_features(self, mesh):
        reps, _ = mesh_classes(mesh)
        f = _features(mesh_angle_array(mesh))
        assert reps.size == len(np.unique(np.round(f, 10), axis=0))

    @given(mesh_specs)
    @settings(max_examples=100, deadline=None)
    def test_representative_is_lowest_member(self, mesh):
        reps, inverse = mesh_classes(mesh)
        assert np.array_equal(inverse[reps], np.arange(reps.size))
        lowest = np.full(reps.size, mesh.n_strategies)
        np.minimum.at(lowest, inverse, np.arange(mesh.n_strategies))
        assert np.array_equal(reps, lowest)
