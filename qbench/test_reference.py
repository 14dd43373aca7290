"""Exact cases for the benchmark's reference; run with
``python3 -m pytest qbench/test_reference.py``."""

import math

import numpy as np
import pytest

import reference as ref

IDENTITY = (0.0, 0.0, 0.0)
FLIP = (0.0, 0.0, math.pi)  # U = [[0, 1], [-1, 0]], the classical flip gate


@pytest.mark.parametrize("game", sorted(ref.GAMES))
@pytest.mark.parametrize("family", ["j1", "identity"])
def test_classical_corners_reproduce_the_table_at_beta_zero(game, family):
    u1, u2 = ref.GAMES[game]
    gates = ref.su2([IDENTITY, FLIP])
    p1, p2 = ref.payoff_block(ref.entangler(family, 0.0), gates, gates, ref.GAMES[game])
    assert np.array_equal(p1, np.array(u1, dtype=float))
    assert np.array_equal(p2, np.array(u2, dtype=float))


@pytest.mark.parametrize("game", sorted(ref.GAMES))
def test_classical_corners_survive_j1_entanglement(game):
    # J1 commutes with Y x Y, so the classical gates still give the table
    gates = ref.su2([IDENTITY, FLIP])
    p1, p2 = ref.payoff_block(ref.entangler("j1", 1.1), gates, gates, ref.GAMES[game])
    assert np.abs(p1 - np.array(ref.GAMES[game][0])).max() < 1e-14
    assert np.abs(p2 - np.array(ref.GAMES[game][1])).max() < 1e-14


@pytest.mark.parametrize("family", ["j1", "j2", "identity"])
def test_squared_amplitudes_sum_to_one(family):
    rng = np.random.default_rng(0)
    angles = np.column_stack(
        [rng.uniform(0, 2 * math.pi, 40), rng.uniform(0, 2 * math.pi, 40), rng.uniform(0, math.pi, 40)]
    )
    u = ref.su2(angles)
    for beta in (0.0, 0.7, math.pi / 2):
        w = np.abs(ref.amplitudes(ref.entangler(family, beta), u, u)) ** 2
        assert np.abs(w.sum(axis=2) - 1.0).max() < 1e-13


@pytest.mark.parametrize("family", ["j1", "j2"])
def test_entanglers_are_unitary(family):
    for beta in (0.0, 0.4, math.pi / 2):
        j = ref.entangler(family, beta)
        assert np.abs(j @ j.conj().T - np.eye(4)).max() < 1e-15


def test_maximal_carrier_states():
    r = 1 / math.sqrt(2)
    assert np.allclose(ref.entangler("j1", math.pi / 2)[:, 0], [r, 0, 0, 1j * r], atol=1e-15)
    assert np.allclose(ref.entangler("j2", math.pi / 2)[:, 0], [0, r, r, 0], atol=1e-15)


def test_strategies_are_special_unitary():
    u = ref.su2([(0.3, 1.9, 2.2), FLIP, IDENTITY])
    for m in u:
        assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-15
        assert abs(np.linalg.det(m) - 1) < 1e-15
    assert np.abs(u[1] - np.array([[0, 1], [-1, 0]])).max() < 1e-15


def test_mesh_layout():
    angles = ref.mesh_angles(5, 3, 2)
    assert len(angles) == 3 * 3 * 2 + 2
    assert tuple(angles[0]) == IDENTITY and tuple(angles[-1]) == FLIP
    assert tuple(angles[1]) == (0.0, 0.0, math.pi / 4)
    assert tuple(angles[2]) == (0.0, 2 * math.pi, math.pi / 4)  # alpha runs fastest
    assert tuple(angles[3]) == (math.pi, 0.0, math.pi / 4)


def test_brute_force_finds_the_classical_equilibrium():
    # unentangled prisoner's dilemma: only (flip, flip) is a mesh NE
    m = ref.MeshReference(ref.GAMES["prisoner_dilemma"], "j1", 0.0, (3, 1, 1))
    assert m.all_ne() == [(3, 3)]
    assert m.pair(3, 3) == (-5.0, -5.0)


def test_qutrit_state_at_the_maximal_angle():
    amps = ref.qutrit_amplitudes(2 * math.pi / 9)
    assert np.abs(np.abs(amps[[0, 4, 8]]) - 1 / math.sqrt(3)).max() < 1e-14
    assert np.abs(np.delete(amps, [0, 4, 8])).max() < 1e-14
