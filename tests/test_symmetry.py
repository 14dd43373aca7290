"""The game's symmetries, checked on the whole mesh search.

Relabelling one player's two outcomes, or swapping the players, maps a 2x2
table to another with the same equilibria. The quantized game keeps this
when J commutes with the matching gate (Eisert, Wilkens & Lewenstein, PRL
1999). If J commutes with Y x I, swapping the rows of both tables maps each
equilibrium (U1, U2) to (Y U1, U2); I x Y does the same for the columns and
player 2. If J commutes with SWAP, the game (u2^T, u1^T) has the transposed
equilibria. On angles, Y U(phi, alpha, theta) = U(pi - alpha, -phi, pi - theta),
a permutation of the mesh's payoff classes. None of this uses an oracle:
each search is checked only against the search of the relabelled table.
"""

import functools
import math

import numpy as np
import pytest
from test_atlas import ordinal_tables

from qgame import _kernels
from qgame.entanglers import EntanglerSpec, build_entangler, is_classically_commensurate
from qgame.games import GameTable
from qgame.linalg import DEFAULT_TOL, commutator
from qgame.mesh import MeshSpec, mesh_angle_array
from qgame.search import find_pure_ne
from qgame.strategies import TWO_PI, StrategyAngles, classical_gate, su2_from_angles

MESH = MeshSpec(5, 9, 9)
TABLES = list(ordinal_tables())[::8]
SWAP = np.eye(4)[[0, 2, 1, 3]]


def _y_image(angles):
    """The angles of Y U for each row (phi, alpha, theta) of U, phases mod 2*pi."""
    phi, alpha, theta = angles.T
    return np.stack([(math.pi - alpha) % TWO_PI, -phi % TWO_PI, math.pi - theta], axis=1)


@functools.lru_cache(maxsize=1)
def _classes():
    """(class of each mesh index, class of its Y image), 0-based, from one payoff_classes call."""
    angles = mesh_angle_array(MESH)
    _, inverse = _kernels.payoff_classes(np.vstack([angles, _y_image(angles)]))
    return inverse[: len(angles)].tolist(), inverse[len(angles) :].tolist()


def _perm():
    """The class permutation that Y induces: class -> class of its members' images."""
    return dict(zip(*_classes()))


def _ne_classes(game, spec):
    cls, _ = _classes()
    return {(cls[i - 1], cls[k - 1]) for i, k, _ in find_pure_ne(game, spec, MESH).pairs}


def _rows_swapped(game):
    return GameTable(game.name, game.u1[::-1], game.u2[::-1])


def _columns_swapped(game):
    return GameTable(game.name, [r[::-1] for r in game.u1], [r[::-1] for r in game.u2])


def _players_swapped(game):
    return GameTable(game.name, np.transpose(game.u2).tolist(), np.transpose(game.u1).tolist())


def _relations(spec):
    """For each table, whether its row, column and player relabellings map its NE as predicted."""
    perm = _perm()
    for game in TABLES:
        ne = _ne_classes(game, spec)
        yield (
            _ne_classes(_rows_swapped(game), spec) == {(perm[c], d) for c, d in ne},
            _ne_classes(_columns_swapped(game), spec) == {(c, perm[d]) for c, d in ne},
            _ne_classes(_players_swapped(game), spec) == {(d, c) for c, d in ne},
        )


def test_y_maps_the_angles():
    y = classical_gate("Y")
    angles = mesh_angle_array(MESH)
    for g, image in zip(angles, _y_image(angles)):
        want = y @ su2_from_angles(StrategyAngles(*g))
        assert np.abs(su2_from_angles(StrategyAngles(*image)) - want).max() < 1e-15


def test_y_permutes_the_payoff_classes():
    cls, image = _classes()
    perm = _perm()
    # every member of a class has its image in one class, and the images are the mesh's classes
    assert all(perm[c] == m for c, m in zip(cls, image))
    assert set(perm) == set(perm.values()) == set(cls)


@pytest.mark.parametrize(
    "spec",
    [EntanglerSpec("j1", b) for b in (0.1, 0.5, 1.2)] + [EntanglerSpec("identity")],
    ids=["j1-0.1", "j1-0.5", "j1-1.2", "identity"],
)
def test_symmetries_that_j_keeps_map_the_equilibria(spec):
    j = build_entangler(spec)
    assert is_classically_commensurate(j)
    assert np.abs(commutator(SWAP, j)).max() <= DEFAULT_TOL
    assert all(all(r) for r in _relations(spec))


def test_j2_keeps_no_symmetry():
    spec = EntanglerSpec("j2", 0.7)
    j = build_entangler(spec)
    assert not is_classically_commensurate(j)
    assert np.abs(commutator(SWAP, j)).max() > DEFAULT_TOL
    rows, columns, players = zip(*_relations(spec))
    assert not all(rows) and not all(columns) and not all(players)
