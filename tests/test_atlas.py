"""The ordinal atlas: every strict ordinal 2x2 table under J1 on a small mesh.

In a strict ordinal table each player ranks the four outcomes 1 to 4. Under
maximal entanglement a pure equilibrium exists exactly when both players
rank the same outcome highest (Benjamin & Hayden, PRL 2001). With no
entanglement a strategy acts only through its flip probability
sin^2(theta/2), so the mesh holds an equilibrium of a table without a
classical pure one exactly when the table's mixed equilibrium is on the
theta grid. Between the two, every table holds an equilibrium on an initial
segment of beta, possibly empty or the whole range.
"""

import collections
import functools
import itertools
import math

from qgame.entanglers import EntanglerSpec
from qgame.games import GameTable
from qgame.mesh import MeshSpec
from qgame.search import NeResult, find_pure_ne, sweep_beta, threshold_beta

MESH = MeshSpec(5, 9, 9)


def ordinal_tables():
    """The 576 strict ordinal tables; ranks are listed for |00>, |01>, |10>, |11>."""
    for r1, r2 in itertools.product(itertools.permutations((1, 2, 3, 4)), repeat=2):
        yield GameTable(f"ordinal_{r1}_{r2}", (r1[:2], r1[2:]), (r2[:2], r2[2:]))


@functools.lru_cache(maxsize=2)
def _found(beta):
    """(table, whether the mesh holds a pure equilibrium) for every ordinal table at beta."""
    spec = EntanglerSpec("j1", beta)
    return [(game, find_pure_ne(game, spec, MESH).found) for game in ordinal_tables()]


def _classical_pure_ne(game):
    """True when some outcome (row, col) is a classical pure equilibrium of the table."""
    u1, u2 = game.u1, game.u2
    return any(
        u1[r][c] >= u1[1 - r][c] and u2[r][c] >= u2[r][1 - c] for r in (0, 1) for c in (0, 1)
    )


def _mixed_equilibrium(game):
    """The flip probabilities (p, q) of the mixed equilibrium of a table without a pure one.

    p makes player 2 indifferent between the columns, q player 1 between the rows.
    """
    u1, u2 = game.u1, game.u2
    d2 = (u2[0][1] - u2[0][0], u2[1][1] - u2[1][0])
    d1 = (u1[1][0] - u1[0][0], u1[1][1] - u1[0][1])
    return d2[0] / (d2[0] - d2[1]), d1[0] / (d1[0] - d1[1])


def test_there_are_576_strict_tables():
    tables = set(ordinal_tables())
    assert len(tables) == 576
    for game in tables:
        assert sorted(game.outcome_payoffs()[0]) == sorted(game.outcome_payoffs()[1]) == [1, 2, 3, 4]


def test_maximal_entanglement_needs_a_common_favourite():
    found = _found(math.pi / 2)
    common = [
        any(game.u1[r][c] == game.u2[r][c] == 4 for r in (0, 1) for c in (0, 1)) for game, _ in found
    ]
    assert [f for _, f in found] == common
    assert sum(common) == 144


def test_no_entanglement_keeps_every_classical_equilibrium():
    found = _found(0.0)
    assert sum(f for _, f in found) == 536
    classical = [game for game, _ in found if _classical_pure_ne(game)]
    assert len(classical) == 504
    assert all(f for game, f in found if _classical_pure_ne(game))


def test_no_entanglement_finds_a_mixed_equilibrium_only_on_the_theta_grid():
    on_grid = [math.sin(MESH.theta_value(k) / 2) ** 2 for k in range(MESH.n_theta)]

    def is_on_grid(x):
        return any(abs(x - v) <= 1e-12 for v in on_grid)

    rest = [(game, f) for game, f in _found(0.0) if not _classical_pure_ne(game)]
    assert len(rest) == 72
    mixed = [_mixed_equilibrium(game) for game, _ in rest]
    assert [f for _, f in rest] == [is_on_grid(p) and is_on_grid(q) for p, q in mixed]
    found = [pq for pq, (_, f) in zip(mixed, rest) if f]
    assert len(found) == 32 and set(found) == {(0.5, 0.5)}
    missed = [set(pq) for pq, (_, f) in zip(mixed, rest) if not f]
    assert len(missed) == 40 and all(pq & {0.25, 0.75} for pq in missed)



def test_each_table_holds_an_equilibrium_on_an_initial_beta_segment():
    # nine beta = k*pi/62 of the 32-point grid on [0, pi/2], both ends included;
    # the ends reuse the searches above, whose pairs are not kept
    betas = [k * math.pi / 62 for k in (0, 4, 8, 12, 16, 20, 24, 28, 31)]
    assert (betas[0], betas[-1]) == (0.0, math.pi / 2)
    patterns = collections.Counter()
    for (game, first), (_, last) in zip(_found(0.0), _found(math.pi / 2)):
        results = sweep_beta(game, "j1", MESH, betas[1:-1])
        results = [NeResult(0.0, first, ())] + results + [NeResult(math.pi / 2, last, ())]
        n = sum(r.found for r in results)
        assert [r.found for r in results] == [True] * n + [False] * (len(betas) - n)
        assert threshold_beta(results) == (betas[n - 1] if n else None)
        patterns["never" if n == 0 else "always" if n == len(betas) else "initial"] += 1
    assert patterns == {"always": 144, "initial": 392, "never": 40}
