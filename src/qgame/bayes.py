"""Bayesian version of the asymmetric dilemma at maximal entanglement.

Player 2 is one of two types: with probability mu the harsh type (whose
payoff table punishes mutual silence more), with probability 1-mu the mild
type. Player 1 plays one strategy against both; each type best-responds to
it. The game is played under J1 at maximal entanglement, and every payoff,
of one profile or of a whole mesh, comes from the payoff kernel in _kernels,
on both players' W of each type table, built once per table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .entanglers import build_entangler
from .games import CLOSED_FORMS, DA_BROTHER, GameTable
from .linalg import _require_real
from .mesh import MeshSpec, angles_to_index, index_to_angles, mesh_angle_array
from .search import _phase, analytic_best_response
from .strategies import CLASSICAL_ANGLES, StrategyAngles

# Player 2 type I: the brother of DA_BROTHER, both tables as there.
GAME_TYPE_I = GameTable("bayes_type_I", DA_BROTHER.u1, DA_BROTHER.u2)

# Player 2 type II: player 1's table of DA_BROTHER against a brother who
# values silence differently (their dominant strategy flips).
GAME_TYPE_II = GameTable("bayes_type_II", DA_BROTHER.u1, ((-2, -7), (-10, -11)))


@dataclass(frozen=True)
class BayesSpec:
    mu: float
    game_2I: GameTable = GAME_TYPE_I
    game_2II: GameTable = GAME_TYPE_II

    def __post_init__(self):
        object.__setattr__(self, "mu", _require_real(self.mu, "mu"))
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError(f"mu out of range [0, 1]: {self.mu}")


@dataclass(frozen=True)
class BayesProfile:
    g1: StrategyAngles
    g2I: StrategyAngles
    g2II: StrategyAngles


class BayesPayoffs(NamedTuple):
    p1: float
    p2I: float
    p2II: float


def bayes_payoffs(spec: BayesSpec, prof: BayesProfile) -> BayesPayoffs:
    """Expected payoffs of the three participants.

    Each type's payoff comes from their own matchup with player 1;
    player 1's payoff mu-averages their payoffs across the two matchups.
    """
    p1, p2i, p2ii = _type_payoffs(spec, np.array([prof.g1.as_tuple()]), prof.g2I, prof.g2II)
    return BayesPayoffs(float(p1[0]), float(p2i[0]), float(p2ii[0]))


def bayes_best_response_2I(g1: StrategyAngles) -> StrategyAngles:
    """Type I's reply: full squared amplitude on |01>, their best column (the psi_plus reply)."""
    return analytic_best_response(2, "psi_plus", g1)


def bayes_best_response_2II(g1: StrategyAngles) -> StrategyAngles:
    """Type II's reply: full squared amplitude on |00>, their best column."""
    phi, alpha, theta = g1.as_tuple()
    return StrategyAngles(_phase(-phi), _phase(-(alpha + math.pi / 2)), theta)


# The equilibrium-candidate opponent profile: each type's best reply to
# player 1 playing the identity, type I the flip and type II the identity.
# The replies computed by bayes_best_response_2I/2II carry a phase that
# does not act at their pole; these write it as 0.
_G2I_STAR = StrategyAngles(*CLASSICAL_ANGLES["Y"])
_G2II_STAR = StrategyAngles(*CLASSICAL_ANGLES["I"])

@functools.lru_cache(maxsize=8)
def _type_weights(game: GameTable) -> np.ndarray:
    """The (2, 10, 10) stack of both players' W of a type table under J1(pi/2).

    Built once per table: every BayesSpec of the built-in types shares it.
    """
    j = build_entangler(CLOSED_FORMS["psi_plus"])
    w = _kernels.weights(j, game.outcome_payoffs())
    w.setflags(write=False)
    return w


def _type_payoffs(spec: BayesSpec, angles: np.ndarray, g2I: StrategyAngles, g2II: StrategyAngles):
    """(p1 weighted by mu, p2I, p2II), one entry per row of player 1's angles.

    One kernel call per type gives both players' payoffs of that matchup.
    """
    (p1_i, p2_i), (p1_ii, p2_ii) = (
        _kernels.payoff_block(angles, np.array([g2.as_tuple()]), _type_weights(game))[..., 0]
        for game, g2 in ((spec.game_2I, g2I), (spec.game_2II, g2II))
    )
    return spec.mu * p1_i + (1.0 - spec.mu) * p1_ii, p2_i, p2_ii


def p1_given_best_responses(mu: float, g1: StrategyAngles) -> float:
    """Player 1's payoff against the candidate type replies of the built-in types.

    Both opponent types hold the strategies that best-respond to the
    identity; the resulting payoff surface over g1 decides whether the
    identity is player 1's global maximizer. This is bayes_payoffs of the
    candidate profile.
    """
    return bayes_payoffs(BayesSpec(mu), candidate_profile(g1)).p1


def candidate_profile(g1: StrategyAngles) -> BayesProfile:
    """Profile pairing g1 with the candidate equilibrium type strategies."""
    return BayesProfile(g1=g1, g2I=_G2I_STAR, g2II=_G2II_STAR)


class BayesVerdict(NamedTuple):
    verdict: str  # "ne_at_origin" or "no_ne"
    origin_p1: float
    max_p1: float
    argmax: StrategyAngles  # the lowest-index best reply: the identity under "ne_at_origin"
    margin: float  # max_p1 - origin_p1


def bayes_ne_check(mu: float, grid: MeshSpec, spec: BayesSpec | None = None) -> BayesVerdict:
    """Grid test of whether the identity strategy is player 1's best reply.

    Maximizes player 1's payoff against the candidate type replies over the
    mesh, with the type tables of spec (the built-in types by default;
    spec.mu must equal mu). Verdict "ne_at_origin" when the identity is a
    best reply on the grid (_kernels.best_replies; the full profile is then
    an equilibrium), "no_ne" when player 1 would deviate from it; whether
    another profile is an equilibrium is not checked. argmax is the
    lowest-index best reply, within TIE_TOL of max_p1, so the identity
    whenever the verdict is "ne_at_origin". Raises ValueError when a type's
    candidate reply is not its best reply to the identity on the mesh,
    since the verdict then means nothing.
    """
    if spec is None:
        spec = BayesSpec(mu)
    elif spec.mu != _require_real(mu, "mu"):
        raise ValueError(f"mu {mu} differs from the spec's mu {spec.mu}")
    angles = mesh_angle_array(grid)
    for game, reply in ((spec.game_2I, _G2I_STAR), (spec.game_2II, _G2II_STAR)):
        # _type_weights(game)[1] is bit for bit the W of player 2's row alone
        # angles[:1] is mesh index 1, the identity; each reply is a mesh pole
        p2 = _kernels.payoff_block(angles[:1], angles, _type_weights(game)[1])[0]
        if not _kernels.best_replies(p2)[angles_to_index(grid, reply) - 1]:
            raise ValueError(
                f"type {game.name!r}: candidate reply {reply.as_tuple()} is not a best "
                "response to the identity on the mesh"
            )
    p1 = _type_payoffs(spec, angles, _G2I_STAR, _G2II_STAR)[0]
    replies = _kernels.best_replies(p1)
    origin = float(p1[0])  # index 1 is the theta=0 pole, the identity
    best = float(p1.max())
    verdict = "ne_at_origin" if replies[0] else "no_ne"
    k = int(np.argmax(replies))  # the lowest best reply
    return BayesVerdict(verdict, origin, best, index_to_angles(grid, k + 1), best - origin)


def classical_threshold_mu() -> float:
    """Exact indifference point of the classical comparison.

    Player 1 compares the confession payoff line -10*mu with the silence
    payoff line -5*mu - (1-mu); the two linear forms cross at mu = 1/6.
    """
    # Solve -10 mu = -5 mu - (1 - mu) for mu: coefficients of the
    # difference (-10 + 5 - 1) mu + 1 = 0.
    return 1.0 / 6.0
