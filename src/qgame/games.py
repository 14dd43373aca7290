"""Classical 2x2 game tables, the quantization protocol and payoffs.

The protocol: the referee entangles |00> with J, each player applies an
SU(2) strategy to their own qubit, the referee applies J^dag, and payoffs
are the squared final amplitudes weighted by the classical payoff table.
final_state evaluates the protocol with matrices for one pair: it gives the
amplitudes, and through payoffs the payoffs, that `qgame payoff` prints, and
it is the oracle that verify and the tests check the kernel against. Every
other payoff, mixed_payoff's included, comes from the bilinear kernel in
_kernels, for any J. The closed forms here are reference formulas for J1
and J2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .entanglers import EntanglerSpec, entangler_matrix
from .linalg import _require_real, dagger, tensor
from .strategies import StrategyAngles, su2_from_angles

# Each closed form and the maximally entangling spec whose protocol it
# describes; see closed_form_sq_amplitudes.
CLOSED_FORMS = {
    "psi_plus": EntanglerSpec("j1", math.pi / 2),
    "triplet": EntanglerSpec("j2", math.pi / 2),
}


class GameFormatError(ValueError):
    """A game file is malformed; the message names the offending field."""


@dataclass(frozen=True)
class GameTable:
    """A 2x2 bimatrix game.

    u1[r][c] (u2[r][c]) is player 1's (player 2's) payoff when player 1
    plays gate index r and player 2 plays gate index c, with index 0 the
    identity gate and index 1 the flip gate Y. Payoffs are stored as
    printed in the usual normal form (e.g. negative years in prison).
    """

    name: str
    u1: tuple[tuple[float, float], tuple[float, float]]
    u2: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        for field in ("u1", "u2"):
            raw = getattr(self, field)
            try:
                grid = tuple(tuple(row) for row in raw)
            except TypeError as exc:
                raise GameFormatError(f"field {field!r} is not a 2x2 number grid") from exc
            if len(grid) != 2 or any(len(row) != 2 for row in grid):
                raise GameFormatError(f"field {field!r} must be 2x2, got {raw!r}")
            try:
                grid = tuple(tuple(_require_real(x, f"field {field!r} entry") for x in row) for row in grid)
            except ValueError as exc:
                raise GameFormatError(str(exc)) from None
            object.__setattr__(self, field, grid)

    def outcome_payoffs(self) -> np.ndarray:
        """(2, 4) array: row p-1 holds player p's payoffs for |00>, |01>, |10>, |11>."""
        return np.array([self.u1, self.u2], dtype=float).reshape(2, 4)


class PayoffPair(NamedTuple):
    p1: float
    p2: float


PRISONER_DILEMMA = GameTable(
    name="prisoner_dilemma",
    u1=((-4, -6), (-2, -5)),
    u2=((-4, -2), (-6, -5)),
)

# Asymmetric variant: the district attorney promises player 1 freedom for
# confessing while the brother faces the standard dilemma numbers.
DA_BROTHER = GameTable(
    name="da_brother",
    u1=((0, -10), (-1, -5)),
    u2=((-2, -1), (-10, -5)),
)

BUILTIN_GAMES = {g.name: g for g in (PRISONER_DILEMMA, DA_BROTHER)}


def final_state(j: np.ndarray, g1: StrategyAngles, g2: StrategyAngles) -> np.ndarray:
    """Final four amplitudes J^dag (U1 x U2) J |00>; ValueError unless j is a unitary 4x4 matrix."""
    j = entangler_matrix(j)
    u = tensor(su2_from_angles(g1), su2_from_angles(g2))
    # J|00> is the first column of J
    return dagger(j) @ (u @ j[:, 0])


def payoffs(amps: np.ndarray, game: GameTable) -> PayoffPair:
    """Payoffs from a final amplitude vector: squared magnitudes weight the table."""
    w = np.abs(np.asarray(amps, dtype=complex).reshape(4)) ** 2
    u1, u2 = game.outcome_payoffs()
    return PayoffPair(float(w @ u1), float(w @ u2))


def closed_form_sq_amplitudes(
    form: str, g1: StrategyAngles, g2: StrategyAngles
) -> tuple[float, float, float, float]:
    """Squared final amplitudes at maximal entanglement, in closed form.

    form="psi_plus": the entangled carrier state is (|00>+i|11>)/sqrt(2)
    (the J1 protocol at beta=pi/2), computed as
    closed_form_amplitudes_partial at beta=pi/2; form="triplet": the
    carrier is (|01>+|10>)/sqrt(2) (the J2 protocol). Both match the direct
    matrix computation to machine precision. They are reference formulas:
    the search, the Bayesian game and no_psne_certificate compute payoffs
    with the kernel in _kernels, and only verify and the tests evaluate
    these, to check it.
    """
    if form == "psi_plus":
        # the imaginary parts carry a factor cos(beta), zero at pi/2
        amps = closed_form_amplitudes_partial(math.pi / 2, g1, g2)
        return tuple(float(z.real) * float(z.real) for z in amps)
    if form != "triplet":
        raise ValueError(f"unknown closed form {form!r}")
    p1, a1, t1 = g1.as_tuple()
    p2, a2, t2 = g2.as_tuple()
    c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
    c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
    a = c1 * c2 * math.cos(p1 - p2) - s1 * s2 * math.cos(a1 - a2)
    b = c1 * s2 * math.sin(p1 + a2) + s1 * c2 * math.sin(a1 + p2)
    c = s1 * s2 * math.sin(a1 - a2) - c1 * c2 * math.sin(p1 - p2)
    d = s1 * c2 * math.cos(a1 + p2) + c1 * s2 * math.cos(p1 + a2)
    return (a * a, b * b, c * c, d * d)


def closed_form_amplitudes_partial(
    beta: float, g1: StrategyAngles, g2: StrategyAngles
) -> np.ndarray:
    """Complex final amplitudes for the J1 protocol at entanglement beta.

    The squared magnitudes agree with final_state(J1(beta), g1, g2) to
    machine precision for every beta; the individual component phases
    follow this closed form's own convention and are not guaranteed to
    match the matrix protocol entrywise. At beta=pi/2 the squared
    magnitudes reduce to the "psi_plus" closed form.
    """
    beta = EntanglerSpec("j1", beta).beta
    p1, a1, t1 = g1.as_tuple()
    p2, a2, t2 = g2.as_tuple()
    c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
    c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
    sb, cb = math.sin(beta), math.cos(beta)
    a = (c1 * c2 * math.cos(p1 + p2) - s1 * s2 * math.sin(a1 + a2) * sb) + 1j * (
        c1 * c2 * math.sin(p1 + p2) * cb
    )
    b = (c1 * s2 * math.cos(p1 - a2) + s1 * c2 * math.sin(a1 - p2) * sb) + 1j * (
        c1 * s2 * math.sin(p1 - a2) * cb
    )
    c = (s1 * c2 * math.cos(a1 - p2) - c1 * s2 * math.sin(p1 - a2) * sb) - 1j * (
        s1 * c2 * math.sin(a1 - p2) * cb
    )
    d = (s1 * s2 * math.cos(a1 + a2) + c1 * c2 * math.sin(p1 + p2) * sb) - 1j * (
        s1 * s2 * math.sin(a1 + a2) * cb
    )
    return np.array([a, b, c, d], dtype=complex)


@dataclass(frozen=True)
class MixedStrategy:
    """Finite-support probability distribution over strategy angle triples."""

    support: tuple[tuple[StrategyAngles, float], ...]

    def __post_init__(self):
        support = tuple((g, _require_real(p, "probability")) for g, p in self.support)
        if not support:
            raise ValueError("mixed strategy needs a non-empty support")
        if not all(0 <= p <= 1 for _, p in support):
            raise ValueError("probabilities must lie in [0, 1]")
        total = sum(p for _, p in support)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "support", support)

    @classmethod
    def point(cls, g: StrategyAngles) -> "MixedStrategy":
        return cls(((g, 1.0),))

    @classmethod
    def uniform(cls, gs: Sequence[StrategyAngles]) -> "MixedStrategy":
        # an empty gs gives an empty support, which __post_init__ refuses
        return cls(tuple((g, 1.0 / len(gs)) for g in gs))


def mixed_payoff(
    m1: MixedStrategy, m2: MixedStrategy, j: np.ndarray, game: GameTable
) -> PayoffPair:
    """Expected payoffs when both players randomize independently.

    Player p's expected payoff is q1^T P[p] q2, with q1 and q2 the support
    probabilities and P the payoffs of every support pair: one
    _kernels.payoff_block call under the W of (j, game), not final_state.
    ValueError unless j is a unitary 4x4 matrix.
    """
    w = _kernels.weights(entangler_matrix(j), game.outcome_payoffs())
    angles1, angles2 = (np.array([g.as_tuple() for g, _ in m.support]) for m in (m1, m2))
    q1, q2 = (np.array([p for _, p in m.support]) for m in (m1, m2))
    p1, p2 = (q1 @ _kernels.payoff_block(angles1, angles2, w) @ q2).tolist()
    return PayoffPair(p1, p2)


def _read_json(path: str):
    """The parsed content of a JSON file; malformed JSON is a GameFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise GameFormatError(f"{path}: invalid JSON: {exc}") from exc


def _check_object(obj, source: str, required, optional=()) -> None:
    """GameFormatError unless parsed JSON obj is an object with every required
    field and no field outside required and optional.
    """
    if not isinstance(obj, dict):
        raise GameFormatError(f"{source}: must be an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise GameFormatError(f"{source}: unknown fields {unknown}")
    for field in required:
        if field not in obj:
            raise GameFormatError(f"{source}: missing field {field!r}")


def _table_from_obj(obj, source: str) -> GameTable:
    """A GameTable from a parsed {"name", "u1", "u2"} object; any other field is refused."""
    _check_object(obj, source, ("name", "u1", "u2"))
    if not isinstance(obj["name"], str):
        raise GameFormatError(f"{source}: field 'name' must be a string")
    return GameTable(name=obj["name"], u1=obj["u1"], u2=obj["u2"])


def load_game(path: str) -> GameTable:
    """Load a game table from a JSON file {"name": ..., "u1": ..., "u2": ...}."""
    return _table_from_obj(_read_json(path), str(path))


def save_game(game: GameTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"name": game.name, "u1": [list(r) for r in game.u1], "u2": [list(r) for r in game.u2]},
            fh,
            indent=2,
        )
        fh.write("\n")


def resolve_game(name_or_path: str) -> GameTable:
    """A built-in game by name ("prisoner_dilemma", "da_brother") or a JSON path."""
    if name_or_path in BUILTIN_GAMES:
        return BUILTIN_GAMES[name_or_path]
    return load_game(name_or_path)
