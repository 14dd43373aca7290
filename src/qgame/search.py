"""Best-response tables, pure Nash equilibrium mesh search and beta sweeps."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .entanglers import EntanglerSpec, build_entangler, entangler_matrix
from .games import CLOSED_FORMS, PRISONER_DILEMMA, GameTable, PayoffPair
from .linalg import _require_integer, _require_real, _require_seed
from .mesh import MeshSpec, mesh_angle_array, mesh_classes
from .strategies import TWO_PI, StrategyAngles


@dataclass(frozen=True)
class NeResult:
    """Outcome of a pure-strategy equilibrium search at one beta value.

    pairs holds (I1, I2, PayoffPair) with 1-based strategy indices in
    lexicographic order; every listed pair is a mutual best response within
    the tie tolerance.
    """

    beta: float
    found: bool
    pairs: tuple[tuple[int, int, PayoffPair], ...]

    @property
    def first_pair(self):
        return self.pairs[0] if self.pairs else None


@dataclass(frozen=True)
class _ClassLayout:
    """A mesh's payoff classes as the search uses them.

    angles holds every mesh strategy and rep_angles one per class (see
    mesh_classes). members[c] is the ascending list of 1-based indices of
    class c, and classes[i] the class of 0-based index i. Each index is one
    Python int, shared by every result built from the layout.
    """

    angles: np.ndarray
    rep_angles: np.ndarray
    members: list
    classes: list


@functools.lru_cache(maxsize=4)
def _class_layout(mesh: MeshSpec) -> _ClassLayout:
    """The class layout of a mesh, built once and shared by every search on that mesh.

    A beta sweep searches one mesh many times, and the results kept from
    those searches hold one int per index.
    """
    angles = mesh_angle_array(mesh)
    reps, inverse = mesh_classes(mesh)
    classes = inverse.tolist()
    members = [[] for _ in range(reps.size)]
    for label, c in enumerate(classes, 1):
        members[c].append(label)
    rep_angles = angles[reps]
    angles.setflags(write=False)
    rep_angles.setflags(write=False)
    return _ClassLayout(angles, rep_angles, members, classes)


def best_response_table(game: GameTable, spec_or_j, mesh: MeshSpec, responder: int):
    """Best replies of one player to every opponent strategy on the mesh.

    Accepts either an EntanglerSpec or an explicit 4x4 unitary. Returns a
    list indexed by 1-based opponent strategy index; entry I is the set of
    1-based responder indices within the tie tolerance of the maximum
    payoff. Entry 0 is unused. Only the responder's payoffs are computed,
    on one representative per payoff class of the mesh (mesh_classes), for
    one block of opponent classes at a time.
    """
    responder = _require_integer(responder, "responder")
    if responder not in (1, 2):
        raise ValueError("responder must be 1 or 2")
    layout = _class_layout(mesh)
    if isinstance(spec_or_j, EntanglerSpec):
        spec_or_j = build_entangler(spec_or_j)
    j = entangler_matrix(spec_or_j)
    angles = layout.rep_angles
    u = game.outcome_payoffs()[responder - 1]
    # the opponent on the rows: player 1's payoff f(q1)^T W f(q2) is
    # f(q2)^T W^T f(q1), so responder 1 reads W transposed
    axes = (1, 0) if responder == 1 else (0, 1)
    class_sets = [set() for _ in layout.members]
    # W is built per block, not once per call: a faster call makes the
    # operator-tables benchmark run more rounds, and its peak_rss_mb grows
    # with the rounds it keeps (ROADMAP open item, direction 1)
    for i0 in range(0, angles.shape[0], _kernels.BLOCK_ROWS):
        block = angles[i0 : i0 + _kernels.BLOCK_ROWS]
        pay = _kernels.payoff_block(block, angles, _kernels.weights(j, u).transpose(axes))
        opp, reply = np.nonzero(_kernels.best_replies(pay))
        for o, r in zip((i0 + opp).tolist(), reply.tolist()):
            class_sets[o].update(layout.members[r])
    return [set()] + [set(class_sets[c]) for c in layout.classes]


def find_pure_ne(
    game: GameTable, spec: EntanglerSpec, mesh: MeshSpec, use_matrix: bool = False
) -> NeResult:
    """All pure-strategy Nash equilibria of the quantized game on the mesh.

    A pair (I1, I2) qualifies when I2 is within the tie tolerance of
    player 2's best reply to I1 and I1 of player 1's best reply to I2.
    The default path streams the payoff kernel over row blocks of one
    representative per payoff class of the mesh (mesh_classes), expands
    each equilibrium of classes to every pair of member indices, and
    evaluates the payoffs of each listed pair at its own mesh angles, so
    pairs still lists every mesh index. use_matrix builds both full tables
    of the whole mesh first and masks them, as a dense cross-check.
    """
    w = _kernels.weights(build_entangler(spec), game.outcome_payoffs())
    if use_matrix:
        angles = mesh_angle_array(mesh)
        p1, p2 = _kernels.payoff_block(angles, angles, w)
        rows, cols = np.nonzero(_kernels.best_replies(p2) & _kernels.best_replies(p1.T).T)
        pairs = list(zip((rows + 1).tolist(), (cols + 1).tolist()))
        pay1, pay2 = p1[rows, cols], p2[rows, cols]
    else:
        layout = _class_layout(mesh)
        members = layout.members
        a, b = _kernels.pure_ne_pairs(layout.rep_angles, w)
        pairs = sorted(
            (i, k) for c, d in zip(a.tolist(), b.tolist()) for i in members[c] for k in members[d]
        )
        flat = itertools.chain.from_iterable(pairs)
        rows, cols = np.fromiter(flat, np.intp, 2 * len(pairs)).reshape(-1, 2).T - 1
        pay1, pay2 = _kernels.pair_payoffs(layout.angles[rows], layout.angles[cols], w)
    listed = tuple(
        (i, k, PayoffPair(x, y)) for (i, k), x, y in zip(pairs, pay1.tolist(), pay2.tolist())
    )
    return NeResult(beta=spec.beta, found=bool(listed), pairs=listed)


def sweep_beta(game: GameTable, family: str, mesh: MeshSpec, betas) -> list[NeResult]:
    """find_pure_ne at each beta of an ascending grid.

    Every beta is checked, and its EntanglerSpec built, before the first
    search, so a refused beta costs no search.
    """
    betas = [_require_real(b, "beta") for b in betas]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be sorted ascending")
    specs = [EntanglerSpec(family, b) for b in betas]
    return [find_pure_ne(game, spec, mesh) for spec in specs]


def threshold_beta(results: list[NeResult]):
    """Largest swept beta at which an equilibrium was found, or None."""
    return max((r.beta for r in results if r.found), default=None)


def analytic_best_response(responder: int, form: str, g_opp: StrategyAngles) -> StrategyAngles:
    """A reply achieving squared target amplitude 1 at maximal entanglement.

    Under the "psi_plus" form, player 2's reply concentrates the full
    squared amplitude on |01> (their preferred asymmetric outcome) and
    player 1's on |10>; under the "triplet" form the same targets are
    reached with the triplet-adapted angle maps. The target amplitude is 1
    exactly up to rounding for any opponent.

    Two angle maps reach each target (they differ by pi in both phase
    angles and give strategy matrices of opposite sign). Under "psi_plus"
    the reply's phases lie in [0, 2*pi), and player 1 picks the map by the
    quarter of alpha, so that alternating replies close a four-step cycle
    up to 0 == 2*pi (see _psi_plus_reply).
    """
    responder = _require_integer(responder, "responder")
    if responder not in (1, 2):
        raise ValueError("responder must be 1 or 2")
    phi, alpha, theta = g_opp.as_tuple()
    if form == "psi_plus":
        reply = _psi_plus_reply(responder, phi, alpha, theta)
    elif form == "triplet" and responder == 2:
        reply = (_phase(math.pi / 2 - alpha), _phase(math.pi / 2 - phi), math.pi - theta)
    elif form == "triplet":
        reply = (_phase(phi - math.pi / 2), _phase(alpha + math.pi / 2), theta)
    else:
        raise ValueError(f"unknown closed form {form!r}")
    return StrategyAngles(*reply)


def _phase(x: float) -> float:
    """x mod 2*pi in [0, 2*pi); float % rounds a tiny negative x up to 2*pi itself."""
    r = x % TWO_PI
    return 0.0 if r == TWO_PI else r


# A phase closer than this to a multiple of pi/2 counts as that multiple. The
# margin lies on the float grid of [8, 16): a reply maps it exactly onto the
# next multiple's margin, and monotone rounding moves no other phase across it.
_SNAP = 16 * math.ulp(TWO_PI)


def _psi_plus_reply(responder, phi, alpha, theta):
    """The psi_plus reply (alpha - pi/2, phi, pi - theta), phases mod 2*pi.

    Player 1 adds pi to both phases when alpha lies in an odd quarter,
    [pi/2, pi) or [3*pi/2, 2*pi). Player 1's reply to player 2's reply to g
    then turns g by a quarter in both phases, down from an even quarter of
    phi and up from an odd one; each turn flips the parity, so the next one
    goes back. An alpha within _SNAP of a multiple of pi/2 is that multiple,
    so rounding cannot flip the parity.
    """
    quarter = math.pi / 2
    k = round(alpha / quarter)
    if abs(alpha - k * quarter) < _SNAP:
        alpha = k * quarter
    out = (_phase(alpha - quarter), _phase(phi), math.pi - theta)
    if responder == 1 and alpha % math.pi >= quarter:
        out = (_phase(out[0] + math.pi), _phase(out[1] + math.pi), out[2])
    return out


def no_psne_certificate(
    form: str, samples: int, game: GameTable = PRISONER_DILEMMA, seed: int = 0
) -> bool:
    """Numerical certificate that the maximally entangled game has no pure NE.

    Samples strategy pairs (always including the classical corner pairs) and
    checks that at every pair at least one player's analytic best response
    improves that player's payoff: the current payoff is not a best reply
    beside the response's. Payoffs come from the payoff kernel under
    J1(pi/2) for "psi_plus" and J2(pi/2) for "triplet". For a
    prisoner-dilemma-type table the improvement always exists because the
    two response conditions (full squared amplitude on |01> versus on |10>)
    cannot hold simultaneously; for a table whose mutually best outcome sits
    at |01> the certificate fails at that settlement point.
    """
    samples = _require_integer(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if form not in CLOSED_FORMS:
        raise ValueError(f"unknown closed form {form!r}")
    rng = np.random.default_rng(_require_seed(seed))
    # rows (g1, g2): the corner pairs, then samples drawn in the order
    # phi1, alpha1, theta1, phi2, alpha2, theta2
    corners = [(0.0, 0.0, t1, 0.0, 0.0, t2) for t1 in (0.0, math.pi) for t2 in (0.0, math.pi)]
    high = (TWO_PI, TWO_PI, math.pi) * 2
    pairs = np.vstack([corners, rng.uniform(0.0, high, size=(samples, 6))])
    g1, g2 = pairs[:, :3], pairs[:, 3:]

    def reply(responder, g):
        return analytic_best_response(responder, form, StrategyAngles(*g)).as_tuple()

    reply1 = np.array([reply(1, g) for g in g2.tolist()])
    reply2 = np.array([reply(2, g) for g in g1.tolist()])
    j = build_entangler(CLOSED_FORMS[form])
    # one stack for both players: w[p] is bit for bit weights(j, u[p])
    w = _kernels.weights(j, game.outcome_payoffs())
    now = _kernels.pair_payoffs(g1, g2, w)
    replied = [_kernels.pair_payoffs(reply1, g2, w[0]), _kernels.pair_payoffs(g1, reply2, w[1])]
    return not np.any(_kernels.best_replies(now, np.stack(replied)).all(axis=0))


def mixed_cycle(g1: StrategyAngles):
    """The four-strategy best-response cycle seeded at g1.

    Returns (g2, g1', g2') with g2 the reply of player 2 to g1, g1' the
    reply of player 1 to g2 and g2' the reply of player 2 to g1' ("psi_plus"
    replies, phases in [0, 2*pi)). One more reply of player 1 to g2' closes
    the cycle at g1 up to rounding and 0 == 2*pi: a phase 2*pi returns as 0.
    """
    g2 = analytic_best_response(2, "psi_plus", g1)
    g1p = analytic_best_response(1, "psi_plus", g2)
    g2p = analytic_best_response(2, "psi_plus", g1p)
    return g2, g1p, g2p
