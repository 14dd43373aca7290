"""Workload inputs made from a seed, and the checks on the program's outputs.

Every check compares against reference.py or against a property that
holds independently of today's output; no expected value is copied from
the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref

SMALL = (9, 13, 13)  # 1185 strategies: full tables 2*N^2*8 B = 22 MB fit in a 105 MiB L3
LARGE = (9, 21, 21)  # 3089 strategies: full tables 153 MB do not
TINY = (5, 9, 9)  # 245 strategies: brute-force NE sets
PROBE_MESH = (3, 5, 5)
HALF_PI = math.pi / 2

# A game whose j2-quantized version has pure NE on TINY for beta in
# [0.3, 0.7], so the j2 brute-force comparison is not between empty sets.
CHICKEN = {"name": "chicken", "u1": [[0, -1], [1, -10]], "u2": [[0, 1], [-1, -10]]}

# Bayesian types: published tables and each type's best reply to the
# identity at maximal entanglement (type I flips, type II stays).
BAYES_TYPES = (
    ((((0, -10), (-1, -5)), ((-2, -1), (-10, -5))), (0.0, 0.0, math.pi)),
    ((((0, -10), (-1, -5)), ((-2, -7), (-10, -11))), (0.0, 0.0, 0.0)),
)
BAYES_MESH = (9, 17, 17)  # the CLI default

# The trace probe: one small call per layer, run once after the traced
# rounds, so that a traced run reports every layer even where its
# workload's own operations do not reach it.
PROBE = [
    {"fn": "cli", "argv": ["search-ne", "--game", "da_brother", "--beta", "1.0", "--mesh", "3,5,5"]},
    {"fn": "best_response_table", "game": "da_brother", "family": "j1", "beta": 1.0, "mesh": PROBE_MESH, "responder": 2},
    {"fn": "best_response_table", "game": "da_brother", "family": "j2", "beta": 1.0, "mesh": PROBE_MESH, "responder": 1},
    {"fn": "sweep", "game": "da_brother", "mesh": PROBE_MESH, "betas": [0.5, 1.0, 1.5]},
    {"fn": "final_state", "game": "prisoner_dilemma", "family": "j1", "beta": HALF_PI, "p1": [0.1, 0.2, 0.3], "p2": [0.4, 0.5, 0.6]},
    {"fn": "bayes_ne_check", "mu": 0.1, "mesh": PROBE_MESH},
    {"fn": "max_entangling_beta"},
    {"fn": "run_all", "seed": 0},
]


def n_strategies(mesh) -> int:
    return (mesh[0] - 2) * mesh[1] * mesh[2] + 2


@dataclass
class Workload:
    name: str
    ops: list  # one round, run in order
    checks: list = field(default_factory=list)  # untimed calls made once
    rng: np.random.Generator | None = None


def _search(game, family, beta, mesh):
    return {"fn": "find_pure_ne", "game": game, "family": family, "beta": float(beta), "mesh": list(mesh)}


def _brt(game, family, beta, mesh, responder):
    op = _search(game, family, beta, mesh)
    op.update(fn="best_response_table", responder=responder)
    return op


def make(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    games = ("da_brother", "prisoner_dilemma")
    if name == "ne-search":
        mid = {g: rng.uniform(0.70, 1.05) for g in games}
        ops = [_search(g, "j1", b, SMALL) for g in games for b in (0.0, mid[g], HALF_PI)]
        ops += [_search(g, "j1", mid[g], LARGE) for g in games]
        checks = [_search(g, "j1", mid[g], TINY) for g in games]
        return Workload(name, ops, checks, rng)
    if name == "operator-tables":
        b = rng.uniform(0.3, 1.5, size=10)
        # Five alike SMALL searches put op_p50_s in the middle of one group
        # of similar operations, not on the edge between the two sizes.
        ops = [_search(g, "j2", beta, SMALL) for g, beta in zip(games * 3, b[:5])]
        ops += [
            _brt("da_brother", "j1", b[5], SMALL, 1),
            _brt("prisoner_dilemma", "j2", b[6], SMALL, 2),
            _search("prisoner_dilemma", "j2", b[7], LARGE),
            _brt("prisoner_dilemma", "j1", b[8], LARGE, 2),
            _brt("da_brother", "j2", b[9], LARGE, 1),
        ]
        checks = [
            _search("da_brother", "j2", b[0], TINY),
            _search(CHICKEN, "j2", rng.uniform(0.3, 0.7), TINY),
        ]
        return Workload(name, ops, checks, rng)
    if name == "beta-sweep":
        lo, hi = rng.uniform(0.90, 1.00), rng.uniform(1.25, 1.35)
        betas = [float(x) for x in np.linspace(lo, hi, 8)]
        return Workload(name, [{"fn": "sweep", "game": "da_brother", "mesh": list(SMALL), "betas": betas}], [], rng)
    raise ValueError(f"unknown workload {name!r}")


def game_tables(game):
    if isinstance(game, str):
        return ref.GAMES[game]
    return (game["u1"], game["u2"])


# ---------------------------------------------------------------- checks


def check_ne(op, out, mesh_ref=None) -> list[str]:
    """A find_pure_ne result: indices, payoffs and mutual best responses."""
    problems = []
    n = n_strategies(op["mesh"])
    pairs = [(p[0], p[1]) for p in out["pairs"]]
    if out["found"] != bool(pairs):
        problems.append("found flag disagrees with the pair list")
    if any(not (1 <= i <= n and 1 <= j <= n) for i, j in pairs):
        problems.append("index outside 1..N")
    if any(a >= b for a, b in zip(pairs, pairs[1:])):
        problems.append("pairs not in strict lexicographic order")
    m = mesh_ref or ref.MeshReference(game_tables(op["game"]), op["family"], op["beta"], op["mesh"])
    for i, j, p1, p2 in out["pairs"]:
        r1, r2 = m.pair(i, j)
        if abs(r1 - p1) > 1e-12 or abs(r2 - p2) > 1e-12:
            problems.append(f"payoffs at ({i},{j}) differ from the reference")
            break
        if not m.is_mutual_best_response(i, j):
            problems.append(f"({i},{j}) is not a mutual best response")
            break
    if op["family"] == "j1" and op["beta"] == 0.0:
        if not any(i == j == n and abs(p1 + 5) <= 1e-12 and abs(p2 + 5) <= 1e-12 for i, j, p1, p2 in out["pairs"]):
            problems.append("beta=0: (N,N) with payoffs (-5,-5) missing")
    if op["family"] == "j1" and op["beta"] == HALF_PI and pairs:
        problems.append("beta=pi/2: a pure NE was reported")
    return problems


def check_brute_force(op, out) -> list[str]:
    """On a small mesh the NE set must equal the brute-force set exactly."""
    m = ref.MeshReference(game_tables(op["game"]), op["family"], op["beta"], op["mesh"])
    problems = check_ne(op, out, m)
    if [(p[0], p[1]) for p in out["pairs"]] != m.all_ne():
        problems.append("NE set differs from the brute-force set")
    return problems


def check_brt(op, out, rng) -> list[str]:
    """best_response_table: sampled entries equal the reference argmax sets."""
    n = n_strategies(op["mesh"])
    if len(out) != n + 1 or out[0]:
        return ["table has the wrong length or a non-empty entry 0"]
    m = ref.MeshReference(game_tables(op["game"]), op["family"], op["beta"], op["mesh"])
    sample = {1, n} | {int(k) for k in rng.integers(1, n + 1, size=24)}
    for k in sorted(sample):
        if set(out[k]) != m.best_replies(op["responder"], k):
            return [f"entry {k} differs from the reference best replies"]
    return []


def check_sweep(op, out) -> list[str]:
    rows = out["rows"]
    problems = []
    if [r["beta"] for r in rows] != op["betas"]:
        problems.append("swept betas differ from the grid")
    flags = [r["found"] for r in rows]
    if flags != sorted(flags, reverse=True):
        problems.append("found steps are not an initial segment")
    found = [r for r in rows if r["found"]]
    expected_c = found[-1]["beta"] if found else None
    if out["beta_c"] != expected_c:
        problems.append("threshold_beta is not the last found beta")
    if expected_c is None or not (1.05 <= expected_c <= 1.20):
        problems.append(f"beta_c {expected_c} outside [1.05, 1.20]")
    firsts = [r["first"] for r in found]
    for a, b in zip(firsts, firsts[1:]):
        if b[2] < a[2] - 1e-12 or b[3] < a[3] - 1e-12:
            problems.append("first-pair payoffs decrease along the found steps")
            break
    for r in found:
        m = ref.MeshReference(game_tables(op["game"]), "j1", r["beta"], op["mesh"])
        i, j, p1, p2 = r["first"]
        r1, r2 = m.pair(i, j)
        if abs(r1 - p1) > 1e-12 or abs(r2 - p2) > 1e-12 or not m.is_mutual_best_response(i, j):
            problems.append(f"first pair at beta={r['beta']} fails the reference check")
            break
    return problems


def check_op(wl: Workload, op, out) -> list[str]:
    if op["fn"] == "find_pure_ne":
        return check_ne(op, out)
    if op["fn"] == "best_response_table":
        return check_brt(op, out, wl.rng)
    if op["fn"] == "sweep":
        return check_sweep(op, out)
    raise ValueError(op["fn"])


# ---------------------------------------------------------------- cli-cold

SPEC_CONST = "qbench/data/bayes_const_u1.json"
SPEC_BAD_KEY = "qbench/data/bayes_unknown_key.json"


@dataclass
class CliOp:
    argv: list
    check: object  # (returncode, stdout, stderr) -> list of problems
    known_fault: bool = False  # fails on today's code; counted, not an error


def _json_out(code, out):
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(out)


def _check_payoff(family, beta, game, g1, g2):
    def check(code, out, err):
        obj = _json_out(code, out)
        j, u1, u2 = ref.entangler(family, beta), ref.su2([g1]), ref.su2([g2])
        w = np.abs(ref.amplitudes(j, u1, u2)[0, 0]) ** 2
        p1, p2 = (float(p[0, 0]) for p in ref.payoff_block(j, u1, u2, ref.GAMES[game]))
        if np.abs(np.array(obj["sq_amplitudes"]) - w).max() > 1e-12:
            return ["payoff: squared amplitudes differ from the reference"]
        if abs(obj["payoffs"][0] - p1) > 1e-12 or abs(obj["payoffs"][1] - p2) > 1e-12:
            return ["payoff: payoffs differ from the reference"]
        return []

    return check


def _check_search_ne(beta, mesh):
    def check(code, out, err):
        obj = _json_out(code, out)
        op = _search("da_brother", "j1", beta, mesh)
        return check_brute_force(op, obj)

    return check


def _check_bayes(mu, tables=BAYES_TYPES):
    def check(code, out, err):
        obj = _json_out(code, out)
        p1, origin = ref.bayes_grid(mu, BAYES_MESH, tables)
        best = float(p1.max())
        verdict = "ne_at_origin" if best - origin <= 1e-9 else "no_ne"
        problems = []
        if obj["verdict"] != verdict:
            problems.append(f"bayes mu={mu}: verdict {obj['verdict']}, reference {verdict}")
        if abs(obj["origin_p1"] - origin) > 1e-12 or abs(obj["max_p1"] - best) > 1e-12:
            problems.append(f"bayes mu={mu}: payoffs differ from the reference grid maximum")
        return problems

    return check


def _spec_types(path):
    """mu and the type tables of a spec file, paired with the built-in replies.

    The spec files keep the built-in types' u2 tables, so each type's best
    reply to the identity is the built-in one.
    """
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tables = [spec[k] for k in ("game_2I", "game_2II")]
    return spec["mu"], tuple(((t["u1"], t["u2"]), reply) for t, (_, reply) in zip(tables, BAYES_TYPES))


def _check_exit_2(code, out, err):
    if code != 2 or "Traceback" in err:
        return [f"malformed spec: exit code {code}, expected 2 without a traceback"]
    return []


def _check_mixed(code, out, err):
    obj = _json_out(code, out)
    if any(abs(x + 4.0) > 1e-12 for x in obj["average_payoffs"]):
        return ["mixed-demo: average payoffs are not (-4, -4)"]
    return []


def _check_qutrit(code, out, err):
    obj = _json_out(code, out)
    problems = []
    if abs(obj["beta"] - 2 * math.pi / 9) > 1e-12:
        problems.append("qutrit: beta is not 2*pi/9")
    amps = np.array([complex(*z) for z in obj["amplitudes_of_J00"]])
    nonzero = amps[[0, 4, 8]]
    if np.abs(np.abs(nonzero) - 1 / math.sqrt(3)).max() > 1e-12:
        problems.append("qutrit: amplitudes are not 1/sqrt(3)")
    if np.abs(amps - ref.qutrit_amplitudes(obj["beta"])).max() > 1e-12:
        problems.append("qutrit: amplitudes differ from exp(i beta Z)|00>")
    return problems


def _check_verify(code, out, err):
    obj = _json_out(code, out)
    if not obj["all_passed"] or not all(c["passed"] for c in obj["checks"]):
        return ["verify: not all checks passed"]
    return []


def _angle_triple(rng, theta_lo=0.0, theta_hi=math.pi):
    return [rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(theta_lo, theta_hi)]


def _arg(triple):
    return ",".join(repr(float(x)) for x in triple)


def make_cli(seed: int) -> list[CliOp]:
    rng = np.random.default_rng([seed, sum(map(ord, "cli-cold"))])
    game = ("prisoner_dilemma", "da_brother")[int(rng.integers(2))]
    family = ("j1", "j2")[int(rng.integers(2))]
    beta = float(rng.uniform(0, HALF_PI))
    g1, g2 = _angle_triple(rng), _angle_triple(rng)
    search_beta = float(rng.uniform(0.70, 1.05))
    mixed_p1 = _angle_triple(rng, 0.3, math.pi - 0.3)
    return [
        CliOp(
            ["payoff", "--game", game, "--entangler", family, "--beta", repr(beta), "--p1", _arg(g1), "--p2", _arg(g2)],
            _check_payoff(family, beta, game, g1, g2),
        ),
        CliOp(
            ["search-ne", "--game", "da_brother", "--beta", repr(search_beta), "--mesh", ",".join(map(str, TINY))],
            _check_search_ne(search_beta, TINY),
        ),
        CliOp(["bayes", "--mu", "0.1"], _check_bayes(0.1)),
        CliOp(["bayes", "--mu", "0.5"], _check_bayes(0.5)),
        CliOp(["bayes", "--spec", SPEC_CONST], _check_bayes(*_spec_types(SPEC_CONST)), known_fault=True),
        CliOp(["bayes", "--spec", SPEC_BAD_KEY], _check_exit_2, known_fault=True),
        CliOp(["mixed-demo", "--p1", _arg(mixed_p1)], _check_mixed),
        CliOp(["qutrit-entangler", "--find-max"], _check_qutrit),
        CliOp(["verify", "--seed", str(seed)], _check_verify),
    ]
