"""Command line interface.

All angles are radians. Output is deterministic: the same configuration
and seed produce byte-identical output. Exit codes: 0 success, 1 a
verification or internal invariant failure, 2 malformed usage or input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bayes import BayesSpec, bayes_ne_check
from .entanglers import EntanglerSpec, build_entangler
from .games import (
    CLOSED_FORMS,
    PRISONER_DILEMMA,
    _check_object,
    _read_json,
    _table_from_obj,
    final_state,
    mixed_payoff,
    MixedStrategy,
    payoffs,
    resolve_game,
)
from .mesh import MeshSpec
from .qutrits import entangled_initial_state, max_entangling_beta
from .search import find_pure_ne, mixed_cycle, sweep_beta, threshold_beta
from .strategies import StrategyAngles
from . import verify as verify_mod


def _parse_angles(text: str) -> StrategyAngles:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'phi,alpha,theta', got {text!r}")
    return StrategyAngles(*(float(p) for p in parts))


# Largest mesh a command accepts; it bounds the mesh, not the listed pairs. A
# search holds about 1.2 kB per strategy and its time grows as N^2: a (9, 81, 81)
# mesh, 45929 strategies, took 55 MB and 2.4 s on 2 cores, so this size means
# about 120 MB and 12 s per search that lists few pairs. A flat table lists every
# pair: 1404225 on (9, 13, 13), where search-ne took 9.6 s and 893 MB on 2 cores.
MAX_MESH_STRATEGIES = 100_000


def _parse_mesh(text: str) -> MeshSpec:
    """A MeshSpec from 'Ntheta,Nphi,Nalpha', refused before any allocation when over budget."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'Ntheta,Nphi,Nalpha', got {text!r}")
    mesh = MeshSpec(*(int(p) for p in parts))
    if mesh.n_strategies > MAX_MESH_STRATEGIES:
        raise ValueError(
            f"mesh {text} has {mesh.n_strategies} strategies, "
            f"more than the {MAX_MESH_STRATEGIES} allowed"
        )
    return mesh


# Largest --beta-steps sweep-beta accepts. A sweep runs one search per step:
# on the default (9, 17, 17) mesh a step took about 10 ms on 2 cores, so this
# many steps take about 100 s.
MAX_BETA_STEPS = 10_000


def _entangler_spec(args) -> EntanglerSpec:
    family = {"j1": "j1", "j2": "j2", "none": "identity"}[args.entangler]
    return EntanglerSpec(family, args.beta)  # --beta is checked for every family


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_payoff(args) -> int:
    game = resolve_game(args.game)
    spec = _entangler_spec(args)
    g1 = _parse_angles(args.p1)
    g2 = _parse_angles(args.p2)
    amps = final_state(build_entangler(spec), g1, g2)
    pay = payoffs(amps, game)
    _emit(
        {
            "game": game.name,
            "entangler": args.entangler,
            "beta": spec.beta,
            "p1_angles": list(g1.as_tuple()),
            "p2_angles": list(g2.as_tuple()),
            "sq_amplitudes": [float(x) for x in np.abs(amps) ** 2],
            "payoffs": [pay.p1, pay.p2],
        }
    )
    return 0


def cmd_search_ne(args) -> int:
    game = resolve_game(args.game)
    spec = _entangler_spec(args)
    mesh = _parse_mesh(args.mesh)
    result = find_pure_ne(game, spec, mesh)
    _emit(
        {
            "game": game.name,
            "entangler": args.entangler,
            "beta": spec.beta,
            "mesh": [mesh.n_theta, mesh.n_phi, mesh.n_alpha],
            "found": result.found,
            "pairs": [[i1, i2, pay.p1, pay.p2] for i1, i2, pay in result.pairs],
        }
    )
    return 0


def cmd_sweep_beta(args) -> int:
    game = resolve_game(args.game)
    mesh = _parse_mesh(args.mesh)
    if not 1 <= args.beta_steps <= MAX_BETA_STEPS:
        raise ValueError(f"--beta-steps {args.beta_steps} is outside 1..{MAX_BETA_STEPS}")
    betas = np.linspace(args.beta_min, args.beta_max, args.beta_steps)
    results = sweep_beta(game, "j1", mesh, betas)
    fields = ("beta", "found", "i1", "i2", "p1", "p2")
    rows = []
    for r in results:
        i1, i2, (p1, p2) = r.first_pair or (None, None, (None, None))
        rows.append(dict(zip(fields, (r.beta, r.found, i1, i2, p1, p2))))
    beta_c = threshold_beta(results)
    if args.format == "json":
        _emit({"game": game.name, "rows": rows, "beta_c": beta_c})
    else:
        print(",".join(fields))
        for row in rows:
            beta, found, i1, i2, p1, p2 = row.values()
            if found:
                print(f"{_fmt(beta)},true,{i1},{i2},{_fmt(p1)},{_fmt(p2)}")
            else:
                print(f"{_fmt(beta)},false,,,,")
        print(f"# beta_c = {_fmt(beta_c) if beta_c is not None else 'none'}")
    return 0


def _load_bayes_spec(path: str, mu) -> BayesSpec:
    """A BayesSpec from a JSON file {mu, game_2I, game_2II}; mu overrides the file's,
    which must still pass BayesSpec's rule.
    """
    obj = _read_json(path)
    _check_object(obj, path, ("game_2I", "game_2II"), ("mu",))
    tables = {key: _table_from_obj(obj[key], f"{path}: {key}") for key in ("game_2I", "game_2II")}
    if obj.get("mu") is not None:
        try:
            spec = BayesSpec(obj["mu"], **tables)
        except ValueError as exc:
            raise ValueError(f"{path}: field 'mu' must be a number in [0, 1]: {exc}") from None
        mu = spec.mu if mu is None else mu
    if mu is None:
        raise ValueError("mu must come from --mu or the --spec file")
    return BayesSpec(mu, **tables)


def cmd_bayes(args) -> int:
    if args.spec is not None:
        spec = _load_bayes_spec(args.spec, args.mu)
    elif args.mu is None:
        raise ValueError("--mu is required")
    else:
        spec = BayesSpec(args.mu)
    mesh = _parse_mesh(args.mesh)
    verdict = bayes_ne_check(spec.mu, mesh, spec)
    _emit(
        {
            "mu": spec.mu,
            "verdict": verdict.verdict,
            "origin_p1": verdict.origin_p1,
            "max_p1": verdict.max_p1,
            "argmax_angles": list(verdict.argmax.as_tuple()),
            "margin": verdict.margin,
        }
    )
    return 0


def cmd_mixed_demo(args) -> int:
    g1 = _parse_angles(args.p1)
    g2, g1p, g2p = mixed_cycle(g1)
    j = build_entangler(CLOSED_FORMS["psi_plus"])
    m1 = MixedStrategy.uniform([g1, g1p])
    m2 = MixedStrategy.uniform([g2, g2p])
    pay = mixed_payoff(m1, m2, j, PRISONER_DILEMMA)
    _emit(
        {
            "g1": list(g1.as_tuple()),
            "g2": list(g2.as_tuple()),
            "g1_prime": list(g1p.as_tuple()),
            "g2_prime": list(g2p.as_tuple()),
            "average_payoffs": [pay.p1, pay.p2],
        }
    )
    return 0


def cmd_qutrit(args) -> int:
    if (args.beta is None) != args.find_max:
        raise ValueError("give exactly one of --beta and --find-max")
    beta = max_entangling_beta() if args.find_max else args.beta
    amps = entangled_initial_state(beta)
    a, b = amps[0], amps[4]
    _emit(
        {
            "beta": beta,
            "a": [a.real, a.imag],
            "b": [b.real, b.imag],
            "amplitudes_of_J00": [[z.real, z.imag] for z in amps],
            "is_max_entangled": bool(abs(abs(a) - abs(b)) < 1e-9),
        }
    )
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=args.seed)
    ok = all(r["passed"] for r in results)
    _emit({"seed": args.seed, "checks": results, "all_passed": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, game=True, entangler=True, mesh=False):
        if game:
            p.add_argument(
                "--game",
                required=True,
                help="built-in name (prisoner_dilemma, da_brother) or JSON path",
            )
        if entangler:
            p.add_argument("--entangler", choices=["j1", "j2", "none"], default="j1")
            p.add_argument("--beta", type=float, default=math.pi / 2)
        if mesh:
            p.add_argument("--mesh", default="9,17,17", help="Ntheta,Nphi,Nalpha")

    p = sub.add_parser("payoff", help="payoffs of one strategy pair")
    add_common(p)
    p.add_argument("--p1", required=True, help="phi,alpha,theta (radians)")
    p.add_argument("--p2", required=True, help="phi,alpha,theta (radians)")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("search-ne", help="pure Nash equilibrium mesh search")
    add_common(p, mesh=True)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_search_ne)

    p = sub.add_parser("sweep-beta", help="equilibrium existence along a beta grid")
    add_common(p, entangler=False, mesh=True)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=math.pi / 2)
    p.add_argument("--beta-steps", type=int, default=32)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("bayes", help="Bayesian equilibrium verdict for a type weight mu")
    p.add_argument("--mu", type=float)
    p.add_argument("--mesh", default="9,17,17")
    p.add_argument("--spec", help="JSON file {mu, game_2I, game_2II}")
    p.set_defaults(func=cmd_bayes)

    p = sub.add_parser("mixed-demo", help="best-response cycle and 50/50 mixed payoffs")
    p.add_argument(
        "--p1",
        default=f"0,0,{math.pi / 2}",
        help="seed strategy phi,alpha,theta",
    )
    p.set_defaults(func=cmd_mixed_demo)

    p = sub.add_parser("qutrit-entangler", help="two-qutrit entangler coefficients")
    p.add_argument("--beta", type=float)
    p.add_argument("--find-max", action="store_true")
    p.set_defaults(func=cmd_qutrit)

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
