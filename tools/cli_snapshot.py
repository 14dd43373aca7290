"""Print the stdout and exit code of a fixed list of qgame CLI calls.

Run it on two trees and diff the outputs to check that a change leaves the
command line output as it was:

    python tools/cli_snapshot.py > after.txt
    python tools/cli_snapshot.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The first line names the host's numpy, BLAS and OpenBLAS core, since the
last digits of printed floats depend on the BLAS kernel. Every call runs in
this process through qgame.cli.main. The --spec and --game files are
written to a temporary directory, shown as <tmp> in the printed argv.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

TYPE_I = {"name": "bayes_type_I", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -1], [-10, -5]]}
TYPE_II = {"name": "bayes_type_II", "u1": [[0, -10], [-1, -5]], "u2": [[-2, -7], [-10, -11]]}
# player 1 gains more from mutual silence, so the identity survives larger mu
GENEROUS_I = {"name": "generous_I", "u1": [[3, -10], [-1, -5]], "u2": TYPE_I["u2"]}
GENEROUS_II = {"name": "generous_II", "u1": [[3, -10], [-1, -5]], "u2": TYPE_II["u2"]}

SPECS = {
    "builtin.json": {"mu": 0.1, "game_2I": TYPE_I, "game_2II": TYPE_II},
    "generous.json": {"mu": 0.3, "game_2I": GENEROUS_I, "game_2II": GENEROUS_II},
}
# JSON integers where qgame reads a float: the spec's mu and table entries
FILES = {
    **SPECS,
    "integer_mu.json": {"mu": 0, "game_2I": TYPE_I, "game_2II": TYPE_II},
    "mixed_table.json": {"name": "mixed_table", "u1": [[0, -10], [-1.5, -5]], "u2": [[-2, -1.5], [-10, -5.0]]},
}


def calls(tmp: str):
    """The argv lists, in the order they run."""
    for mesh in ("9,17,17", "5,9,11"):
        for mu in ("0", "0.1", "0.1666", "0.5", "1"):
            yield ["bayes", "--mu", mu, "--mesh", mesh]
    for name in SPECS:
        spec = os.path.join(tmp, name)
        yield ["bayes", "--spec", spec]
        yield ["bayes", "--spec", spec, "--mu", "0.5"]
        yield ["bayes", "--spec", spec, "--mu", "0.1", "--mesh", "5,9,11"]
    yield ["bayes", "--spec", os.path.join(tmp, "integer_mu.json")]
    for seed in ("0", "1", "3", "7"):
        yield ["verify", "--seed", seed]
    for p1 in ("0,0,1.5707963267948966", "0,0,0", "1.0,2.0,0.7"):
        yield ["mixed-demo", "--p1", p1]
    for game in ("prisoner_dilemma", "da_brother"):
        yield ["search-ne", "--game", game, "--entangler", "j1", "--beta", "0.5"]
        yield ["search-ne", "--game", game, "--entangler", "j2", "--beta", "1.0", "--mesh", "5,9,9"]
    yield ["search-ne", "--game", "da_brother", "--entangler", "none", "--mesh", "5,9,9"]
    yield ["search-ne", "--game", os.path.join(tmp, "mixed_table.json"), "--beta", "0.5", "--mesh", "5,9,9"]
    yield ["sweep-beta", "--game", "da_brother", "--mesh", "5,9,9", "--beta-steps", "12"]
    yield ["sweep-beta", "--game", "prisoner_dilemma", "--mesh", "5,9,9", "--beta-steps", "6", "--format", "json"]
    yield ["payoff", "--game", "prisoner_dilemma", "--p1", "0.3,1.2,0.8", "--p2", "2.0,0.1,2.5"]
    yield ["payoff", "--game", "da_brother", "--entangler", "j2", "--beta", "0.7", "--p1", "0,0,3.14", "--p2", "1,1,1"]
    yield ["qutrit-entangler", "--find-max"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    parser.add_argument("--src", default=default_src, help="the src directory holding the qgame package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from host_header import host_line
    from qgame import cli

    print(host_line(np))
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        for call in calls(tmp):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(call)
            print("$ qgame " + " ".join(call).replace(tmp, "<tmp>"))
            print(out.getvalue(), end="")
            print(f"[exit {code}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
