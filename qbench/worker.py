"""Runs benchmark operations against qgame in a fresh interpreter.

Three modes, all started by run.py with the thread caps in the environment:

  worker.py setup
      Imports qgame, completes one tiny search and prints the environment
      (backend, Python, numpy and BLAS versions) as JSON.

  worker.py ops
      Reads a job (JSON on stdin): the operation list of one round, the
      seconds to spend, whether to trace, the probe operations and the
      untimed check calls. Prints one JSON result on stdout.

  worker.py cli SPANS_FILE ARGV...
      Runs qgame.cli.main(ARGV) with tracing installed and writes the
      spans and the import time to SPANS_FILE; the exit code and the
      standard streams are the CLI's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

T_START = time.perf_counter()
import qgame  # noqa: E402  (the import is what is timed)
from qgame import cli  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

from tracing import Tracer  # noqa: E402

WARM_UP = {"fn": "find_pure_ne", "game": "da_brother", "family": "j1", "beta": 1.0, "mesh": [3, 5, 5]}


def _game(spec):
    if isinstance(spec, str):
        return {"da_brother": qgame.DA_BROTHER, "prisoner_dilemma": qgame.PRISONER_DILEMMA}[spec]
    return qgame.GameTable(name=spec["name"], u1=spec["u1"], u2=spec["u2"])


def _angles(triple):
    return qgame.StrategyAngles(*triple)


def call(op):
    """Run one operation; every name is looked up on qgame at call time."""
    fn = op["fn"]
    if fn == "find_pure_ne":
        return qgame.find_pure_ne(
            _game(op["game"]), qgame.EntanglerSpec(op["family"], op["beta"]), qgame.MeshSpec(*op["mesh"])
        )
    if fn == "best_response_table":
        return qgame.best_response_table(
            _game(op["game"]),
            qgame.EntanglerSpec(op["family"], op["beta"]),
            qgame.MeshSpec(*op["mesh"]),
            op["responder"],
        )
    if fn == "sweep":
        results = qgame.sweep_beta(_game(op["game"]), "j1", qgame.MeshSpec(*op["mesh"]), op["betas"])
        return results, qgame.threshold_beta(results)
    if fn == "final_state":
        j = qgame.build_entangler(qgame.EntanglerSpec(op["family"], op["beta"]))
        return qgame.payoffs(qgame.final_state(j, _angles(op["p1"]), _angles(op["p2"])), _game(op["game"]))
    if fn == "bayes_ne_check":
        return qgame.bayes_ne_check(op["mu"], qgame.MeshSpec(*op["mesh"]))
    if fn == "max_entangling_beta":
        return qgame.max_entangling_beta()
    if fn == "run_all":
        return qgame.verify.run_all(seed=op["seed"])
    if fn == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op["argv"])
        return code, out.getvalue()
    raise ValueError(f"unknown operation {fn!r}")


def encode(op, result):
    """JSON-ready form of an operation's result, made outside the timed region."""
    fn = op["fn"]
    if fn == "find_pure_ne":
        return {"found": result.found, "pairs": [[i, j, p.p1, p.p2] for i, j, p in result.pairs]}
    if fn == "best_response_table":
        return [sorted(s) for s in result]
    if fn == "sweep":
        results, beta_c = result
        rows = [
            {"beta": r.beta, "found": r.found, "first": list(r.first_pair[:2]) + list(r.first_pair[2]) if r.found else None}
            for r in results
        ]
        return {"rows": rows, "beta_c": beta_c}
    raise ValueError(f"no encoding for {fn!r}")


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds of `ops`, closed loop, ending as near to `seconds` as whole rounds allow.

    Another round starts while the run would end nearer to `seconds` with it
    than without it, judged by the last round's length.
    Returns per-round wall times, per-op times and each round's encoded
    outputs. With a tracer, every op gets an id (round, position).
    """
    walls, op_times, outputs = [], [], []
    started = time.perf_counter()
    while True:
        round_no = len(walls)
        times, results = [], []
        t_round = time.perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{round_no}:{k}"
            t0 = time.perf_counter()
            result = call(op)
            times.append(time.perf_counter() - t0)
            results.append(result)
        walls.append(time.perf_counter() - t_round)
        if tracer is not None:
            tracer.op = None
        op_times.append(times)
        outputs.append([encode(op, r) for op, r in zip(ops, results)])
        del results
        if time.perf_counter() - started + walls[-1] / 2 > seconds:
            return walls, op_times, outputs


def run_ops(job):
    ops = job["ops"]
    call(WARM_UP)  # lazy set-up is paid before timing
    out = {"import_s": IMPORT_S}
    if not job["trace"]:
        walls, op_times, outputs = run_rounds(ops, job["seconds"])
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        walls, op_times, outputs = run_rounds(ops, job["seconds"] / 2) if ops else ([], [], [])
        out["untraced_walls"] = walls
        tracer = Tracer()
        tracer.install()
        walls, op_times, outputs = run_rounds(ops, job["seconds"] / 2, tracer) if ops else ([], [], [])
        for k, op in enumerate(job["probe"]):
            tracer.op = f"probe:{k}"
            call(op)
        tracer.op = None
        out["spans"] = tracer.spans
    out["walls"] = walls
    out["op_times"] = op_times
    out["outputs"] = outputs[0] if outputs else []
    out["rounds_identical"] = all(o == outputs[0] for o in outputs)
    out["checks"] = [encode(op, call(op)) for op in job["checks"]]
    return out


def setup():
    call(WARM_UP)
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "import_s": IMPORT_S,
        "backend": "numba" if qgame._kernels.USE_NUMBA else "numpy",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_cli(spans_file, argv):
    tracer = Tracer()
    tracer.install()
    tracer.op = "cli"
    try:
        code = cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(json.dumps(setup()))
    elif sys.argv[1] == "ops":
        print(json.dumps(run_ops(json.load(sys.stdin))))
    elif sys.argv[1] == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
