#!/usr/bin/env python3
"""qgame benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a source checkout:

    python3 qbench/run.py --workload ne-search --seed 1 --seconds 28 --trace 0

Workloads: ne-search, operator-tables, beta-sweep, cli-cold (see README.md).
One process runs the operations, closed loop, one at a time, in whole
rounds of the workload's operation list, ending as near to --seconds as
whole rounds allow. --trace 0 prints the end-to-end metrics; --trace 1 prints the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import self_times

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ne-search", "operator-tables", "beta-sweep", "cli-cold")
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")


def child_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def timed_child(argv, env, out_path: Path):
    """Run one child to completion: (wall seconds, exit code, stdout, stderr, peak RSS in KiB)."""
    with open(out_path, "w+b") as out, open(out_path.with_suffix(".err"), "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def measure_setup(env, tmp: Path):
    """Median wall time of fresh interpreters that import qgame and finish a tiny search."""
    walls, info = [], None
    for _ in range(SETUP_REPEATS):
        wall, code, out, err, _ = timed_child([sys.executable, str(HERE / "worker.py"), "setup"], env, tmp / "setup.out")
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}:\n{err}")
        walls.append(wall)
        info = json.loads(out.splitlines()[-1])
    return statistics.median(walls), info


def scipy_import_s(env, tmp: Path) -> float:
    """Cumulative import time of the scipy subtrees under `import qgame`, from -X importtime."""
    samples = []
    for _ in range(SETUP_REPEATS):
        _, code, _, err, _ = timed_child([sys.executable, "-X", "importtime", "-c", "import qgame"], env, tmp / "imp.out")
        if code != 0:
            raise RuntimeError(f"import of qgame failed:\n{err}")
        total_us, stack = 0, []  # reversed lines list parents before their children
        for line in reversed([l for l in err.splitlines() if l.startswith("import time:") and "|" in l]):
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            level = (len(name) - 1 - len(name[1:].lstrip(" "))) // 2
            name = name.strip()
            while stack and stack[-1][0] >= level:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                total_us += int(cumulative)
            stack.append((level, name))
        samples.append(total_us / 1e6)
    return statistics.median(samples)


# ------------------------------------------------------------ in-process workloads


def run_worker(job, env):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "ops"],
        input=json.dumps(job), capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def op_pairs(op) -> int:
    """Strategy pairs an operation resolves: N^2 per search or table, whatever the kernel evaluates."""
    n2 = workloads.n_strategies(op["mesh"]) ** 2
    return n2 * len(op["betas"]) if op["fn"] == "sweep" else n2


def api_workload(name, seed, seconds, trace, env):
    wl = workloads.make(name, seed)
    job = {"ops": wl.ops, "seconds": seconds, "trace": trace, "probe": workloads.PROBE, "checks": wl.checks}
    res = run_worker(job, env)
    rounds = len(res["walls"])
    problems = [] if res["rounds_identical"] else ["outputs differ between rounds"]
    failed_ops = 0
    for op, out in zip(wl.ops, res["outputs"]):
        found = workloads.check_op(wl, op, out)
        failed_ops += bool(found)
        problems += found
    for op, out in zip(wl.checks, res["checks"]):
        problems += workloads.check_brute_force(op, out)
    times = [t for r in res["op_times"] for t in r]
    result = {
        "attempted": rounds * len(wl.ops),
        "failed": rounds * failed_ops,
        "problems": problems,
        "rounds": rounds,
    }
    if not trace:
        per_round_pairs = sum(op_pairs(op) for op in wl.ops)
        result["metrics"] = {
            "wall_s": statistics.median(res["walls"]),
            "op_p50_s": statistics.median(times),
            "pairs_per_s": per_round_pairs * rounds / sum(times),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
    else:
        records = flatten(res["spans"])
        result["layers"] = layer_metrics(records, res["walls"], res["untraced_walls"], [res["import_s"]])
    return result


# ------------------------------------------------------------ cli-cold


def cli_rounds(ops, seconds, env, tmp, traced):
    """Fresh CLI processes, one at a time, in whole rounds (the worker's round rule)."""
    walls, runs = [], []
    started = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        this_round = []
        for k, op in enumerate(ops):
            spans_file = tmp / f"spans-{len(walls)}-{k}.json"
            if traced:
                argv = [sys.executable, str(HERE / "worker.py"), "cli", str(spans_file)] + op.argv
            else:
                argv = [sys.executable, "-m", "qgame.cli"] + op.argv
            wall, code, out, err, rss = timed_child(argv, env, tmp / "cli.out")
            this_round.append({"wall": wall, "code": code, "out": out, "err": err, "rss_kb": rss, "spans": spans_file})
        walls.append(time.perf_counter() - t_round)
        runs.append(this_round)
        if time.perf_counter() - started + walls[-1] / 2 > seconds:
            return walls, runs


def cli_workload(seed, seconds, trace, env, tmp):
    ops = workloads.make_cli(seed)
    budget = seconds / 2 if trace else seconds
    walls, runs = cli_rounds(ops, budget, env, tmp, traced=False)
    problems, known, failed = [], set(), 0
    for this_round in runs:
        for op, run in zip(ops, this_round):
            try:
                found = op.check(run["code"], run["out"], run["err"])
            except (ValueError, KeyError, TypeError) as exc:
                found = [f"{op.argv[0]}: unreadable output ({exc})"]
            failed += bool(found)
            if op.known_fault:
                known.update(found)
            else:
                problems += found
    result = {"attempted": len(runs) * len(ops), "failed": failed, "problems": problems, "rounds": len(runs)}
    result["known_faults"] = sorted(known)
    if not trace:
        search = [run["wall"] for r in runs for op, run in zip(ops, r) if op.argv[0] == "search-ne"]
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(run["wall"] for r in runs for run in r),
            "pairs_per_s": workloads.n_strategies(workloads.TINY) ** 2 * len(search) / sum(search),
            "peak_rss_mb": max(run["rss_kb"] for r in runs for run in r) / 1024,
        }
        return result
    traced_walls, traced_runs = cli_rounds(ops, seconds / 2, env, tmp, traced=True)
    records, imports = [], []
    for round_no, this_round in enumerate(traced_runs):
        for k, run in enumerate(this_round):
            with open(run["spans"], encoding="utf-8") as fh:
                dump = json.load(fh)
            imports.append(dump["import_s"])
            for span in dump["spans"]:
                span["op"] = f"{round_no}:{k}"
            records += flatten(dump["spans"])
    probe = run_worker({"ops": [], "seconds": 0, "trace": True, "probe": workloads.PROBE, "checks": []}, env)
    records += flatten(probe["spans"])
    result["layers"] = layer_metrics(records, traced_walls, walls, imports)
    return result


# ------------------------------------------------------------ per-layer metrics


def flatten(spans):
    """Span records with self time, round ('probe' for the probe) and sweep ancestry."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    records = []
    for s in spans:
        if s["op"] is None:
            continue
        in_sweep, parent = False, s["parent"]
        while parent is not None:
            in_sweep |= by_id[parent]["name"] == "search.sweep_beta"
            parent = by_id[parent]["parent"]
        records.append(
            {
                "name": s["name"],
                "round": s["op"].split(":")[0],
                "dur": s["end"] - s["start"],
                "self": selfs[s["id"]],
                "count": s.get("count", 0),
                "in_sweep": in_sweep,
            }
        )
    return records


def _source(records, match):
    """Records of the workload's own rounds where they reach `match`, else the probe's."""
    own = [r for r in records if r["round"] != "probe" and match(r)]
    return own or [r for r in records if r["round"] == "probe" and match(r)]


def _per_round(records, match, value):
    """Median over rounds of the per-round sum of value(record)."""
    rows = _source(records, match)
    sums = {}
    for r in rows:
        sums[r["round"]] = sums.get(r["round"], 0.0) + value(r)
    return statistics.median(sums.values()) if sums else 0.0


def _rate(records, names):
    rows = _source(records, lambda r: r["name"] in names)
    dur = sum(r["dur"] for r in rows)
    return sum(r["count"] for r in rows) / dur if dur else 0.0


def layer_metrics(records, traced_walls, untraced_walls, import_samples):
    def dur(name):
        return _per_round(records, lambda r: r["name"] == name, lambda r: r["dur"])

    def self_(name):
        return _per_round(records, lambda r: r["name"] == name, lambda r: r["self"])

    def count(name):
        return _per_round(records, lambda r: r["name"] == name, lambda r: r["count"])

    sweeps = _source(records, lambda r: r["name"] == "search.sweep_beta")
    sweep_searches = _source(records, lambda r: r["name"] == "search.find_pure_ne" and r["in_sweep"])
    tables = ("kernels.payoff_tables", "kernels.payoff_tables_matrix")
    table_rows = _source(records, lambda r: r["name"] in tables)
    return {
        "import.qgame_s": (statistics.median(import_samples), "s"),
        "cli.main_self_s": (_per_round(records, lambda r: r["name"].startswith("cli."), lambda r: r["self"]), "s"),
        "search.find_pure_ne_self_s": (self_("search.find_pure_ne"), "s"),
        "search.best_response_table_self_s": (self_("search.best_response_table"), "s"),
        "search.ne_pairs": (count("search.find_pure_ne"), "count"),
        "search.sweep_searches": (len(sweep_searches) / max(len(sweeps), 1), "count"),
        "mesh.mesh_angle_array_s": (dur("mesh.mesh_angle_array"), "s"),
        "mesh.strategies": (count("mesh.mesh_angle_array"), "count"),
        "entanglers.build_entangler_s": (dur("entanglers.build_entangler"), "s"),
        "kernels.pure_ne_pairs_s": (dur("kernels.pure_ne_pairs"), "s"),
        "kernels.pure_ne_pairs_rate": (_rate(records, ("kernels.pure_ne_pairs",)), "pairs/s"),
        "kernels.payoff_tables_s": (dur("kernels.payoff_tables"), "s"),
        "kernels.payoff_tables_matrix_s": (dur("kernels.payoff_tables_matrix"), "s"),
        "kernels.tables_rate": (_rate(records, tables), "pairs/s"),
        "kernels.tables_bytes_computed": (max((2 * r["count"] * 8 for r in table_rows), default=0), "bytes"),
        "games.final_state_s": (dur("games.final_state"), "s"),
        "bayes.bayes_ne_check_s": (dur("bayes.bayes_ne_check"), "s"),
        "qutrits.max_entangling_beta_s": (dur("qutrits.max_entangling_beta"), "s"),
        "verify.run_all_s": (dur("verify.run_all"), "s"),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
    }


# ------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qgame" / "__init__.py").is_file():
        print("error: run from the root of a qgame checkout (src/qgame not found)", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(root, nproc)
    tmp = root / ".bench_build" / "qbench"
    tmp.mkdir(parents=True, exist_ok=True)

    setup_s, info = measure_setup(env, tmp)
    env_block = dict(info, blas_threads=nproc, nproc=nproc, seed=args.seed, workload=args.workload)
    env_block.pop("import_s")
    print("env " + json.dumps(env_block))

    trace = bool(args.trace)
    if args.workload == "cli-cold":
        result = cli_workload(args.seed, args.seconds, trace, env, tmp)
    else:
        result = api_workload(args.workload, args.seed, args.seconds, trace, env)

    if trace:
        layers = result["layers"]
        layers["import.scipy_s"] = (scipy_import_s(env, tmp), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    else:
        units = {"wall_s": "s", "op_p50_s": "s", "pairs_per_s": "pairs/s", "peak_rss_mb": "MB"}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()})
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for fault in result.get("known_faults", []):
        print(f"known fault, counted as failed: {fault}")
    print(f"rounds {result['rounds']}, operations attempted {result['attempted']}, failed {result['failed']}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
