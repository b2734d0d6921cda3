"""frobcirc benchmark: one workload of in-process CLI queries, checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 40 --trace 0

The workload (see workloads.py) is a seeded list of `frobcirc` argv lists.  A
fresh worker process imports frobcirc.cli from `src/` (the set-up, timed from
the process's start) and runs the list as whole rounds, query after query,
for about --seconds.  Every output is then checked against a computation
made apart from the program (checks.py).

With --trace 0 the last line of stdout holds the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 the worker makes one warm-up round, then
alternates untraced and traced rounds (tracer.py), and the line holds the
per-layer metrics instead.  Results and the full trace go to .perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
TIME_LIMIT_S = 170  # a run must end within 180 s


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def start_worker(root: str):
    """Spawn the worker and wait until it has imported frobcirc.cli;
    returns the process and the set-up time in seconds."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    ready = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if ready != "ready\n":
        proc.kill()
        proc.wait()
        raise RuntimeError("the worker could not import frobcirc.cli")
    return proc, setup_s


def run_worker(proc, job: dict, timeout: float) -> dict:
    try:
        out, _ = proc.communicate(json.dumps(job) + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"the worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"the worker exited with code {proc.returncode}")
    return json.loads(out)


def round_wall(entry) -> float:
    return sum(entry["times"])


def best_times(rounds: list) -> list:
    """Each query's fastest time over the rounds of one run.  The shared
    machine's speed drifts by up to 25 % while a run lasts; a query's best
    time is its cost at the machine's fastest, which the drift does not
    raise."""
    return [min(column) for column in zip(*(entry["times"] for entry in rounds))]


def trace_summary(result: dict) -> dict:
    """Median over the traced rounds of every recorded counter, plus
    trace.overhead_s: traced minus untraced wall_s."""
    traced = result["traced_rounds"]
    names = sorted({k for entry in traced for k in entry["trace"]})
    summary = {k: statistics.median(e["trace"].get(k, 0) for e in traced) for k in names}
    summary["trace.overhead_s"] = sum(best_times(traced)) - sum(best_times(result["rounds"]))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "frobcirc", "cli.py")):
        return fail("run from the root of a frobcirc checkout: src/frobcirc/cli.py not found")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    queries = workloads.make_round(args.workload, args.seed)
    job = {"queries": queries, "seconds": args.seconds, "trace": bool(args.trace)}
    try:
        proc, setup_s = start_worker(root)
        result = run_worker(proc, job, TIME_LIMIT_S - (perf_counter() - started))
    except (OSError, RuntimeError) as exc:
        return fail(str(exc))
    if not os.path.realpath(result["frobcirc_file"]).startswith(os.path.realpath(root)):
        return fail(f"frobcirc was imported from {result['frobcirc_file']}, not this checkout")

    reference = result["results"]
    failed_once = [i for i, (rc, _, _) in enumerate(reference) if rc != 0]
    rounds = result["warmup_rounds"] + len(result["rounds"]) + len(result["traced_rounds"])
    attempted = len(queries) * rounds
    failed = len(failed_once) * rounds

    ok = [i for i in range(len(queries)) if i not in failed_once]
    problems = checks.check_round([queries[i] for i in ok], [reference[i] for i in ok])
    problems += [f"{q}: output changed between rounds" for q in result["mismatches"]]
    for entry in result["traced_rounds"]:
        problems += entry["trace_problems"]

    if args.trace:
        summary = trace_summary(result)
        metrics = {}
        for m in spec["per_layer"]:
            value = summary.get(m["name"], 0)
            if m["unit"] == "count" and value == int(value):
                value = int(value)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        best = best_times(result["rounds"])
        values = {
            "setup_s": setup_s,
            "wall_s": sum(best),
            "query_p50_ms": statistics.median(best) * 1e3,
            # one pass from a fresh process; later rounds only add heap
            # fragmentation that grows with the number of rounds
            "peak_rss_mb": result["rounds"][0]["maxrss_kb"] * 1024 / 1e6,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    line = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(line, round_walls=[round_wall(e) for e in result["rounds"]],
                  round_maxrss_kb=[e["maxrss_kb"] for e in result["rounds"]], queries=len(queries),
                  backend=result["backend"], problems=problems[:50],
                  failed_queries=[" ".join(queries[i]) for i in failed_once])
    if args.trace:
        record["traced_round_walls"] = [round_wall(e) for e in result["traced_rounds"]]
        record["wrapped_functions"] = result["traced_rounds"][0]["wrapped"]
        record["trace"] = summary
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
