"""Workload process: imports frobcirc.cli, then runs rounds of CLI queries.

Started by run.py with `src` on PYTHONPATH.  It writes "ready" as soon as
frobcirc.cli is imported (run.py times that as the set-up), reads one job as
JSON from stdin, and writes one JSON result to stdout.  Queries run one after
another in this process and thread, each as frobcirc.cli.main(argv, out=buf)
with stderr captured, so the load is a closed loop of one client.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def run_round(cli_main, queries):
    """One pass over the queries: per-query seconds and (exit code, stdout,
    stderr) of each; an exception counts as exit code None."""
    times, results = [], []
    for argv in queries:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli_main(argv, out=out)
        except (Exception, SystemExit):
            rc = None
            err.write(traceback.format_exc())
        times.append(perf_counter() - t0)
        results.append((rc, out.getvalue(), err.getvalue()))
    return times, results


def checked_round(cli, queries, reference, mismatches):
    """One round; the first round's outputs are the reference for later ones."""
    times, results = run_round(cli.main, queries)
    if not reference:
        reference.extend(results)
    for argv, want, got in zip(queries, reference, results):
        if want != got:
            mismatches.append(" ".join(argv))
    return {"times": times, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced_round(cli, queries, reference, mismatches, tracer):
    tracer.reset()
    wrapped = tracer.install()
    try:
        entry = checked_round(cli, queries, reference, mismatches)
    finally:
        tracer.uninstall()
    entry["trace"] = tracer.snapshot()
    entry["trace_problems"] = tracer.problems
    entry["wrapped"] = wrapped
    return entry


def main():
    cli = importlib.import_module("frobcirc.cli")  # the set-up being timed
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    job = json.loads(sys.stdin.readline())
    queries, seconds, trace = job["queries"], job["seconds"], job["trace"]
    reference, mismatches, rounds, traced = [], [], [], []
    start = perf_counter()
    if trace:
        sys.dont_write_bytecode = True  # keep the benchmark's own directory clean
        from tracer import Tracer

        tracer = Tracer()
        # a warm-up round, so that one-time costs fall on neither side of
        # the traced-untraced comparison
        checked_round(cli, queries, reference, mismatches)
    # whole rounds, at least one, while the next, as long as the last, would
    # end within `seconds`; traced runs alternate untraced and traced rounds
    # so that both sides see the same machine
    while True:
        begun = perf_counter()
        rounds.append(checked_round(cli, queries, reference, mismatches))
        if trace:
            traced.append(traced_round(cli, queries, reference, mismatches, tracer))
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            break
    result = {
        "frobcirc_file": cli.__file__,
        "backend": cli._kernels.BACKEND,
        "warmup_rounds": int(trace),
        "rounds": rounds,
        "traced_rounds": traced,
        "results": reference,
        "mismatches": sorted(set(mismatches)),
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
