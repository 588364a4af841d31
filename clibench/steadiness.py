"""Steadiness report: do two sets of runs of the same code agree?

Run from the root of a checkout::

    python3 clibench/steadiness.py                     # 2 sets x 10 seeds, every workload
    python3 clibench/steadiness.py --runs 5 --workload cold-fig4a

It makes two sets of runs of the same code.  Each set runs
``clibench/run.py --trace 0`` once per seed on every chosen workload, one
run at a time, with ``run_seconds`` from BENCHMARK.json.  Each set takes
its own ``--runs`` seeds, counting up from ``--first-seed``.  For each
workload and end-to-end metric it prints both sets' medians and
quartiles, their spreads (interquartile distance over the median), the
gap of the second set's median against the first's, and the metric's
bound:

- ``spread``: must stay within the bound; the target is a third of the
  bound.  A ``setup_s`` spread over its bound is shown but does not fail
  the report: ``setup_s`` is one set-up run per invocation, and its
  spread is judged only through the gap.
- ``gap``: the two sets must agree, so the gap may not exceed the bound
  in either direction.

A later change whose gap on a metric is within this noise reports that
metric as unresolved, not unchanged.  Raw results, with each invocation's
metric lines, are written as JSON to ``--out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    took = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
    result["exit_code"] = proc.returncode
    result["took_s"] = took
    # The metric lines above the result also give the times as measured.
    result["report"] = proc.stdout.strip().splitlines()[:-1]
    return result


SETS = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(".clibench_work", "steadiness.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for index in range(SETS):
        first = args.first_seed + index * args.runs
        for workload in workloads:
            for seed in range(first, first + args.runs):
                result = run_once(workload, seed, spec["run_seconds"])
                results[workload][index].append(result)
                print("set %d %-14s seed %-3d %s in %.1f s" % (
                    index + 1, workload, seed,
                    "ok" if result["correct"] and result["exit_code"] == 0 else "FAILED",
                    result["took_s"]), file=sys.stderr, flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=1)

    header = "%-14s %-13s %-6s" % ("workload", "metric", "bound")
    for index in range(SETS):
        header += "  set%d median [q1, q3] spread" % (index + 1)
    header += "  gap     verdict"
    print(header)
    all_ok = True
    for workload in workloads:
        sets = results[workload]
        attempted = sum(r["attempted"] for s in sets for r in s)
        failed = sum(r["failed"] for s in sets for r in s)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = "%-14s %-13s %-6.3g" % (workload, name, bound)
            medians, verdicts = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                if len(values) < 2:
                    line += "  %-34s" % "too few runs"
                    verdicts.append("too few runs")
                    continue
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                line += "  %10.4f [%.4f, %.4f] %5.1f%%" % (median, q1, q3, 100 * spread)
                if spread > bound:
                    verdicts.append("spread over bound" + (
                        " (not gated)" if name == "setup_s" else ""))
                elif spread > bound / 3:
                    verdicts.append("spread over bound/3")
            if len(medians) == SETS:
                gap = (medians[1] - medians[0]) / medians[0]
                line += "  %+6.1f%%" % (100 * gap)
                if abs(gap) > bound:
                    verdicts.append("gap over bound")
            else:
                line += "  %7s" % "-"
            failing = [v for v in verdicts
                       if v not in ("spread over bound/3",
                                    "spread over bound (not gated)")]
            all_ok = all_ok and not failing
            print(line + "  " + (", ".join(verdicts) or "ok"))
        print("%-14s attempted %d, failed %d" % (workload, attempted, failed))
        all_ok = all_ok and failed == 0
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
