#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, and the perf trajectory.

    perf_pairs.py --parent DIR --change DIR --workload W [--seed 2004]
                  [--seconds 30] [--pairs 5]
                  [--append ci/perf_trajectory.tsv --pr N --base COMMIT]

Runs `python3 perfbench/run.py` in two checkouts, alternating which side
runs first (parent first in pairs 1, 3, 5, ...), and prints per metric
the median [quartiles] of each side and the number of pairs in which the
change was better. With --append it adds one `parent` and one `change`
line for `run_per_ref` to the trajectory file, which is append-only: one
block per change, so that drift below the benchmark's bound still shows
across changes. `--base` names the parent commit the pairs measured; the
`change` line is the commit made on top of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HOST_METRICS = ("run_per_ref", "setup_s", "peak_rss_mb")
TRAJECTORY_HEADER = "pr\tbase\tside\tworkload\tseed\truns\tmedian\tq1\tq3\n"


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns its parsed JSON result."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"perf_pairs.py: no output from {checkout}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    """Median and inclusive quartiles, as CHANGES.md reports them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def better(name, parent, change, directions):
    lower = directions.get(name, "lower") == "lower"
    return sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2004)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--append", help="trajectory file to extend")
    ap.add_argument("--pr", type=int)
    ap.add_argument("--base", help="parent commit of the measured change")
    args = ap.parse_args()
    if args.append and (args.pr is None or not args.base):
        ap.error("--append needs --pr and --base")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, args.seed,
                                       args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    bench = os.path.join(args.change, "BENCHMARK.json")
    with open(bench, encoding="utf-8") as fh:
        declared = json.load(fh)
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    for side, results in runs.items():
        bad = [r for r in results if not r.get("correct") or r.get("failed")]
        if bad:
            print(f"{side}: {len(bad)} run(s) failed their correctness gate")
    for name in directions:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        same = " (identical in every pair)" if p == c else ""
        print(f"{name}: {pm:.6g} [{pq1:.6g}, {pq3:.6g}] -> "
              f"{cm:.6g} [{cq1:.6g}, {cq3:.6g}] ({delta:+.2f} %, change "
              f"better in {better(name, p, c, directions)}/{len(p)}){same}")

    if args.append:
        new_file = not os.path.exists(args.append)
        with open(args.append, "a", encoding="utf-8") as fh:
            if new_file:
                fh.write(TRAJECTORY_HEADER)
            for side, results in runs.items():
                med, q1, q3 = quartiles(
                    [r["metrics"]["run_per_ref"]["value"] for r in results])
                fh.write(f"{args.pr}\t{args.base}\t{side}\t{args.workload}\t"
                         f"{args.seed}\t{len(results)}\t{med:.1f}\t{q1:.1f}\t"
                         f"{q3:.1f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
