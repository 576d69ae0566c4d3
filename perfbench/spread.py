#!/usr/bin/env python3
"""Spread report: run workloads k times each, with seeds 1..k, and print
per metric the median, the quartiles, the interquartile range and the
full range as shares of the median.

Run from the repository root:

    python3 perfbench/spread.py --workloads churn-400 --runs 5
    python3 perfbench/spread.py --workloads paper-sweep,bandwidth-2000,churn-400 \
        --runs 10 --sets 2 --out-dir perfbench/results

The benchmark command and run length come from BENCHMARK.json.
Quartiles are those of Python's statistics.quantiles(values, n=4).

With --sets 2 every seed is run twice, the sets taking turns seed by
seed, so that a slow or fast phase of the machine falls on both sets
alike. The end-to-end report then checks each metric against its bound:
the interquartile share of every metric but setup_s, and for every
metric how much worse the second set's median is than the first's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0], wall


def summarise(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    share = (lambda x: x / median) if median else (lambda x: 0.0)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": share(q3 - q1),
        "range_share": share(max(values) - min(values)),
        "values": values,
    }


def report(stamp, workload, seconds, trace, results, walls):
    return {
        "stamp": stamp,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "seeds": list(range(1, len(results) + 1)),
        "all_correct": all(r["correct"] for r in results),
        "wall_s": summarise(walls),
        "metrics": {
            name: dict(unit=results[0]["metrics"][name]["unit"],
                       **summarise([r["metrics"][name]["value"] for r in results]))
            for name in results[0]["metrics"]
        },
    }


def print_report(title, rep):
    print(f"\n== {title}  {rep['stamp']}")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'rng/med':>8}")
    for name, m in rep["metrics"].items():
        print(f"{name:40} {m['median']:14.6g} {m['q1']:14.6g} {m['q3']:14.6g} "
              f"{m['iqr_share']:8.4f} {m['range_share']:8.4f}")
    w = rep["wall_s"]
    print(f"{'(run wall s)':40} {w['median']:14.6g} {w['q1']:14.6g} {w['q3']:14.6g}")


def worsening(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def check_bounds(workload, bench, sets):
    ok = True
    print(f"\n== bounds, {workload}: iqr/med per set and worsening of set 2 over set 1")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [s["metrics"][name] for s in sets]
        iqrs = [m["iqr_share"] for m in stats]
        worse = worsening(metric, stats[0]["median"], stats[1]["median"]) if len(sets) > 1 else 0.0
        fine = worse <= bound and (name == "setup_s" or max(iqrs) <= bound)
        ok &= fine
        print(f"{name:28} bound {bound:5.3f}  iqr {' '.join(f'{x:6.4f}' for x in iqrs)}  "
              f"worse {worse:+7.4f}  {'ok' if fine else 'OUT OF BOUND'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out-dir", help="write each report as JSON into this directory")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")

    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    walls = {key: [] for key in results}
    stamps = {}
    for seed in range(1, args.runs + 1):
        for s in range(args.sets):
            for w in workloads:
                result, stamps[w], wall = run_once(bench["command"], w, seed, seconds, args.trace)
                results[w, s].append(result)
                walls[w, s].append(wall)
                print(f"{w} set {s + 1} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"wall={wall:.1f}s", file=sys.stderr)

    all_ok = True
    kind = "trace" if args.trace else "e2e"
    for w in workloads:
        sets = [report(stamps[w], w, seconds, args.trace, results[w, s], walls[w, s])
                for s in range(args.sets)]
        for s, rep in enumerate(sets):
            suffix = "" if s == 0 else "-repeat"
            print_report(f"{w} {kind}{suffix}", rep)
            all_ok &= rep["all_correct"]
            if args.out_dir:
                with open(os.path.join(args.out_dir, f"{w}.{kind}{suffix}.json"), "w") as f:
                    json.dump(rep, f, indent=1)
                    f.write("\n")
        if not args.trace:
            all_ok &= check_bounds(w, bench, sets)
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
