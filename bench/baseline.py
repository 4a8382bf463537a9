"""Repeat benchmark runs over several seeds and summarize them.

Usage (from the root of a source checkout):

    python3 bench/baseline.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                              [--traced] [--out FILE]

For every workload it makes ``--runs`` untraced runs with consecutive seeds
and reports, for every end-to-end figure the run prints, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  With
``--traced`` it also makes two traced runs per workload with different
seeds, checks that every count repeats exactly, and keeps the per-layer
table of the first.  ``--out`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = ("count", "bytes")


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line), json.loads(result_line)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def summarize(details):
    figures = {}
    for detail in details:
        for name, metric in detail["metrics"].items():
            figures.setdefault(name, {"unit": metric["unit"], "values": []})
            figures[name]["values"].append(metric["value"])
    return {
        name: dict(spread(fig["values"]), unit=fig["unit"])
        for name, fig in sorted(figures.items())
        if len(fig["values"]) >= 2
    }


def traced(workload, seeds, seconds):
    runs = [run_once(workload, seed, seconds, 1) for seed in seeds]
    first = runs[0][1]["metrics"]
    mismatched = [
        name
        for name, metric in first.items()
        if metric["unit"] in COUNT_UNITS
        and any(r[1]["metrics"][name]["value"] != metric["value"] for r in runs[1:])
    ]
    return {
        "seeds": list(seeds),
        "correct": all(r[1]["correct"] for r in runs),
        "counts_repeat": not mismatched,
        "mismatched_counts": mismatched,
        "per_layer": {name: [m["value"], m["unit"]] for name, m in first.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        details, failed = [], 0
        for seed in seeds:
            start = time.perf_counter()
            detail, result = run_once(workload, seed, seconds, 0)
            failed += result["failed"] + (not result["correct"])
            details.append(detail)
            print(
                "%s seed %d: %.1f s  %s"
                % (
                    workload,
                    seed,
                    time.perf_counter() - start,
                    " ".join(
                        "%s=%.4g" % (k, v["value"]) for k, v in sorted(detail["metrics"].items())
                    ),
                ),
                file=sys.stderr,
                flush=True,
            )
        entry = {
            "seeds": list(seeds),
            "failed": failed,
            "environment": details[0]["environment"],
            "loadavg": [[d["loadavg_start"], d["loadavg_end"]] for d in details],
            "metrics": summarize(details),
        }
        if args.traced:
            entry["traced"] = traced(workload, (args.first_seed, args.first_seed + 1), seconds)
        summary["workloads"][workload] = entry
        for name, fig in entry["metrics"].items():
            print(
                "%s %-18s median %.5g  q1 %.5g  q3 %.5g  spread %.3f"
                % (workload, name, fig["median"], fig["q1"], fig["q3"], fig["spread"]),
                file=sys.stderr,
            )
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
