"""Alternating benchmark pairs of two checkouts, summarised for BENCH_<pr>.json.

Runs ``perfbench/run.py`` of a parent checkout and of a changed checkout in
turn, N pairs, the parent first in odd pairs and the change first in even
ones, each run a fresh process from its own checkout. Every run's end-to-end
metrics and the pairs' summary go under one key of the ``workloads`` table of
the output file; other keys already in the file are kept, so one file can
collect several workloads and seeds:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload cli-roundtrip --pairs 10 --seconds 30 --seed 0 \\
        --out BENCH_10.json --pr 10 --describe "what the change does"

The summary gives each side's quartiles (numpy.percentile, linear
interpolation), the interquartile range over the median, the change's
rounded median relative to the parent's, and in how many pairs the change was
better: higher work_per_s, lower peak_rss_mb and setup_s; ties count for
neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = {"work_per_s": "higher", "peak_rss_mb": "lower", "setup_s": "lower"}


def parse_run(stdout: str) -> dict:
    """One run's record from perfbench's output: its last line is the JSON
    result of an untraced run."""
    result = json.loads(stdout.strip().splitlines()[-1])
    record = {name: round(result["metrics"][name]["value"], 7) for name in METRICS}
    record.update(
        attempted=result["attempted"], failed=result["failed"], correct=result["correct"]
    )
    return record


def side_summary(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {
        "q1": round(float(q1), 6),
        "median": round(float(median), 6),
        "q3": round(float(q3), 6),
        "iqr_over_median": round(float((q3 - q1) / median), 4),
    }


def summarize(pairs) -> dict:
    """Per metric: both sides' quartiles, the median change, and in how
    many of the pairs the change was better."""
    summary = {}
    for name, better in METRICS.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        sides = {"parent": side_summary(parent), "change": side_summary(change)}
        ratio = sides["change"]["median"] / sides["parent"]["median"]
        summary[name] = {
            **sides,
            "median_change": round(ratio - 1.0, 4) + 0.0,  # no "-0.0"
            "change_better_in": f"{wins} of {len(pairs)}",
        }
    return summary


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True, timeout=max(900.0, 20.0 * seconds))
    return parse_run(proc.stdout)


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              seconds: float, seed: int, log=print) -> list:
    out = []
    for number in range(1, pairs + 1):
        order = ("parent", "change") if number % 2 else ("change", "parent")
        entry = {"pair": number, "first": order[0]}
        for side in order:
            entry[side] = run_once(
                parent if side == "parent" else change, workload, seconds, seed
            )
            log(f"pair {number} {side}: {json.dumps(entry[side])}")
        out.append(entry)
    return out


def machine() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": 1,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--key", default=None,
                        help="key under workloads; defaults to the workload name")
    parser.add_argument("--pr", type=int, default=None)
    parser.add_argument("--describe", default=None, help="what the change does")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pairs = run_pairs(args.parent.resolve(), args.change.resolve(), args.workload,
                      args.pairs, args.seconds, args.seed)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.pr is not None:
        doc["pr"] = args.pr
    if args.describe is not None:
        doc["change"] = args.describe
    doc.setdefault("machine", machine())
    doc.setdefault("protocol", {
        "command": "python3 perfbench/run.py --workload <name> --seconds <s> --seed <seed> --trace 0",
        "runs": "parent and change each from its own checkout; pairs alternate which "
                "side runs first (odd pairs parent first); runs go one after another",
        "quartiles": "numpy.percentile, linear interpolation",
    })
    doc.setdefault("workloads", {})[args.key or args.workload] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": pairs,
        "summary": summarize(pairs),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
