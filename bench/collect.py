#!/usr/bin/env python3
"""Run workloads over several seeds, one run at a time, and summarize them.

    python3 bench/collect.py --seeds 0-9 --trace 0 --out bench/baseline/e2e.json
    python3 bench/collect.py --seeds 1 --trace 1 --out bench/baseline/trace.json

For each workload and metric the summary gives every run's value and their
median, quartiles (``statistics.quantiles(values, n=4)``) and spread, the
distance between the quartiles as a share of the median.  The machine and
each run's wall time, result counts and detail line are kept too.  This is
how the files in bench/baseline/ were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    seconds = SPEC["run_seconds"]
    result = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, values = [], {}
        for seed in args.seeds:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, check=True)
            lines = done.stdout.strip().splitlines()
            detail, line = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            result.setdefault("machine", detail.pop("machine"))
            runs.append({"seed": seed, "wall_s": time.perf_counter() - start,
                         "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"], "detail": detail})
            for name, metric in line["metrics"].items():
                values.setdefault(name, {"unit": metric["unit"], "values": []})
                values[name]["values"].append(metric["value"])
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s, "
                  f"failed {line['failed']}/{line['attempted']}", file=sys.stderr, flush=True)
        result["workloads"][workload] = {
            "runs": runs,
            "metrics": {name: {"unit": v["unit"], **summarize(v["values"])}
                        for name, v in values.items()}}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
