#!/usr/bin/env python3
"""Summarize benchmark records: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [RECORDS.jsonl] [--trace 0|1] [--point]

Reads the records run.py appends (default .perfbench_out/records.jsonl),
groups them by commit and workload, and prints for each metric the number
of runs, the median, the first and third quartiles, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --point it prints instead one JSON trajectory point per commit, in
the form of trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    """{commit: {workload: {metric: {runs, median, q1, q3, spread}}}}"""
    values: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for rec in records:
        for name, m in rec["metrics"].items():
            values[rec.get("commit")][rec["workload"]][name].append(m["value"])
    out: dict = {}
    for commit, workloads in values.items():
        for workload, metrics in workloads.items():
            for name, vals in metrics.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
                out.setdefault(commit, {}).setdefault(workload, {})[name] = {
                    "runs": len(vals), "median": med, "q1": q1, "q3": q3,
                    "spread": (q3 - q1) / med if med else None}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="?", default=str(ROOT / ".perfbench_out" / "records.jsonl"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--point", action="store_true")
    args = parser.parse_args()
    with open(args.records) as fh:
        records = [json.loads(line) for line in fh]

    if args.point:
        e2e = summarize([r for r in records if r["trace"] == 0])
        layers = summarize([r for r in records if r["trace"] == 1])
        for commit, workloads in e2e.items():
            mine = [r for r in records if r.get("commit") == commit]
            print(json.dumps({
                "commit": commit, "host": mine[-1]["host"], "date": mine[-1]["time"],
                "seconds": sorted({r["seconds"] for r in mine}),
                "seeds": sorted({r["seed"] for r in mine if r["trace"] == 0}),
                "end_to_end": workloads, "per_layer": layers.get(commit, {})}))
        return

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = summarize([r for r in records if r["trace"] == args.trace])
    for commit, workloads in summary.items():
        for workload, metrics in sorted(workloads.items()):
            for name, s in metrics.items():
                bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
                spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"{str(commit)[:10]:10} {workload:17} {name:34} n={s['runs']:<3} "
                      f"median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {spread}{bound}")


if __name__ == "__main__":
    main()
