#!/usr/bin/env python3
"""Benchmark of hooklaw: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
src/.  Workloads are defined in workloads.py and documented, with the
metric map, in METRICS.md.

A run is a series of jobs, each a fresh worker process (worker.py) that
imports hooklaw cold and does one job of fixed size; they run one after
another, never two at once:
  --trace 0  untraced jobs, each under its own seed: two, and more while
             the next is expected to end within half a job of --seconds;
             prints the end-to-end metrics of BENCHMARK.json: the medians
             of setup_s and peak_rss_mb, and run_s and obs_per_s pooled
             over all the jobs.
  --trace 1  the first job of the run above twice, untraced and traced;
             prints the per-layer metrics of the traced one and
             trace.overhead_s, the difference of their run_s.
Job seeds are derived from --seed and the workload name; hooklaw
receives only the resulting SamplerConfig (or oracle arguments).

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Each run also appends a record with host fields, seed and git commit to
.perfbench_out/records.jsonl; traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# a run must end within 180 s; the budget is shared by its workers
RUN_BUDGET_S = 170.0
# jobs an untraced run makes at least, so that set-up has a median
MIN_JOBS = 2


class BenchError(RuntimeError):
    pass


def workload_seed(name: str, seed: int, job: int) -> int:
    """The SamplerConfig seed of one job of a run."""
    digest = hashlib.blake2b(f"{name}:{seed}:{job}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def spawn(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    job = {**job, "t_spawn_ns": time.monotonic_ns()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded the run budget of {RUN_BUDGET_S:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S

    def job(i: int) -> dict:
        return {"spec": asdict(spec), "seed": workload_seed(spec.name, seed, i), "out": str(OUT)}

    mismatched = 0
    if not trace:
        runs, walls = [], []
        # the host's speed drifts over tens of seconds, so the run fills its
        # seconds with jobs and pools them; it starts another job while that
        # is expected to end less than half a job past the run's seconds
        while len(runs) < MIN_JOBS or time.monotonic() - started + statistics.mean(walls) / 2 <= seconds:
            t0 = time.monotonic()
            runs.append(spawn({**job(len(runs)), "trace": False}, deadline))
            walls.append(time.monotonic() - t0)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            # pooled, so that every observation weighs the same: Fristedt
            # draws cost a geometric number of trials
            "obs_per_s": sum(r["ops"] for r in runs) / sum(r["work_s"] for r in runs),
            "run_s": statistics.mean(r["run_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
    else:
        plain = spawn({**job(0), "trace": False}, deadline)
        traced = spawn({**job(0), "trace": True}, deadline)
        runs = [plain, traced]
        mismatched = int(plain["digest"] != traced["digest"])
        metrics = {**traced["layers"], "trace.overhead_s": traced["run_s"] - plain["run_s"]}
    return {
        "correct": all(r["correct"] for r in runs) and not mismatched,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs) + mismatched,
        "metrics": metrics,
        "errors": sorted({e for r in runs for e in r.get("errors", {}).values()}
                         | {f"gate failed: {op}" for r in runs for op in r.get("bad", [])}),
    }


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result: dict, units: dict[str, str]) -> str:
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "machine": model}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hooklaw" / "cli.py").is_file():
        print(f"error: no hooklaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # byte-compile once, so that no measured import pays for compilation
    compileall.compile_dir(ROOT / "src", quiet=1)
    trace = bool(args.trace)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, trace)
        line = result_line(result, metric_units(trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in result["errors"]:
        print(f"failed operation: {err}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": git_commit(), "host": host(),
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **json.loads(line)}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
