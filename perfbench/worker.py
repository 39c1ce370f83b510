"""One job of a benchmark run: import hooklaw cold, set up, do the job.

run.py starts this script once per job, so every job sees the package's
module-level caches cold.  The only argument is a JSON job:

    {"spec": {...}, "seed": int, "trace": bool,
     "out": dir, "t_spawn_ns": time.monotonic_ns() of the parent just
     before it started this process}

All clocks are CLOCK_MONOTONIC (shared by parent and child), so setup_s and
run_s count from process start.  The last stdout line is the result JSON.

Only the standard library is imported before `import hooklaw.cli`, so the
timed import is the one a user of the `hooklaw` command pays.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import uuid
from contextlib import contextmanager, nullcontext
from pathlib import Path

from workloads import from_json

# trials re-drawn after an untraced run to gate partition sizes and hooks
REPLAY_TRIALS = 3

LAYERS = ("bench", "cli", "exact", "sampling", "partitions", "limitlaw", "series", "asymptotics")

# per-layer metric -> span names whose durations it sums, in seconds
SPAN_SUMS = {
    "cli.import_s": ("cli.import",),
    "exact.partition_counts_s": ("exact.partition_counts",),
    "exact.enumeration_s": ("exact.exact_hook_distribution", "exact.moment_Z", "exact.moment_Y"),
    "exact.hook_law_s": ("exact.hook_distribution_via_part_counts",),
    "sampling.sampler_setup_s": ("sampling.make_sampler",),
    "limitlaw.ks_s": ("limitlaw.ks_statistic",),
    "limitlaw.quantile_s": ("limitlaw.quantile",),
    "series.euler_s": ("series.euler_series",),
    "series.product_s": ("series.product",),
    "series.moment_coefficient_s": ("series.moment_coefficient",),
}


class Tracer:
    """Spans [name, parent index, start ns, end ns], kept in memory and
    written out once the run ends.  Span 0 is the root `bench.run`, which
    starts when the parent started this process."""

    def __init__(self, start_ns: int):
        self.trace_id = uuid.uuid4().hex
        self.spans = [["bench.run", -1, start_ns, 0]]
        self.stack = [0]

    def begin(self, name: str) -> int:
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.monotonic_ns(), 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self) -> None:
        self.spans[self.stack.pop()][3] = time.monotonic_ns()

    def end_run(self) -> None:
        """Close the root span; later spans (the gates) start new roots."""
        self.spans[0][3] = time.monotonic_ns()
        self.stack.clear()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"trace_id": self.trace_id, "span_id": i, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")


def span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def since(start_ns: int) -> float:
    return (time.monotonic_ns() - start_ns) / 1e9


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# --- Monte Carlo ---------------------------------------------------------


def traced_observation(tracer, sampling, partitions, cfg, sampler, trial):
    """observe_hook's calls, in its order, each inside its own span."""
    tracer.begin("sampling.stream")
    rng = sampling.stream(cfg.seed, trial)
    tracer.end()
    tracer.begin("sampling.sample_partition")
    p = sampler.draw(rng)  # what sample_partition does with the cached sampler
    tracer.end()
    tracer.begin("sampling.sample_cell")
    c = sampling.sample_cell(p, rng)
    tracer.end()
    tracer.begin("partitions.hook_length")
    hook = partitions.hook_length(p, c)
    tracer.end()
    return hook, sum(p.parts)


def monte_carlo(spec, job, tracer):
    start = job["t_spawn_ns"]
    with span(tracer, "cli.import"):
        import hooklaw.cli  # noqa: F401  (what the `hooklaw` entry point loads)
    from hooklaw import exact, limitlaw, partitions, sampling

    import gates

    cfg = sampling.SamplerConfig(n=spec.n, algorithm=spec.algorithm, seed=job["seed"])
    if tracer is None:
        first = sampling.observe_hook(cfg, 0).hook
    else:
        ptable = None
        if spec.algorithm == sampling.EXACT_RECURSIVE:
            with tracer.span("exact.partition_counts"):
                ptable = exact.partition_counts(spec.n)
        with tracer.span("sampling.make_sampler"):
            sampler = sampling.make_sampler(cfg, ptable)
        first, _ = traced_observation(tracer, sampling, partitions, cfg, sampler, 0)
    setup_s = since(start)

    count = spec.count
    sizes: list[int] = []
    t0 = time.monotonic_ns()
    if tracer is None:
        observations = sampling.sample_hooks(cfg, count, threads=1)
    else:
        loop = tracer.begin("bench.sample_hooks")
        observations = []
        for trial in range(count):
            hook, size = traced_observation(tracer, sampling, partitions, cfg, sampler, trial)
            sizes.append(size)
            observations.append(sampling.HookObservation(cfg.n, hook, sampling.scale_hook(hook, cfg.n)))
        tracer.end()
    sample_s = since(t0)
    with span(tracer, "limitlaw.ks_statistic"):
        limitlaw.ks_statistic([o.scaled for o in observations], n=cfg.n)
    out = {"setup_s": setup_s, "run_s": since(start), "ops": count, "work_s": sample_s,
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.end_run()

    # gates, outside the timed region
    hooks = [o.hook for o in observations]
    failed = int(hooks[0] != first)
    with span(tracer, "bench.gates"):
        if tracer is None:
            for trial in range(min(REPLAY_TRIALS, count)):
                rng = sampling.stream(cfg.seed, trial)
                p = sampling.sample_partition(cfg, rng)
                sizes.append(sum(p.parts))
                failed += partitions.hook_length(p, sampling.sample_cell(p, rng)) != hooks[trial]
        with span(tracer, "exact.hook_distribution_via_part_counts"):
            law = exact.hook_distribution_via_part_counts(cfg.n)
        failed += gates.monte_carlo_failures(hooks, sizes, law.weights, cfg.n)[0]
    out.update(attempted=count, failed=failed, correct=failed == 0,
               digest=hashlib.sha256(",".join(map(str, hooks)).encode()).hexdigest())
    if tracer is not None:
        extra = {}
        if spec.algorithm == sampling.FRISTEDT_REJECTION:
            extra["sampling.fristedt_trials_per_draw"] = sampler.trials / sampler.accepted
        out["layers"] = layer_metrics(tracer, loop, extra)
    return out


# --- exact oracles -------------------------------------------------------


def exact_oracles(spec, job, tracer):
    start = job["t_spawn_ns"]
    with span(tracer, "cli.import"):
        import hooklaw.cli  # noqa: F401
    from hooklaw import exact

    import oracles

    with span(tracer, "exact.partition_counts"):
        table = exact.partition_counts(spec.table_n)
    setup_s = since(start)

    ops = oracles.build_ops(spec, job["seed"], table)
    t0 = time.monotonic_ns()
    results, errors = oracles.run_ops(ops, tracer)
    oracle_s = since(t0)
    out = {"setup_s": setup_s, "run_s": since(start), "ops": len(ops), "work_s": oracle_s,
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.end_run()

    with span(tracer, "bench.gates"):
        bad = oracles.failed_checks(ops, results, errors)
    out.update(attempted=len(ops), failed=len(errors) + len(bad), correct=not bad,
               digest=oracles.digest(ops, results), errors=errors, bad=bad)
    if tracer is not None:
        failed_asym = sum(1 for op in ops if op.id in errors and op.span.startswith("asymptotics."))
        out["layers"] = layer_metrics(tracer, None, {"asymptotics.failed": failed_asym})
    return out


# --- per-layer metrics from the trace -----------------------------------


def layer_metrics(tracer: Tracer, loop: int | None, extra: dict) -> dict:
    spans = tracer.spans
    dur = [(end - start) / 1e9 for _, _, start, end in spans]
    metrics = {name: sum(d for s, d in zip(spans, dur) if s[0] in names)
               for name, names in SPAN_SUMS.items()}
    metrics["asymptotics.solve_saddle_ms"] = 1e3 * sum(
        d for s, d in zip(spans, dur) if s[0] == "asymptotics.solve_saddle")

    # self time per layer over the timed tree under bench.run; parents
    # precede their children in the list
    child = [0.0] * len(spans)
    timed = [False] * len(spans)
    timed[0] = True
    for i, (_, parent, _, _) in enumerate(spans[1:], start=1):
        if parent >= 0:
            child[parent] += dur[i]
            timed[i] = timed[parent]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            dur[i] - child[i] for i, s in enumerate(spans) if timed[i] and s[0].split(".")[0] == layer)

    # per-call latencies inside the sample_hooks-equivalent loop
    calls: dict[str, list[float]] = {}
    if loop is not None:
        for s, d in zip(spans, dur):
            if s[1] == loop:
                calls.setdefault(s[0], []).append(d)
    draws = sorted(calls.get("sampling.sample_partition", []))
    p50 = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    metrics["sampling.draw_ms_p50"] = 1e3 * p50(draws)
    # the highest percentile with at least 10 samples beyond it
    tail = draws[-11] if len(draws) > 10 else (draws[-1] if draws else 0.0)
    metrics["sampling.draw_ms_tail"] = 1e3 * tail
    metrics["sampling.draw_tail_pct"] = 100.0 * (len(draws) - 10) / len(draws) if len(draws) > 10 else 0.0
    metrics["sampling.draw_samples"] = len(draws)
    metrics["sampling.draw_share"] = sum(draws) / dur[loop] if draws else 0.0
    # ceiling on what a cell-and-hook change can do to obs_per_s
    cell_hook = calls.get("sampling.sample_cell", []) + calls.get("partitions.hook_length", [])
    metrics["sampling.cell_hook_share"] = sum(cell_hook) / dur[loop] if cell_hook else 0.0
    metrics["sampling.stream_us_p50"] = 1e6 * p50(calls.get("sampling.stream", []))
    metrics["sampling.sample_cell_us_p50"] = 1e6 * p50(calls.get("sampling.sample_cell", []))
    metrics["partitions.hook_length_us_p50"] = 1e6 * p50(calls.get("partitions.hook_length", []))
    metrics["sampling.fristedt_trials_per_draw"] = 0.0
    metrics["asymptotics.failed"] = 0
    metrics["trace.spans"] = len(spans)
    metrics.update(extra)
    return metrics


def main() -> int:
    job = json.loads(sys.argv[1])
    spec = from_json(job["spec"])
    tracer = Tracer(job["t_spawn_ns"]) if job["trace"] else None
    body = monte_carlo if spec.kind == "mc" else exact_oracles
    out = body(spec, job, tracer)
    if tracer is not None:
        path = Path(job["out"]) / f"trace-{spec.name}-{job['seed']:016x}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
