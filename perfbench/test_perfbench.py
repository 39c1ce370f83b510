"""The benchmark's own tests: tiny runs of every workload, and gates fed
deliberately wrong outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import gates
import oracles
import run
from workloads import WORKLOADS

TINY = {
    "mc-exact-n1e5": dict(n=500, count=30),
    "mc-fristedt-n1e4": dict(n=60, count=30),
    # keeps one n of the saddle sweep where the tail certificate fails
    "exact-oracles": dict(enum_n=12, moment_n=10, table_n=400, series_degree=60,
                          saddle_ns=(100, 10**6), round_trips=2),
}


def tiny(name: str):
    return replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.measure(tiny(name), seed=7, seconds=1, trace=bool(trace))
    printed = json.loads(run.result_line(result, run.metric_units(bool(trace))))

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer" if trace else "end_to_end"]:
        entry = printed["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    assert printed["correct"] is True
    assert printed["attempted"] >= 1
    if name == "exact-oracles":
        # solve_saddle and log_hayman_pn_estimate at 1e6, in each of 2 processes
        assert printed["failed"] == 4
        assert all(e.startswith("ToleranceError") for e in result["errors"])
    else:
        assert printed["failed"] == 0


def test_traced_run_names_the_per_call_spans(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    run.measure(tiny("mc-exact-n1e5"), seed=3, seconds=1, trace=True)
    (trace_file,) = tmp_path.glob("trace-*.jsonl")
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert len({s["trace_id"] for s in spans}) == 1
    names = [s["name"] for s in spans]
    loop = names.index("bench.sample_hooks")
    assert names[loop + 1 : loop + 5] == [
        "sampling.stream", "sampling.sample_partition", "sampling.sample_cell", "partitions.hook_length"]
    assert all(s["parent"] == spans[loop]["span_id"] for s in spans[loop + 1 : loop + 5])


@pytest.fixture(scope="module")
def law():
    from hooklaw import exact

    return exact.hook_distribution_via_part_counts(200)


def _sample(weights: dict[int, int], count: int, seed: int) -> list[int]:
    hooks = np.array(sorted(weights))
    probs = np.array([weights[h] for h in hooks], dtype=float)
    return np.random.default_rng(seed).choice(hooks, size=count, p=probs / probs.sum()).tolist()


def test_gate_passes_a_sample_from_the_exact_law(law):
    hooks = _sample(law.weights, 3000, seed=1)
    failed, dist, crit = gates.monte_carlo_failures(hooks, [200] * 3000, law.weights, 200)
    assert failed == 0 and dist < crit


def test_gate_fails_a_sample_from_a_wrong_law(law):
    # the row of a uniform part instead of a uniform cell: not size-biased
    unbiased = {k: w // k for k, w in law.weights.items()}
    hooks = _sample(unbiased, 3000, seed=1)
    failed, dist, crit = gates.monte_carlo_failures(hooks, [200] * 3000, law.weights, 200)
    assert dist > crit
    assert failed == 3000


def test_gate_fails_a_partition_of_the_wrong_size(law):
    hooks = _sample(law.weights, 100, seed=2)
    failed, _, _ = gates.monte_carlo_failures(hooks, [200, 199, 200], law.weights, 200)
    assert failed == 1


def test_gate_fails_a_hook_outside_the_diagram(law):
    hooks = _sample(law.weights, 100, seed=3) + [201]
    failed, _, _ = gates.monte_carlo_failures(hooks, [], law.weights, 200)
    assert failed == 1


def test_oracle_gates_fail_a_tampered_value():
    from hooklaw import exact

    spec = tiny("exact-oracles")
    table = exact.partition_counts(spec.table_n)
    ops = oracles.build_ops(spec, seed=1, table=table)
    results, errors = oracles.run_ops(ops)
    assert sorted(errors) == ["hayman[1000000]", "saddle[1000000]"]
    assert oracles.failed_checks(ops, results, errors) == []

    results["series.moment_coefficient"] += 1
    results["enum.moment_Y"] *= 2
    assert oracles.failed_checks(ops, results, errors) == [
        "enum.moment_Z", "enum.moment_Y", "series.moment_coefficient"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-oracles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
