"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at its tiny size, untraced and traced, and must print
every metric ``BENCHMARK.json`` names, with its unit, and pass its gate;
a deliberately wrong expected result must fail every op's gate.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

run.bootstrap()

import workloads  # noqa: E402  (needs the sources on the import path)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


def run_benchmark(workload, trace, cwd=run.ROOT, script=None):
    """Run the benchmark's command at the tiny size; returns the process."""
    return subprocess.run(
        [
            sys.executable,
            script or os.path.join(run.HERE, "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "60",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric_and_passes(workload):
    completed = run_benchmark(workload, trace=0)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = units((m["name"], m) for m in BENCHMARK["end_to_end"])
    assert units(result["metrics"].items()) == expected
    printed = {
        tuple(line.split()[::2]) for line in completed.stdout.splitlines()[:-1]
    }
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert (name, metric["unit"]) in printed, name


#: What each traced workload must show of the layers it loads and skips.
LAYER_CHECKS = {
    "evolve": lambda metrics: (
        metrics["evolution.refold_steps"] > 0
        and metrics["engine.scan_calls"] == 0
    ),
    "warehouse": lambda metrics: (
        metrics["engine.rows_loaded"] > 0
        and metrics["engine.pivots"] > 0
        and metrics["integrator.md_calls"] == 0
    ),
    "serve": lambda metrics: (
        metrics["serve.requests"] == 5 and metrics["serve.transport_share"] > 0
    ),
}


@pytest.mark.parametrize("workload", sorted(LAYER_CHECKS))
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    completed = run_benchmark(workload, trace=1)
    assert completed.returncode == 0, completed.stderr
    result = result_of(completed)
    assert result["correct"] is True
    expected = units((m["name"], m) for m in BENCHMARK["per_layer"])
    assert units(result["metrics"].items()) == expected
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["gc.pause_ms"] > 0 and metrics["repository.ms"] > 0
    assert metrics["bus.ms"] > 0 and metrics["trace.reconciled"] > 0
    assert LAYER_CHECKS[workload](metrics)
    with open(os.path.join(run.HERE, "traces", f"{workload}-seed7.json")) as handle:
        trace = json.load(handle)
    layers = {span["layer"] for span in trace["spans"]}
    assert {"bus", "repository", "gc"} <= layers
    assert all(span["self"] <= span["end"] - span["start"] for span in trace["spans"])


def _wrong_warehouse_rows(workload):
    for reference in workload.references:
        table = sorted(reference)[0]
        reference[table] = reference[table] + Counter({("wrong",): 1})


CORRUPTIONS = {
    "evolve": lambda workload: workload.__dict__.update(
        reference=("wrong",), evolved_reference=("wrong",)
    ),
    "warehouse": _wrong_warehouse_rows,
    "serve": lambda workload: workload.expected.update(deploy=201),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_wrong_expected_result_fails_the_gate(name):
    workload = workloads.WORKLOADS[name](7, tiny=True)
    try:
        __, warm_up_failures = run.set_up(workload)
        assert warm_up_failures == []
        CORRUPTIONS[name](workload)
        untraced, __ = run.measure(workload, seconds=60)
    finally:
        workload.close()
    assert untraced.attempted > 0
    assert len(untraced.failures) == untraced.attempted
    assert all(failure.startswith(f"{name}:") for failure in untraced.failures)


def test_fails_without_the_sources(tmp_path):
    """Given only the benchmark's own files, it exits non-zero, silently."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("traces", "__pycache__"),
    )
    completed = run_benchmark(
        "warehouse", trace=0, cwd=tmp_path, script="perfbench/run.py"
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
