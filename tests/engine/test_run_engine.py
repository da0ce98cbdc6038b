"""Tier-1 smoke test of the engine benchmark runner's report.

Runs ``benchmarks.run_engine.main`` at a tiny scale with a speedup
target no host can reach and enough reported cores that the gate is
enforced.  A missed speedup gate must fail the run without being
reported as a result mismatch: every configuration's results are
identical, so the report must say so.
"""

import json

from benchmarks import run_engine


def test_missed_speedup_gate_is_not_a_result_mismatch(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run_engine, "SCALE_FACTORS", (0.05,))
    monkeypatch.setattr(run_engine, "PLANNER_SCALE_FACTOR", 0.05)
    monkeypatch.setattr(run_engine, "PARALLEL_SCALE_FACTOR", 0.05)
    monkeypatch.setattr(run_engine, "ROUNDS", 1)
    monkeypatch.setattr(run_engine, "PARALLEL_SPEEDUP_TARGET", 1e9)
    monkeypatch.setattr(run_engine.os, "cpu_count", lambda: 64)
    output = tmp_path / "engine.json"

    assert run_engine.main(["--output", str(output)]) == 1

    report = json.loads(output.read_text())
    parallel = report["parallel_comparison"]
    assert report["all_results_identical"]
    assert parallel["results_identical"]
    configurations = list(parallel["pools"]["thread"].values())
    assert [entry["workers"] for entry in configurations] == list(
        run_engine.PARALLEL_WORKER_SWEEP
    )
    for entry in configurations:
        assert entry["results_identical"]
        assert entry["speedup_gate_enforced"]
    misses = parallel["speedup_gate_misses"]
    assert len(misses) == len(configurations)
    assert all("below the" in miss for miss in misses)
    err = capsys.readouterr().err
    assert "GATE MISS" in err
    assert "MISMATCH" not in err
