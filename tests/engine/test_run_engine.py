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


def test_ingest_section_reports_rates_and_gates_on_the_data(monkeypatch):
    monkeypatch.setattr(run_engine, "SCALE_FACTORS", (0.05, 0.1))
    monkeypatch.setattr(run_engine, "ROUNDS", 3)
    mismatches = []

    ingest = run_engine.run_ingest(mismatches)

    assert mismatches == []
    assert ingest["results_identical"]
    assert ingest["rounds"] == 3
    assert list(ingest["load_source"]) == ["0.05", "0.1"]
    reload = ingest["lineitem_reload"]
    assert reload["scale_factor"] == 0.1
    for entry in [*ingest["load_source"].values(), reload]:
        assert entry["rows"] > 0
        rate = entry["rows_per_s"]
        assert 0 < rate["q1"] <= rate["median"] <= rate["q3"]


def test_ingest_gate_reports_a_table_that_differs(monkeypatch):
    data = run_engine.tpch.generate(0.05)
    database = run_engine.Database()
    database.load_source(run_engine.tpch.schema(), data)
    reordered = dict(data, region=list(reversed(data["region"])))
    mismatches = []

    run_engine.check_loaded("ingest probe", database, reordered, mismatches)

    assert mismatches == ["ingest probe: table 'region' differs from the data"]


def test_report_starts_with_host_facts(tmp_path, monkeypatch):
    monkeypatch.setattr(run_engine, "SCALE_FACTORS", (0.05,))
    monkeypatch.setattr(run_engine, "PLANNER_SCALE_FACTOR", 0.05)
    monkeypatch.setattr(run_engine, "PARALLEL_SCALE_FACTOR", 0.05)
    monkeypatch.setattr(run_engine, "ROUNDS", 1)
    output = tmp_path / "engine.json"

    run_engine.main(["--output", str(output)])

    report = json.loads(output.read_text())
    assert list(report)[0] == "host"
    assert set(report["host"]) == {"cores", "python", "git"}
    assert report["ingest"]["results_identical"]
