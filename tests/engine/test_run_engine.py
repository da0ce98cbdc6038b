"""Tier-1 smoke tests of the engine benchmark runner's report.

``benchmarks.run_engine.main`` runs at a tiny scale here.  Its exit
code is the equivalence gate: 0 when every compared table is identical
across modes, 1 on any result mismatch.  Timings are never gated.
"""

import json

from repro.fuzz.oracle import canonical_rows

from benchmarks import run_engine


def tiny_scale(monkeypatch):
    monkeypatch.setattr(run_engine, "SCALE_FACTORS", (0.05,))
    monkeypatch.setattr(run_engine, "ROUNDS", 1)


def test_exit_code_is_the_equivalence_gate(tmp_path, monkeypatch, capsys):
    tiny_scale(monkeypatch)
    output = tmp_path / "engine.json"

    assert run_engine.main(["--output", str(output)]) == 0
    assert json.loads(output.read_text())["all_results_identical"]
    assert "MISMATCH" not in capsys.readouterr().err

    def mismatch(name, snapshots, mismatches):
        mismatches.append(f"{name}: injected")

    monkeypatch.setattr(run_engine, "compare_snapshots", mismatch)

    assert run_engine.main(["--output", str(output)]) == 1
    assert not json.loads(output.read_text())["all_results_identical"]
    assert "MISMATCH" in capsys.readouterr().err


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


def test_modes_gate_compares_rows_in_order():
    data = run_engine.tpch.generate(0.05)
    snapshots = {}
    for mode, region in (
        ("legacy", data["region"]),
        ("columnar", list(reversed(data["region"]))),
    ):
        database = run_engine.Database()
        database.load_source(run_engine.tpch.schema(), dict(data, region=region))
        snapshots[mode] = {
            "region": canonical_rows(database.scan("region").rows)
        }
    mismatches = []

    run_engine.compare_snapshots("order probe", snapshots, mismatches)

    assert mismatches == ["order probe: table 'region' differs across modes"]


def test_report_starts_with_host_facts(tmp_path, monkeypatch):
    tiny_scale(monkeypatch)
    output = tmp_path / "engine.json"

    assert run_engine.main(["--output", str(output)]) == 0

    report = json.loads(output.read_text())
    assert list(report)[0] == "host"
    assert set(report["host"]) == {"cores", "python", "git"}
    assert report["ingest"]["results_identical"]


def test_timings_are_median_and_quartiles_with_node_kinds(tmp_path, monkeypatch):
    monkeypatch.setattr(run_engine, "SCALE_FACTORS", (0.05,))
    monkeypatch.setattr(run_engine, "ROUNDS", 3)
    output = tmp_path / "engine.json"

    assert run_engine.main(["--output", str(output)]) == 0

    workloads = json.loads(output.read_text())["scale_factors"]["0.05"]
    for entry in workloads.values():
        for mode in ("legacy_ms", "columnar_ms"):
            timing = entry[mode]
            assert 0 < timing["q1"] <= timing["median"] <= timing["q3"]
    node_ms = workloads["s2_integrated"]["node_ms"]
    assert set(node_ms) == {"legacy", "columnar"}
    for kinds in node_ms.values():
        assert {"Join", "Aggregation", "DerivedAttribute", "Loader"} <= set(kinds)
        assert list(kinds.values()) == sorted(kinds.values(), reverse=True)
    assert "node_ms" not in workloads["s1_revenue"]
