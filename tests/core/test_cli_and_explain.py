"""Tests for the CLI and the EXPLAIN renderer."""

import pytest

from repro.cli import main
from repro.etlmodel.cost import CostModel
from repro.etlmodel.explain import explain
from repro.repository import DocumentStore
from repro.repository.store import save

from tests.etlmodel.conftest import build_revenue_flow


class TestExplain:
    def test_tree_shape(self):
        text = explain(build_revenue_flow())
        assert text.startswith("Flow 'revenue'")
        assert "requirements: IR1" in text
        assert "LOAD_fact_revenue TableOutput(fact_table_revenue" in text
        assert "FilterRows(n_name = 'SPAIN')" in text
        assert "MergeJoin(l_orderkey=o_orderkey)" in text
        assert "GroupBy(n_name -> total_revenue=SUM(revenue))" in text
        assert "TableInput(lineitem)" in text

    def test_indentation_reflects_depth(self):
        text = explain(build_revenue_flow())
        lines = text.splitlines()
        load_line = next(l for l in lines if "LOAD_fact_revenue" in l)
        agg_line = next(l for l in lines if l.strip().startswith("AGG_"))
        assert len(agg_line) - len(agg_line.lstrip()) > (
            len(load_line) - len(load_line.lstrip())
        )

    def test_cost_annotations(self):
        text = explain(
            build_revenue_flow(),
            cost_model=CostModel(),
            row_counts={"lineitem": 1000},
        )
        assert "[rows=" in text and "cost=" in text

    def test_shared_subtrees_expanded_once(self):
        from repro.etlmodel import Datastore, EtlFlow, Loader, Projection

        flow = EtlFlow("shared")
        flow.add(Datastore("src", table="t", columns=("a",)))
        flow.add(Projection("p1", columns=("a",)))
        flow.add(Projection("p2", columns=("a",)))
        flow.add(Loader("l1", table="o1"))
        flow.add(Loader("l2", table="o2"))
        flow.connect("src", "p1")
        flow.connect("src", "p2")
        flow.connect("p1", "l1")
        flow.connect("p2", "l2")
        text = explain(flow)
        assert text.count("TableInput(t)") == 1
        assert "^see src" in text


class TestCli:
    def test_suggest_facts(self, capsys):
        assert main(["suggest"]) == 0
        output = capsys.readouterr().out
        assert "Lineitem" in output

    def test_suggest_perspective(self, capsys):
        assert main(["suggest", "Lineitem", "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "dimensions:" in output
        assert "measures:" in output

    def test_ddl(self, capsys):
        assert main(["ddl"]) == 0
        output = capsys.readouterr().out
        assert "CREATE TABLE fact_table_revenue" in output

    def test_ddl_sqlite(self, capsys):
        assert main(["ddl", "--dialect", "sqlite"]) == 0
        assert "REAL" in capsys.readouterr().out

    def test_status(self, capsys):
        assert main(["status"]) == 0
        output = capsys.readouterr().out
        assert "requirements : IR1, IR2" in output
        assert "satisfiable  : yes" in output

    def test_explain(self, capsys):
        assert main(["explain"]) == 0
        output = capsys.readouterr().out
        assert "Flow 'unified'" in output
        assert "TableOutput" in output

    def test_tune(self, capsys):
        assert main(["tune", "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "[index]" in output or "[rollup]" in output or "[slim]" in output

    def test_demo_with_session_roundtrip(self, capsys, tmp_path):
        session = str(tmp_path / "session.json")
        assert main(["demo", "--save", session]) == 0
        output = capsys.readouterr().out
        assert "Scenario 1" in output and "loaded" in output
        assert main(["status", "--session", session]) == 0
        output = capsys.readouterr().out
        assert "IR1" in output and "IR2" not in output.split("facts")[0]

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestCliStoreErrors:
    """A store the CLI cannot load is one ``error:`` line and exit 2."""

    def fails_in_one_line(self, capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        return captured.err

    @pytest.mark.parametrize(
        "command", ["status", "ddl", "explain", "sessions", "tune"]
    )
    def test_missing_store(self, capsys, tmp_path, command):
        missing = str(tmp_path / "missing.json")
        error = self.fails_in_one_line(capsys, [command, "--store", missing])
        assert "cannot load document store" in error

    def test_malformed_store(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"collections": []}')
        error = self.fails_in_one_line(capsys, ["status", "--store", str(path)])
        assert "malformed document store file" in error

    def test_store_without_an_ontology(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        save(DocumentStore(), path)
        error = self.fails_in_one_line(capsys, ["status", "--store", str(path)])
        assert error == "error: repository holds no ontology\n"
