"""End-to-end tests for ``python -m repro.lint``."""

import json

import pytest

from repro.expressions.types import ScalarType
from repro.fuzz.corpus import encode_trial, save_entry
from repro.fuzz.datagen import TableSpec
from repro.fuzz.flowgen import FlowTrial
from repro.lint import main
from repro.xformats import xlm

from tests.analysis.conftest import build_acceptance_flow


@pytest.fixture()
def acceptance_json(tmp_path):
    """The acceptance scenario frozen as a corpus-format lint entry."""
    flow, tables = build_acceptance_flow()
    trial = FlowTrial(
        tables=[
            TableSpec(
                name="a",
                schema={"id": ScalarType.INTEGER, "x": ScalarType.INTEGER},
                rows=tables["a"],
            ),
            TableSpec(
                name="b",
                schema={"id": ScalarType.INTEGER, "y": ScalarType.INTEGER},
                rows=tables["b"],
            ),
        ],
        flow=flow,
        seed=None,
    )
    path = tmp_path / "acceptance_lint.json"
    save_entry(path, encode_trial("lint", trial, "acceptance scenario"))
    return path


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "nothing to lint" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "QRY001" in out and "QRY413" in out


def test_corpus_entry_reports_all_three_bugs(acceptance_json, capsys):
    assert main([str(acceptance_json)]) == 1  # QRY202 is an ERROR
    out = capsys.readouterr().out
    for code, location in [
        ("QRY101", "widen.z"),
        ("QRY202", "match.id"),
        ("QRY302", "impossible"),
    ]:
        assert f"{code}" in out and location in out


def test_json_output(acceptance_json, capsys):
    assert main(["--json", str(acceptance_json)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (report,) = payload["reports"]
    codes = {d["code"] for d in report["diagnostics"]}
    assert codes == {"QRY101", "QRY202", "QRY302"}


def test_only_and_disable(acceptance_json, capsys):
    # Warnings alone exit 0.
    assert main(["--only", "QRY302", str(acceptance_json)]) == 0
    assert "QRY302" in capsys.readouterr().out
    assert main(["--disable", "QRY202", str(acceptance_json)]) == 0


def test_unknown_rule_code_is_usage_error(acceptance_json, capsys):
    assert main(["--only", "QRY999", str(acceptance_json)]) == 2
    assert "QRY999" in capsys.readouterr().err


def test_xlm_without_rows_lints_structurally(tmp_path, capsys):
    flow, _tables = build_acceptance_flow()
    path = tmp_path / "acceptance.xlm"
    path.write_text(xlm.dumps(flow))
    # No rows: the hashability ERROR disappears, the satisfiability
    # warning (pure predicate reasoning) and the dead column stay.
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "QRY302" in out
    assert "QRY202" not in out


def test_directory_collects_lintable_files(tmp_path, acceptance_json, capsys):
    assert main([str(tmp_path)]) == 1
    assert "QRY202" in capsys.readouterr().out


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "ghost.xlm")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unsupported_suffix_is_usage_error(tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("hello")
    assert main([str(path)]) == 2
    assert "cannot lint" in capsys.readouterr().err


def test_demo_design_lints_clean(capsys):
    assert main(["--demo"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s), 1 info(s)" in out
    assert "QRY412" in out
