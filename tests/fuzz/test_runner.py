"""The fuzz loop and ``--replay`` report a crashing harness, not die of it."""

import dataclasses
import json
from pathlib import Path

from repro.fuzz import corpus
from repro.fuzz.flowgen import build_flow_trial
from repro.fuzz.querygen import build_query_trial
from repro.fuzz.runner import main, run

CORPUS_DIR = Path(__file__).parent / "corpus"


def test_replay_goes_on_past_files_it_cannot_decode(tmp_path, capsys):
    retired = tmp_path / "old_parallel.json"
    entry = corpus.encode_trial("flow", build_flow_trial(7))
    retired.write_text(json.dumps(dict(entry, kind="parallel")))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    good = CORPUS_DIR / "seed262_lint.json"

    assert main(["--replay", str(retired), str(broken), str(good)]) == 1

    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        f"{retired}: FAIL: harness: ValueError: "
        f"unknown corpus entry kind 'parallel'"
    )
    assert lines[1].startswith(f"{broken}: FAIL: harness: JSONDecodeError: ")
    assert lines[2] == f"{good}: PASS"
    assert lines[3] == "replayed 3 entries, 2 failing"


def test_a_crashing_oracle_is_shrunk_and_saved(tmp_path, monkeypatch, capsys):
    def crash(trial):
        if trial.documents:
            raise KeyError("injected")
        return None

    monkeypatch.setitem(
        corpus.KINDS,
        "query",
        dataclasses.replace(corpus.KINDS["query"], check=crash),
    )
    seed = next(
        seed for seed in range(50) if len(build_query_trial(seed).documents) > 2
    )

    report = run([seed], failures_dir=tmp_path)

    [failure] = report["failures"]
    assert failure["kind"] == "query"
    assert failure["detail"] == "harness: KeyError: 'injected'"
    assert len(failure["entry"]["documents"]) == 1
    assert Path(failure["path"]).exists()
    assert main(["--replay", failure["path"]]) == 1
    assert "FAIL: harness: KeyError: 'injected'" in capsys.readouterr().out
