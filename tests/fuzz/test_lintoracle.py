"""The static/dynamic agreement oracle and its corpus plumbing."""

from repro.fuzz import corpus
from repro.fuzz.lintoracle import (
    build_lint_trial,
    check_lint_trial,
    lint_flow_trial,
)
from repro.xformats import xlm


def test_trials_are_deterministic():
    first, second = build_lint_trial(11), build_lint_trial(11)
    assert xlm.dumps(first.flow) == xlm.dumps(second.flow)
    assert [t.rows for t in first.tables] == [t.rows for t in second.tables]


def test_lint_seed_differs_from_flow_seed():
    """The lint generator draws from its own RNG stream, so the trials
    explore different flows than the plain differential ones."""
    from repro.fuzz.flowgen import build_flow_trial

    assert xlm.dumps(build_lint_trial(3).flow) != xlm.dumps(
        build_flow_trial(3).flow
    )


def test_oracle_agrees_over_a_seed_range():
    disagreements = [
        detail
        for seed in range(40)
        if (detail := check_lint_trial(build_lint_trial(seed))) is not None
    ]
    assert disagreements == []


def test_corpus_round_trip_replays_as_a_lint_entry():
    trial = build_lint_trial(5)
    entry = corpus.encode_trial("lint", trial, "round trip")
    assert entry["kind"] == "lint"
    decoded = corpus.decode_entry(entry)
    assert xlm.dumps(decoded.flow) == xlm.dumps(trial.flow)
    assert corpus.replay(entry) is None


def test_lint_flow_trial_returns_a_report():
    report = lint_flow_trial(build_lint_trial(2))
    assert hasattr(report, "diagnostics")


def test_seed_262_regression_is_pinned():
    """The witness-row soundness bug: an unhashable join-key value whose
    row has a NULL in a sibling key attribute never reaches the hash."""
    from pathlib import Path

    path = Path(__file__).parent / "corpus" / "seed262_lint.json"
    assert path.exists()
    import json

    entry = json.loads(path.read_text())
    assert entry["kind"] == "lint"
    assert corpus.replay(entry) is None
    # and the lint verdict is the demoted POSSIBLE, not the unsound DEFINITE
    report = lint_flow_trial(corpus.decode_entry(entry))
    assert report.by_code("QRY202") == []
    assert any(d.code == "QRY203" for d in report.diagnostics)
