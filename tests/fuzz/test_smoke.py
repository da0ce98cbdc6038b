"""Tier-1 differential fuzzing: a fixed-seed budget plus corpus replay.

The budget keeps the suite fast (<10s) while still driving every
operator through both engine modes on every run; the corpus replay
keeps each bug the fuzzer ever caught fixed.  A failure here prints the
seed — reproduce it interactively with
``python -m repro.fuzz --start <seed> --seeds 1``.
"""

from pathlib import Path

import pytest

from repro.fuzz import corpus
from repro.fuzz.evolveoracle import (
    EvolveTrial,
    build_evolve_trial,
    check_evolve_trial,
)
from repro.fuzz.flowgen import build_flow_trial
from repro.fuzz.querygen import build_query_trial
from repro.fuzz.runner import run
from repro.repository import MetadataRepository
from repro.xformats import xlm

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Enough seeds to cover every operator kind and both outcome kinds
#: (results and error parity) while staying well under ten seconds.
SMOKE_SEEDS = 50


def test_fixed_seed_budget_finds_no_divergence():
    report = run(range(SMOKE_SEEDS), shrink=False)
    details = [
        f"seed {failure['seed']} [{failure['kind']}]: {failure['detail']}"
        for failure in report["failures"]
    ]
    assert not details, "\n".join(details)
    assert report["trials"] == 4 * SMOKE_SEEDS


def test_trials_are_deterministic():
    """The same seed must rebuild the identical trial anywhere —
    that is what makes a failure report reproducible."""
    first, second = build_flow_trial(7), build_flow_trial(7)
    assert xlm.dumps(first.flow) == xlm.dumps(second.flow)
    assert [table.rows for table in first.tables] == [
        table.rows for table in second.tables
    ]
    query_first, query_second = build_query_trial(7), build_query_trial(7)
    assert query_first.documents == query_second.documents
    assert query_first.query == query_second.query
    assert query_first.sort_key == query_second.sort_key
    assert query_first.limit == query_second.limit
    evolve_first, evolve_second = build_evolve_trial(7), build_evolve_trial(7)
    assert evolve_first.policies == evolve_second.policies
    assert evolve_first.script == evolve_second.script


def test_corpus_replays_clean():
    entries = corpus.load_corpus(CORPUS_DIR)
    assert entries, f"no corpus entries under {CORPUS_DIR}"
    failing = {}
    for path, entry in entries:
        detail = corpus.replay(entry)
        if detail is not None:
            failing[path.name] = detail
    assert not failing, failing


def test_corpus_round_trips_through_json():
    """decode(encode(trial)) must reproduce the trial exactly, or the
    corpus would silently pin a *different* regression."""
    for path, entry in corpus.load_corpus(CORPUS_DIR):
        trial = corpus.decode_entry(entry)
        again = corpus.encode_trial(
            entry["kind"], trial, entry["description"]
        )
        assert again["kind"] == entry["kind"], path.name
        for key in entry:
            if key == "seed":
                continue
            assert again.get(key) == entry[key], (path.name, key)


@pytest.mark.parametrize("kind", ("parallel", "planned"))
def test_retired_parallel_kind_is_rejected(kind):
    """An old failure file of a retired kind (``parallel``, ``planned``)
    must fail loudly, not replay as some other check."""
    entry = corpus.encode_trial("flow", build_flow_trial(7))
    entry["kind"] = kind
    with pytest.raises(
        ValueError, match=f"unknown corpus entry kind '{kind}'"
    ):
        corpus.replay(entry)


def test_evolve_oracle_resumes_over_the_stored_domain(monkeypatch):
    """A retype of an attribute no requirement reads leaves the design
    as it was, so only the resumed ontology can show that the evolved
    domain was not stored."""
    trial = EvolveTrial(
        policies={},
        script=[
            {"op": "add", "id": "IR1", "requirement": "revenue"},
            {"op": "retype", "property": "Customer_c_acctbal", "type": "integer"},
        ],
        seed=None,
    )
    assert check_evolve_trial(trial) is None
    save = MetadataRepository.save_ontology

    def save_only_the_first(repository, ontology):
        if not repository.ontology_names():
            return save(repository, ontology)
        return ontology.name

    monkeypatch.setattr(MetadataRepository, "save_ontology", save_only_the_first)
    assert check_evolve_trial(trial).startswith("evolve-resume-divergence:")
