"""The shared shrink loop, each kind's candidate order and the kind codecs."""

import json

import pytest

from repro.fuzz import corpus
from repro.fuzz.evolveoracle import EvolveTrial
from repro.fuzz.flowgen import build_flow_trial
from repro.fuzz.querygen import QueryTrial
from repro.fuzz.shrink import (
    flow_candidates,
    query_candidates,
    script_candidates,
    shrink,
)


def _query_trial():
    return QueryTrial(
        documents=[
            {"_id": "d0", "a": 2},
            {"_id": "d1", "a": 1, "b": "x"},
            {"_id": "d2", "a": 1},
            {"_id": "d3"},
        ],
        query={"$and": [{"a": {"$gte": 1, "$lt": 3}}, {"b": {"$in": ["x", "y"]}}]},
        sort_key="a",
        limit=3,
        indexes=["a", "b"],
        session="alpha",
        decoys={"beta": [{"_id": "e0", "a": 1}], "": [{"_id": "e1"}]},
        seed=None,
    )


def test_flow_shrinks_to_a_smaller_valid_flow_without_rows():
    def has_sort(trial):
        return any(node.kind == "Sort" for node in trial.flow.nodes())

    trial = next(
        trial
        for trial in map(build_flow_trial, range(200))
        if has_sort(trial) and any(table.rows for table in trial.tables)
    )

    def check(candidate):
        return "sorted: a Sort node is left" if has_sort(candidate) else None

    shrunk = shrink(trial, check, flow_candidates)

    assert check(shrunk) is not None
    assert shrunk.flow.validate() == []
    assert len(shrunk.flow) < len(trial.flow)
    assert all(not table.rows for table in shrunk.tables)


def test_query_shrinks_to_the_one_document_that_matters():
    trial = _query_trial()

    def check(candidate):
        if any(document.get("a") == 1 for document in candidate.documents):
            return "found: a document with a == 1"
        return None

    shrunk = shrink(trial, check, query_candidates)

    assert len(shrunk.documents) == 1
    assert shrunk.documents[0]["a"] == 1
    assert shrunk.query is None
    assert shrunk.limit is None
    assert shrunk.sort_key is None
    assert shrunk.indexes == []
    assert shrunk.decoys == {}
    assert shrunk.session == ""


def test_evolve_shrinks_to_the_rename_alone():
    rename = {"op": "rename", "old": "Part", "new": "PartR1"}
    trial = EvolveTrial(
        policies={"Part": "type2", "Supplier": "type1"},
        script=[
            {"op": "add", "id": "IR1", "requirement": "revenue"},
            {"op": "add", "id": "IR2", "requirement": "quantity"},
            {"op": "remove", "id": "IR1"},
            rename,
            {"op": "merge", "source": "Nation", "target": "Region"},
            {"op": "retype", "property": "Part_p_name", "type": "string"},
        ],
        seed=3,
    )

    def check(candidate):
        if any(op["op"] == "rename" for op in candidate.script):
            return "renamed: the script holds a rename"
        return None

    shrunk = shrink(trial, check, script_candidates)

    assert shrunk.script == [rename]
    assert shrunk.script[0] is rename
    assert shrunk.policies == trial.policies
    assert shrunk.seed == trial.seed


def test_a_candidate_failing_in_another_category_is_never_accepted():
    trial = _query_trial()

    def check(candidate):
        if candidate is trial:
            return "original: the bug being shrunk"
        return "other: a different bug"

    assert shrink(trial, check, query_candidates) is trial


def test_the_budget_bounds_the_checks():
    for budget in (0, 1, 7):
        calls = []

        def check(candidate, calls=calls):
            calls.append(candidate)
            return "always: fails"

        shrink(_query_trial(), check, query_candidates, budget=budget)

        assert len(calls) == 1 + budget


@pytest.mark.parametrize("kind", sorted(corpus.KINDS))
def test_generated_trials_round_trip_through_the_codec(kind):
    for seed in range(10):
        entry = corpus.encode_trial(kind, corpus.KINDS[kind].build(seed))
        decoded = corpus.decode_entry(json.loads(json.dumps(entry)))
        assert corpus.encode_trial(kind, decoded) == entry, seed
