"""Random documents and Mongo-style queries, plus a naive reference.

The reference implementation deliberately shares no code with
:mod:`repro.repository.documents`: it scans every document (no ``_id``
fast path), re-derives the documented sort semantics (missing first,
then NULL, then values bucketed by type) and applies the limit last.
Any observable difference between :meth:`Collection.find` and the
reference is a bug in one of them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

_FIELDS = ["a", "b", "c", "nest"]

#: Session namespaces a trial may run in (``""`` is the default
#: namespace, i.e. the plain collection name).
_SESSIONS = ["", "alpha", "beta"]

#: Field values skewed towards the treacherous: falsy values of every
#: type, numerically-equal values of different types, strings that look
#: like numbers, lists.
_VALUES = [
    None, 0, 0.0, 1, 2, -1, 2.5, True, False,
    "", "x", "y", "10", "a b", [1, 2],
]

#: Values queries compare against (also used inside $in lists).
_QUERY_VALUES = [0, 1, 2, 2.5, True, False, None, "", "x", "10", [1, 2]]

_PATHS = ["a", "b", "c", "nest.x", "nest.y", "nest", "zzz"]

_REGEXES = ["^x", "x$", "a", "[xy]", "^$", " "]


@dataclass
class QueryTrial:
    """One differential trial against the document store.

    ``indexes`` lists dotted paths the collection declares secondary
    indexes on before the trial's documents are written.  The reference
    knows nothing about indexes, so any trial where index routing
    changes a result (or an error) diverges.

    ``session`` is the namespace the trial's collection lives in (the
    empty string is the default/unprefixed namespace) and ``decoys``
    maps *other* session namespaces to documents written into their
    collections of the same shared store before the trial runs.  The
    reference knows nothing about the decoys either, so any cross-
    namespace leakage — in the trial's answers or in the decoy
    collections themselves — diverges.
    """

    documents: List[dict]
    query: Optional[dict]
    sort_key: Optional[str]
    limit: Optional[int]
    indexes: List[str] = field(default_factory=list)
    session: str = ""
    decoys: Dict[str, List[dict]] = field(default_factory=dict)
    seed: object = None


# -- generation --------------------------------------------------------------


def _random_document(rng: random.Random, doc_id) -> dict:
    document = {"_id": doc_id}
    for name in _FIELDS:
        if rng.random() < 0.35:
            continue  # field absent: $exists / missing-path territory
        if name == "nest":
            document[name] = {
                "x": rng.choice(_VALUES),
                "y": rng.choice(_VALUES),
            }
        else:
            document[name] = rng.choice(_VALUES)
    return document


def _random_documents(rng: random.Random) -> List[dict]:
    count = 0 if rng.random() < 0.08 else rng.randint(1, 10)
    ids = [f"d{index}" for index in range(8)] + [0, ""]
    return [
        # rng.choice allows repeats: replace() semantics get exercised.
        _random_document(rng, rng.choice(ids))
        for _ in range(count)
    ]


def _field_condition(rng: random.Random) -> dict:
    path = rng.choice(_PATHS + ["_id", "_id", "_id"])
    if path == "_id":
        ids = ["d0", "d1", "d2", "d5", "ghost", 0, ""]
        roll = rng.random()
        if roll < 0.35:
            return {"_id": rng.choice(ids)}
        if roll < 0.55:
            return {"_id": {"$eq": rng.choice(ids)}}
        if roll < 0.85:
            pool = list(ids)
            rng.shuffle(pool)
            return {"_id": {"$in": pool[: rng.randint(0, 5)]}}
        return {"_id": {"$ne": rng.choice(ids)}}
    if rng.random() < 0.35:
        return {path: rng.choice(_QUERY_VALUES)}
    operators = {}
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(
            ["$eq", "$ne", "$gt", "$gte", "$lt", "$lte",
             "$in", "$nin", "$exists", "$regex"]
        )
        if op in ("$in", "$nin"):
            operators[op] = [
                rng.choice(_QUERY_VALUES)
                for _ in range(rng.randint(0, 3))
            ]
        elif op == "$exists":
            operators[op] = rng.random() < 0.5
        elif op == "$regex":
            operators[op] = rng.choice(_REGEXES)
        else:
            operators[op] = rng.choice(_QUERY_VALUES)
    return {path: operators}


def _random_query(rng: random.Random, depth: int = 1) -> Optional[dict]:
    roll = rng.random()
    if roll < 0.08:
        return None
    if depth > 0 and roll < 0.18:
        return {
            rng.choice(["$and", "$or"]): [
                _random_query(rng, 0) or {},
                _random_query(rng, 0) or {},
            ]
        }
    if depth > 0 and roll < 0.24:
        return {"$not": _random_query(rng, 0) or {}}
    query = {}
    for _ in range(rng.randint(1, 2)):
        query.update(_field_condition(rng))
    return query


def _random_indexes(rng: random.Random) -> List[str]:
    """A random set of index declarations for a trial.

    Half of the trials run unindexed (the scan path must stay correct
    too); the rest index a few paths, ``_id`` included — an ``_id``
    secondary index is redundant with the primary fast path but must
    not change any answer.
    """
    if rng.random() < 0.5:
        return []
    pool = list(_PATHS) + ["_id"]
    rng.shuffle(pool)
    return pool[: rng.randint(1, 3)]


def _random_sessions(rng: random.Random):
    """The trial's session namespace plus decoy documents for others.

    Half of the trials run in the default namespace with no neighbours
    (the pre-session layout must stay correct); the rest pick a session
    and populate one or two *other* sessions' collections with decoy
    documents that must never influence — or be influenced by — the
    trial.
    """
    if rng.random() < 0.5:
        return "", {}
    session = rng.choice(_SESSIONS)
    decoys = {}
    others = [name for name in _SESSIONS if name != session]
    rng.shuffle(others)
    for other in others[: rng.randint(1, 2)]:
        decoys[other] = [
            _random_document(rng, rng.choice([f"d{i}" for i in range(8)]))
            for _ in range(rng.randint(1, 3))
        ]
    return session, decoys


def build_query_trial(seed: int) -> QueryTrial:
    """The deterministic query trial for a seed."""
    rng = random.Random(f"query:{seed}")
    documents = _random_documents(rng)
    query = _random_query(rng)
    sort_key = (
        rng.choice(_PATHS + ["_id"]) if rng.random() < 0.45 else None
    )
    limit = rng.randint(0, 5) if rng.random() < 0.3 else None
    indexes = _random_indexes(rng)
    session, decoys = _random_sessions(rng)
    return QueryTrial(
        documents=documents,
        query=query,
        sort_key=sort_key,
        limit=limit,
        indexes=indexes,
        session=session,
        decoys=decoys,
        seed=seed,
    )


# -- the naive reference ------------------------------------------------------

_ORDER_OPS = {"$gt", "$gte", "$lt", "$lte"}
_KNOWN_OPS = _ORDER_OPS | {
    "$eq", "$ne", "$in", "$nin", "$exists", "$regex"
}


def _resolve(document, path: str):
    current = document
    for part in path.split("."):
        if not isinstance(current, dict) or part not in current:
            return None, False
        current = current[part]
    return current, True


def _compare_one(op: str, value, expected) -> bool:
    if op == "$eq":
        return value == expected
    if op == "$ne":
        return value != expected
    if op == "$in":
        return value in expected
    if op == "$nin":
        return value not in expected
    if op == "$regex":
        return bool(isinstance(value, str) and re.search(expected, value))
    # Ordering operators: NULL and cross-type comparisons are False.
    if value is None:
        return False
    try:
        if op == "$gt":
            return value > expected
        if op == "$gte":
            return value >= expected
        if op == "$lt":
            return value < expected
        return value <= expected
    except TypeError:
        return False


def reference_matches(document: dict, query: dict) -> bool:
    """Naive matcher, written to the query language's documentation."""
    for key, condition in query.items():
        if key == "$and":
            if not all(reference_matches(document, sub) for sub in condition):
                return False
        elif key == "$or":
            if not any(reference_matches(document, sub) for sub in condition):
                return False
        elif key == "$not":
            if reference_matches(document, condition):
                return False
        elif isinstance(condition, dict) and any(
            op.startswith("$") for op in condition
        ):
            value, found = _resolve(document, key)
            for op, expected in condition.items():
                if op == "$exists":
                    if bool(found) != bool(expected):
                        return False
                    continue
                if op not in _KNOWN_OPS:
                    raise ValueError(f"unknown operator {op!r}")
                if not found and op not in ("$ne", "$nin"):
                    return False
                if not _compare_one(op, value, expected):
                    return False
        else:
            value, found = _resolve(document, key)
            if not found or value != condition:
                return False
    return True


def _reference_sort_key(document: dict, path: str):
    value, found = _resolve(document, path)
    if not found:
        return (0, ("", ""))
    if value is None:
        return (1, ("", ""))
    if isinstance(value, bool):
        bucket = ("bool", value)
    elif isinstance(value, (int, float)):
        bucket = ("number", value)
    elif isinstance(value, str):
        bucket = ("string", value)
    else:
        bucket = (type(value).__name__, repr(value))
    return (2, bucket)


def reference_find(
    documents: List[dict],
    query: Optional[dict] = None,
    sort_key: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[dict]:
    """What ``Collection.find`` must return for upserted ``documents``."""
    store = {}
    for document in documents:
        # Upsert: last write wins, the first write fixes the position.
        store[document["_id"]] = document
    results = [
        dict(document)
        for document in store.values()
        if query is None or reference_matches(document, query)
    ]
    if sort_key is not None:
        results.sort(key=lambda document: _reference_sort_key(document, sort_key))
    if limit is not None:
        results = results[:limit]
    return results


def reference_count(documents: List[dict], query: Optional[dict]) -> int:
    return len(reference_find(documents, query))
