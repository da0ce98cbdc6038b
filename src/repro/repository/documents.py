"""An embedded document store with Mongo-style queries.

Documents are plain JSON-compatible dicts with a required ``_id``.
Filters support equality on (dotted) paths plus the operators
``$eq $ne $gt $gte $lt $lte $in $nin $exists $regex`` and the
conjunctions ``$and $or $not``.

A collection answers a query by ``_id`` or by a scan: a filter that
pins the ``_id`` (equality, ``$eq`` or ``$in``) reads the primary map,
everything else scans in collection order.  Either way every candidate
is verified against the full query, so the route changes only *how
fast* a query answers, never *what* it answers.

Collections are thread-safe: every public read and write holds the
collection's reentrant lock, so concurrent design sessions can share one
store.  The lock is per collection — sessions namespacing their state
into distinct collections never contend with each other.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional

from repro.locks import new_rlock

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    RepositoryError,
)

_OPERATORS = {
    "$eq", "$ne", "$gt", "$gte", "$lt", "$lte",
    "$in", "$nin", "$exists", "$regex",
}


def _resolve_path(document: dict, path: str):
    """Value at a dotted path; (value, found) pair."""
    current = document
    for part in path.split("."):
        if isinstance(current, dict) and part in current:
            current = current[part]
        else:
            return None, False
    return current, True


def _sort_group(value):
    """Type-bucketed total order over document values.

    Values only ever compare against values of the same bucket, so a
    heterogeneously-typed sort key can never raise ``TypeError`` and no
    value is coerced into another type.  Booleans get their own bucket
    (``True == 1`` in Python, but a bool is not a number here), ints and
    floats share the number bucket, and anything exotic (lists, dicts)
    falls back to a repr ordering within its own type name.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("number", value)
    if isinstance(value, str):
        return ("string", value)
    return (type(value).__name__, repr(value))


def _find_sort_key(document: dict, path: str):
    """Sort key for :meth:`Collection.find`: missing first, then NULL,
    then present values grouped by type — falsy values (``0``, ``""``,
    ``False``) sort as themselves, never collapsed."""
    value, found = _resolve_path(document, path)
    if not found:
        return (0, ("", ""))
    if value is None:
        return (1, ("", ""))
    return (2, _sort_group(value))


def _compare(op: str, value, expected) -> bool:
    if op == "$eq":
        return value == expected
    if op == "$ne":
        return value != expected
    if op in ("$gt", "$gte", "$lt", "$lte"):
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
    if op == "$in":
        return value in expected
    if op == "$nin":
        return value not in expected
    if op == "$regex":
        return isinstance(value, str) and re.search(expected, value) is not None
    raise RepositoryError(f"unknown operator {op!r}")


def matches(document: dict, query: dict) -> bool:
    """Whether a document satisfies a filter query."""
    for key, condition in query.items():
        if key == "$and":
            if not all(matches(document, sub) for sub in condition):
                return False
            continue
        if key == "$or":
            if not any(matches(document, sub) for sub in condition):
                return False
            continue
        if key == "$not":
            if matches(document, condition):
                return False
            continue
        value, found = _resolve_path(document, key)
        if isinstance(condition, dict) and any(
            op.startswith("$") for op in condition
        ):
            for op, expected in condition.items():
                if op == "$exists":
                    if bool(found) != bool(expected):
                        return False
                    continue
                if op not in _OPERATORS:
                    raise RepositoryError(f"unknown operator {op!r}")
                if not found and op not in ("$ne", "$nin"):
                    return False
                if not _compare(op, value, expected):
                    return False
        else:
            if not found or value != condition:
                return False
    return True


def _query_is_safe(query: dict) -> bool:
    """Whether evaluating ``query`` can never raise, on any document.

    The ``_id`` route and limit short-circuiting skip documents a full
    scan would have match-tested; that is only sound when none of those
    skipped evaluations could have raised (unknown operator, malformed
    ``$in``/``$regex`` operand).  Unsafe queries take the plain scan
    path so they raise exactly as a scan does.
    """
    for key, condition in query.items():
        if key in ("$and", "$or"):
            if not isinstance(condition, (list, tuple)) or not all(
                isinstance(sub, dict) and _query_is_safe(sub)
                for sub in condition
            ):
                return False
            continue
        if key == "$not":
            if not isinstance(condition, dict) or not _query_is_safe(condition):
                return False
            continue
        if isinstance(condition, dict) and any(
            op.startswith("$") for op in condition
        ):
            for op, expected in condition.items():
                if op == "$exists":
                    continue
                if op not in _OPERATORS:
                    return False
                if op in ("$in", "$nin") and not isinstance(
                    expected, (list, tuple)
                ):
                    return False
                if op == "$regex":
                    if not isinstance(expected, str):
                        return False
                    try:
                        re.compile(expected)
                    except re.error:
                        return False
    return True


class Collection:
    """One named collection of documents."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Reentrant so compound writes (``delete_many`` -> ``delete``)
        #: and callers that already hold the lock both work.
        self._lock = new_rlock("Collection._lock")
        self._documents: Dict[str, dict] = {}  # guarded-by: Collection._lock
        #: Monotonic insertion position per id, so the ``_id`` fast path
        #: can restore collection order without scanning (replacing an
        #: existing document keeps its position, like dict assignment).
        self._positions: Dict[str, int] = {}  # guarded-by: Collection._lock
        self._next_position = 0  # guarded-by: Collection._lock
        #: Which route answered each read — tests assert the planner
        #: took the cheap path (they read without the lock, after the
        #: writers have quiesced).
        self.stats: Dict[str, int] = {  # guarded-by: Collection._lock [writes]
            "scans": 0, "id_lookups": 0,
        }

    def _track(self, doc_id) -> None:
        if doc_id not in self._positions:
            self._positions[doc_id] = self._next_position
            self._next_position += 1

    # -- writes -----------------------------------------------------------

    def insert(self, document: dict) -> str:
        """Insert a document; ``_id`` is required and must be fresh."""
        if "_id" not in document:
            raise RepositoryError("document needs an '_id'")
        doc_id = document["_id"]
        with self._lock:
            if doc_id in self._documents:
                raise DuplicateDocumentError(
                    f"document {doc_id!r} already in collection {self.name!r}"
                )
            self._documents[doc_id] = dict(document)
            self._track(doc_id)
        return doc_id

    def replace(self, document: dict) -> str:
        """Insert or overwrite by ``_id`` (upsert)."""
        if "_id" not in document:
            raise RepositoryError("document needs an '_id'")
        doc_id = document["_id"]
        with self._lock:
            self._documents[doc_id] = dict(document)
            self._track(doc_id)
        return doc_id

    def bulk_load(self, documents: Iterable[dict]) -> int:
        """Insert many documents under one lock hold; returns the count.

        The persistence layer uses this to repopulate a collection
        atomically — readers never observe a half-loaded collection.
        """
        with self._lock:
            count = 0
            for document in documents:
                self.insert(document)
                count += 1
            return count

    def update(self, doc_id: str, changes: dict) -> dict:
        """Shallow-merge changes into an existing document."""
        with self._lock:
            document = self.get(doc_id)
            document.update({k: v for k, v in changes.items() if k != "_id"})
            self._documents[doc_id] = document
            return dict(document)

    def delete(self, doc_id: str) -> None:
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(self.name, doc_id)
            del self._documents[doc_id]
            del self._positions[doc_id]

    def delete_many(self, query: dict) -> int:
        # Materialise the ids first (the generator walks _documents),
        # then delete with full bookkeeping: positions go too, exactly
        # as in single-document delete.
        with self._lock:
            doomed = [document["_id"] for document in self._matching(query)]
            for doc_id in doomed:
                self.delete(doc_id)
            return len(doomed)

    # -- reads ---------------------------------------------------------------

    def get(self, doc_id: str) -> dict:
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(self.name, doc_id)
            return dict(self._documents[doc_id])

    def has(self, doc_id: str) -> bool:
        with self._lock:
            return doc_id in self._documents

    def _id_candidates(self, query: dict):
        """Documents narrowed by an ``_id`` condition, or None.

        ``_documents`` is keyed by ``_id``, so a query that pins the id
        (plain equality, ``$eq`` or ``$in``) is answered by direct hash
        lookups instead of a collection scan.
        """
        if "_id" not in query:
            return None
        condition = query["_id"]
        try:
            if isinstance(condition, dict) and any(
                op.startswith("$") for op in condition
            ):
                if set(condition) == {"$eq"}:
                    wanted = [condition["$eq"]]
                elif set(condition) == {"$in"}:
                    seen: set = set()
                    wanted = []
                    for doc_id in condition["$in"]:
                        if doc_id not in seen:
                            seen.add(doc_id)
                            wanted.append(doc_id)
                else:
                    return None
            else:
                wanted = [condition]
            # Restore collection (insertion) order: a scan yields
            # documents in that order, and narrowing by id must not
            # reorder results behind the caller's back.
            hits = [
                doc_id for doc_id in wanted if doc_id in self._documents
            ]
            hits.sort(key=self._positions.__getitem__)
            return [self._documents[doc_id] for doc_id in hits]
        except TypeError:  # unhashable id in the query: scan as before
            return None

    def _plan(self, query: Optional[dict]):
        """(candidate documents, whether evaluation may skip documents).

        Candidates come from the ``_id`` fast path or a full scan —
        always in collection order, always a superset of the true
        matches.  Routes that skip documents are only taken for *safe*
        queries (see :func:`_query_is_safe`), so a query that would
        raise mid-scan still raises identically.
        """
        if not query:
            return self._documents.values(), True
        if not _query_is_safe(query):
            self.stats["scans"] += 1
            return self._documents.values(), False
        narrowed = self._id_candidates(query)
        if narrowed is not None:
            self.stats["id_lookups"] += 1
            return narrowed, True
        self.stats["scans"] += 1
        return self._documents.values(), True

    def _matching(self, query: Optional[dict]) -> Iterator[dict]:
        """Stored documents matching the filter, in collection order.

        Yields the *stored* dicts without copying — callers that hand
        documents out must copy; callers that only count or collect ids
        must not mutate.
        """
        candidates, __ = self._plan(query)
        if not query:
            yield from candidates
            return
        for document in candidates:
            if matches(document, query):
                yield document

    def find(
        self,
        query: Optional[dict] = None,
        sort_key: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """All documents matching the filter (copies)."""
        with self._lock:
            candidates, may_skip = self._plan(query)
            stop_early = may_skip and sort_key is None and limit is not None
            results: List[dict] = []
            for document in candidates:
                if stop_early and len(results) >= limit:
                    break
                if query is None or not query or matches(document, query):
                    results.append(dict(document))
        if sort_key is not None:
            results.sort(key=lambda doc: _find_sort_key(doc, sort_key))
        if limit is not None:
            results = results[:limit]
        return results

    def find_one(self, query: Optional[dict] = None) -> Optional[dict]:
        found = self.find(query, limit=1)
        return found[0] if found else None

    def count(self, query: Optional[dict] = None) -> int:
        """Matching-document count, without materialising result copies."""
        with self._lock:
            if query is None:
                return len(self._documents)
            return sum(1 for __ in self._matching(query))

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._documents)

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)


class DocumentStore:
    """A set of named collections (one MongoDB database)."""

    def __init__(self, name: str = "quarry") -> None:
        self.name = name
        self._lock = new_rlock("DocumentStore._lock")
        self._collections: Dict[str, Collection] = {}  # guarded-by: DocumentStore._lock

    def collection(self, name: str) -> Collection:
        """Get (creating on first use) a collection."""
        with self._lock:
            if name not in self._collections:
                self._collections[name] = Collection(name)
            return self._collections[name]

    def collection_names(self) -> List[str]:
        with self._lock:
            return list(self._collections)

    def drop_collection(self, name: str) -> None:
        with self._lock:
            self._collections.pop(name, None)

    def snapshot(self) -> Dict[str, Dict[str, list]]:
        """A point-in-time view of every collection, taken atomically.

        Acquires the store lock plus every per-collection lock in a
        stable (name-sorted) order before reading anything, so a
        snapshot concurrent with writing sessions can never persist a
        torn view — e.g. a bus event without the artefact it announces.
        The store lock is held throughout, so collections created
        mid-snapshot wait rather than appear half-included.  Writers
        only ever take a single collection lock, so the ordered
        acquisition cannot deadlock against them.
        """
        with self._lock:
            collections = [
                self._collections[name]
                for name in sorted(self._collections)
            ]
            acquired: List[Collection] = []
            try:
                for collection in collections:
                    collection._lock.acquire()  # lock: Collection._lock
                    acquired.append(collection)
                return {
                    "collections": {
                        collection.name: collection.find()  # calls: Collection.find
                        for collection in collections
                    },
                }
            finally:
                for collection in reversed(acquired):
                    collection._lock.release()  # lock: Collection._lock

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._collections
