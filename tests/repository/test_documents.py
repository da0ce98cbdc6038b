"""Unit tests for the document store and its query language."""

import pytest

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    RepositoryError,
)
from repro.repository import Collection, DocumentStore
from repro.repository.documents import matches


@pytest.fixture
def designs():
    collection = Collection("designs")
    collection.insert(
        {"_id": "d1", "kind": "md", "cost": 10, "meta": {"author": "ann"}}
    )
    collection.insert(
        {"_id": "d2", "kind": "etl", "cost": 25, "meta": {"author": "bob"}}
    )
    collection.insert({"_id": "d3", "kind": "md", "cost": 40})
    return collection


class TestCrud:
    def test_insert_and_get_returns_copy(self, designs):
        document = designs.get("d1")
        document["kind"] = "mutated"
        assert designs.get("d1")["kind"] == "md"

    def test_insert_requires_id(self, designs):
        with pytest.raises(RepositoryError):
            designs.insert({"kind": "x"})

    def test_duplicate_insert_rejected(self, designs):
        with pytest.raises(DuplicateDocumentError):
            designs.insert({"_id": "d1"})

    def test_replace_upserts(self, designs):
        designs.replace({"_id": "d1", "kind": "replaced"})
        assert designs.get("d1") == {"_id": "d1", "kind": "replaced"}
        designs.replace({"_id": "d9", "kind": "new"})
        assert designs.has("d9")

    def test_update_merges(self, designs):
        designs.update("d1", {"cost": 11, "_id": "ignored"})
        assert designs.get("d1")["cost"] == 11
        assert designs.get("d1")["_id"] == "d1"

    def test_update_missing_raises(self, designs):
        with pytest.raises(DocumentNotFoundError):
            designs.update("ghost", {})

    def test_delete(self, designs):
        designs.delete("d1")
        assert not designs.has("d1")
        with pytest.raises(DocumentNotFoundError):
            designs.delete("d1")

    def test_delete_many(self, designs):
        assert designs.delete_many({"kind": "md"}) == 2
        assert designs.ids() == ["d2"]

    def test_len_and_count(self, designs):
        assert len(designs) == 3
        assert designs.count() == 3
        assert designs.count({"kind": "md"}) == 2


class TestQueries:
    def test_equality(self, designs):
        assert {d["_id"] for d in designs.find({"kind": "md"})} == {"d1", "d3"}

    def test_dotted_path(self, designs):
        assert designs.find_one({"meta.author": "ann"})["_id"] == "d1"

    def test_comparison_operators(self, designs):
        assert {d["_id"] for d in designs.find({"cost": {"$gt": 20}})} == {
            "d2",
            "d3",
        }
        assert designs.find_one({"cost": {"$lte": 10}})["_id"] == "d1"
        assert designs.count({"cost": {"$ne": 10}}) == 2

    def test_in_nin(self, designs):
        assert designs.count({"kind": {"$in": ["md", "etl"]}}) == 3
        assert designs.count({"kind": {"$nin": ["md"]}}) == 1

    def test_exists(self, designs):
        assert designs.count({"meta": {"$exists": True}}) == 2
        assert designs.count({"meta": {"$exists": False}}) == 1

    def test_regex(self, designs):
        assert designs.count({"kind": {"$regex": "^m"}}) == 2

    def test_and_or_not(self, designs):
        query = {"$or": [{"kind": "etl"}, {"cost": {"$gte": 40}}]}
        assert {d["_id"] for d in designs.find(query)} == {"d2", "d3"}
        query = {"$and": [{"kind": "md"}, {"cost": {"$lt": 20}}]}
        assert designs.find_one(query)["_id"] == "d1"
        assert designs.count({"$not": {"kind": "md"}}) == 1

    def test_missing_path_fails_equality(self, designs):
        assert designs.count({"meta.author": "zed"}) == 1 - 1

    def test_unknown_operator_raises(self, designs):
        with pytest.raises(RepositoryError):
            designs.find({"cost": {"$frob": 1}})

    def test_sort_and_limit(self, designs):
        costly_first = designs.find(sort_key="cost")
        assert [d["_id"] for d in costly_first] == ["d1", "d2", "d3"]
        assert len(designs.find(limit=2)) == 2

    def test_sort_keeps_falsy_values(self):
        """Regression: ``0``/``""``/``False`` sort keys used to collapse
        to ``""`` via ``value or ""``, scrambling numeric order."""
        collection = Collection("falsy")
        collection.insert({"_id": "zero", "rank": 0})
        collection.insert({"_id": "two", "rank": 2})
        collection.insert({"_id": "neg", "rank": -1})
        found = collection.find(sort_key="rank")
        assert [doc["_id"] for doc in found] == ["neg", "zero", "two"]

    def test_sort_mixed_types_never_raises(self):
        """Regression: mixed int/str sort keys raised ``TypeError``."""
        collection = Collection("mixed")
        collection.insert({"_id": "a", "k": 3})
        collection.insert({"_id": "b", "k": "x"})
        collection.insert({"_id": "c"})  # key missing
        collection.insert({"_id": "d", "k": None})
        collection.insert({"_id": "e", "k": 1})
        found = collection.find(sort_key="k")
        # Missing first, then NULL, then values bucketed by type
        # (numbers before strings), values themselves uncoerced.
        assert [doc["_id"] for doc in found] == ["c", "d", "e", "a", "b"]

    def test_find_one_none_when_empty(self, designs):
        assert designs.find_one({"kind": "nope"}) is None

    def test_type_mismatch_comparison_is_false(self):
        assert not matches({"x": "str"}, {"x": {"$gt": 4}})


class TestStore:
    def test_collections_created_on_demand(self):
        store = DocumentStore()
        assert "c" not in store
        store.collection("c").insert({"_id": "1"})
        assert "c" in store
        assert store.collection_names() == ["c"]

    def test_drop_collection(self):
        store = DocumentStore()
        store.collection("c")
        store.drop_collection("c")
        assert "c" not in store
        store.drop_collection("never-existed")  # no error


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, designs):
        from repro.repository import store as file_store

        store = DocumentStore("db")
        store._collections["designs"] = designs
        path = tmp_path / "store.json"
        file_store.save(store, path)
        loaded = file_store.load(path)
        assert loaded.name == "db"
        assert loaded.collection("designs").count() == 3
        assert loaded.collection("designs").get("d1")["meta"] == {
            "author": "ann"
        }

    def test_load_missing_file_raises(self, tmp_path):
        from repro.repository import store as file_store

        with pytest.raises(RepositoryError):
            file_store.load(tmp_path / "missing.json")

    def test_load_malformed_raises(self, tmp_path):
        from repro.repository import store as file_store

        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(RepositoryError):
            file_store.load(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"collections": []}',
            '{"collections": {"c": {"_id": 1}}}',
            '{"collections": {"c": [1]}}',
            '{"collections": {"c": [{"_id": [1, 2]}]}}',
        ],
        ids=[
            "collections-not-an-object",
            "collection-not-a-list",
            "document-not-an-object",
            "unhashable-id",
        ],
    )
    def test_load_refuses_a_malformed_layout(self, tmp_path, text):
        from repro.repository import store as file_store

        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(RepositoryError, match="malformed"):
            file_store.load(path)


class TestIdFastPath:
    """Queries pinning ``_id`` are answered by hash lookup, with the
    full query still verified — never by a collection scan."""

    def test_find_one_by_id(self, designs):
        assert designs.find_one({"_id": "d2"})["kind"] == "etl"
        assert designs.find_one({"_id": "ghost"}) is None

    def test_find_one_by_id_eq_operator(self, designs):
        assert designs.find_one({"_id": {"$eq": "d3"}})["cost"] == 40

    def test_find_by_id_in_operator(self, designs):
        found = designs.find({"_id": {"$in": ["d3", "d1", "d3", "ghost"]}})
        # Collection (insertion) order, exactly like a full scan — not
        # the order the ids appear in the $in list.
        assert [doc["_id"] for doc in found] == ["d1", "d3"]

    def test_other_conditions_still_verified(self, designs):
        # The id matches but the rest of the query must too.
        assert designs.find_one({"_id": "d1", "kind": "etl"}) is None
        assert designs.find_one({"_id": "d1", "kind": "md"})["_id"] == "d1"

    def test_count_by_id(self, designs):
        assert designs.count({"_id": "d1"}) == 1
        assert designs.count({"_id": {"$in": ["d1", "d2", "ghost"]}}) == 2

    def test_non_equality_id_operators_fall_back_to_scan(self, designs):
        found = designs.find({"_id": {"$ne": "d1"}})
        assert {doc["_id"] for doc in found} == {"d2", "d3"}
        assert designs.count({"_id": {"$regex": "^d"}}) == 3

    def test_unhashable_id_query_falls_back_to_scan(self, designs):
        assert designs.find({"_id": ["d1"]}) == []
        assert designs.find({"_id": {"$in": [["d1"], "d2"]}}) != []

    def test_results_are_copies(self, designs):
        found = designs.find_one({"_id": "d1"})
        found["kind"] = "mutated"
        assert designs.get("d1")["kind"] == "md"

    def test_id_narrowing_matches_scan_order(self):
        """Regression: every ``_id`` fast path ($eq, $in, plain
        equality) must yield the same order as the scan it replaces."""
        collection = Collection("order")
        for doc_id in ("a", "b", "c"):
            collection.insert({"_id": doc_id})
        scan = [doc["_id"] for doc in collection.find()]
        assert scan == ["a", "b", "c"]
        assert [
            doc["_id"]
            for doc in collection.find({"_id": {"$in": ["c", "a"]}})
        ] == ["a", "c"]
        assert [
            doc["_id"] for doc in collection.find({"_id": {"$eq": "b"}})
        ] == ["b"]
        assert [doc["_id"] for doc in collection.find({"_id": "c"})] == ["c"]

    def test_id_in_order_survives_delete_and_replace(self):
        collection = Collection("order")
        for doc_id in ("a", "b", "c"):
            collection.insert({"_id": doc_id})
        collection.delete("b")
        collection.replace({"_id": "a", "v": 2})  # keeps its position
        collection.insert({"_id": "b"})  # re-inserted: now last
        assert [
            doc["_id"]
            for doc in collection.find({"_id": {"$in": ["b", "c", "a"]}})
        ] == ["a", "c", "b"]

    def test_fast_path_avoids_scanning_other_documents(self, designs, monkeypatch):
        import repro.repository.documents as documents_module

        seen = []
        real_matches = documents_module.matches

        def spying_matches(document, query):
            seen.append(document["_id"])
            return real_matches(document, query)

        monkeypatch.setattr(documents_module, "matches", spying_matches)
        designs.find_one({"_id": "d2"})
        assert seen == ["d2"]


def seeded() -> Collection:
    collection = Collection("c")
    collection.insert({"_id": "a", "kind": "fact", "nest": {"x": 1}})
    collection.insert({"_id": "b", "kind": "dim", "nest": {"x": 2}})
    collection.insert({"_id": "c", "kind": "fact"})
    collection.insert({"_id": "d"})
    return collection


class TestWriteBookkeeping:
    def test_replace_changes_what_a_query_finds(self):
        collection = seeded()
        collection.replace({"_id": "a", "kind": "dim"})
        assert [d["_id"] for d in collection.find({"kind": "dim"})] == ["a", "b"]
        assert [d["_id"] for d in collection.find({"kind": "fact"})] == ["c"]

    def test_update_changes_what_a_query_finds(self):
        collection = seeded()
        collection.update("c", {"kind": "dim"})
        assert [d["_id"] for d in collection.find({"kind": "fact"})] == ["a"]
        assert [d["_id"] for d in collection.find({"kind": "dim"})] == ["b", "c"]

    def test_deleted_document_is_not_found(self):
        collection = seeded()
        collection.delete("a")
        assert [d["_id"] for d in collection.find({"kind": "fact"})] == ["c"]

    def test_delete_many_releases_positions(self):
        collection = seeded()
        assert collection.delete_many({"kind": "fact"}) == 2
        assert collection.find({"kind": "fact"}) == []
        # Re-inserting a deleted id lands at the end of collection
        # order: its old position really was released.
        collection.insert({"_id": "a", "kind": "dim"})
        assert [d["_id"] for d in collection.find()] == ["b", "d", "a"]


def scan_error(collection, query) -> Exception:
    """What a plain scan — ``matches`` over every document, in
    collection order — raises for ``query``."""
    with pytest.raises(Exception) as raised:
        for document in collection.find():
            matches(document, query)
    return raised.value


class TestRoutes:
    """A query is answered by ``_id`` or by a scan, and the routes that
    skip documents (the ``_id`` lookup, a limit's early stop) never
    change an answer or hide an error."""

    def test_replace_keeps_collection_order(self):
        collection = seeded()
        collection.replace({"_id": "a", "kind": "fact", "touched": True})
        assert [d["_id"] for d in collection.find({"kind": "fact"})] == ["a", "c"]

    def test_field_query_scans(self):
        collection = seeded()
        collection.find({"missing_path": 1})
        collection.find({"kind": "fact"})
        assert collection.stats == {"scans": 2, "id_lookups": 0}

    def test_in_over_string_scans(self):
        # "fact" in "factory" is substring containment, not equality.
        collection = seeded()
        result = collection.find({"kind": {"$in": "factory"}})
        assert collection.stats["scans"] == 1
        assert [d["_id"] for d in result] == ["a", "c"]

    def test_unsafe_query_raises(self):
        collection = seeded()
        with pytest.raises(RepositoryError):
            collection.find({"kind": {"$bogus": 1}})
        with pytest.raises(RepositoryError):
            collection.count({"kind": {"$bogus": 1}})

    def test_limit_zero_and_early_stop(self):
        collection = seeded()
        assert collection.find({"kind": "fact"}, limit=0) == []
        assert len(collection.find({"kind": "fact"}, limit=1)) == 1

    @pytest.mark.parametrize(
        "unsafe",
        [{"$bogus": 1}, {"$in": 5}, {"$regex": "("}],
        ids=["unknown-operator", "non-list-in", "uncompilable-regex"],
    )
    def test_unsafe_query_fails_as_a_scan_does(self, unsafe):
        # The unsafe condition comes first, so a scan raises on the
        # first document holding "kind"; the _id route would look up
        # "ghost" alone and a limit of 0 would look at nothing.
        collection = seeded()
        query = {"kind": unsafe, "_id": "ghost"}
        expected = scan_error(collection, query)
        for attempt in (
            lambda: collection.find(query),
            lambda: collection.count(query),
            lambda: collection.find({"kind": unsafe}, limit=0),
        ):
            with pytest.raises(type(expected)) as raised:
                attempt()
            assert str(raised.value) == str(expected)
        assert collection.stats["id_lookups"] == 0
