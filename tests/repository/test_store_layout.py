"""The store file's layout: sorted keys, one document per line.

``store.save`` encodes each document with the C JSON encoder and puts
it on its own line, so a saved session diffs by document.  Files in
the older indented layout, and any other JSON layout, still load.
"""

import json

from repro.repository.documents import DocumentStore
from repro.repository.store import load, save


def ledger():
    store = DocumentStore(name="ledger")
    credits = store.collection("credits")
    credits.create_index("kind")
    credits.insert({"_id": "c0", "kind": "credit", "amount": 1.5, "tags": ["a"]})
    credits.insert({"_id": "c1", "kind": "credit", "amount": None, "nested": {"z": 1, "a": [2]}})
    store.collection("debits")
    store.collection("audit").insert({"_id": "e0", "text": "café — ok"})
    return store


def contents(store):
    snapshot = store.snapshot()
    return store.name, snapshot["collections"], snapshot["indexes"]


def test_one_document_per_line_with_sorted_keys(tmp_path):
    path = tmp_path / "ledger.json"

    save(ledger(), path)

    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert list(payload) == ["collections", "indexes", "name"]
    assert list(payload["collections"]) == ["audit", "credits", "debits"]
    lines = text.splitlines()
    for collection in payload["collections"].values():
        for document in collection:
            encoded = json.dumps(document, sort_keys=True)
            assert encoded in lines or encoded + "," in lines
    assert contents(load(path)) == contents(ledger())


def test_a_store_in_the_old_indented_layout_still_loads(tmp_path):
    store = ledger()
    name, collections, indexes = contents(store)
    path = tmp_path / "old.json"
    with open(path, "w", encoding="utf-8") as file:
        json.dump(
            {"name": name, "collections": collections, "indexes": indexes},
            file,
            indent=1,
            sort_keys=True,
        )

    loaded = load(path)

    assert contents(loaded) == contents(store)
    assert loaded.collection("credits").find({"kind": "credit"})[0]["_id"] == "c0"


def test_an_empty_store_round_trips(tmp_path):
    path = tmp_path / "empty.json"

    save(DocumentStore(name="empty"), path)

    assert contents(load(path)) == contents(DocumentStore(name="empty"))
