"""Regression: ``store.save`` must persist a consistent point in time.

Before :meth:`DocumentStore.snapshot`, ``save`` read each collection in
turn with no cross-collection lock: a writer appending to two related
collections between the reads produced a *torn* file — documents in the
later-read collection referencing documents missing from the
earlier-read one.  The test stretches the read window (a sleeping
``find``) and runs paired writers; the old code loses the invariant
deterministically, the snapshot-based save never does.
"""

import json
import threading

from repro.repository.documents import Collection, DocumentStore
from repro.repository.store import load, save


def _paired_writer(
    store: DocumentStore, stop: threading.Event, prefix: str
) -> None:
    """Append credit ``c-…`` then debit ``d-…`` referencing it.

    Writing the credit first makes "every debit's reference exists in
    credits" an invariant of every point in time — any snapshot that
    breaks it interleaved with a writer mid-save.
    """
    credits = store.collection("credits")
    debits = store.collection("debits")
    index = 0
    while not stop.is_set():
        credit_id = f"c-{prefix}-{index}"
        credits.insert({"_id": credit_id, "amount": 1})
        debits.insert({"_id": f"d-{prefix}-{index}", "ref": credit_id})
        index += 1


def test_save_under_concurrent_writers_is_torn_free(tmp_path, monkeypatch):
    store = DocumentStore(name="ledger")
    store.collection("credits")
    store.collection("debits")

    original_find = Collection.find

    def slow_find(self, *args, **kwargs):
        # Widen the gap between the per-collection reads: an unlocked
        # save now reliably straddles many writer iterations.
        threading.Event().wait(0.05)
        return original_find(self, *args, **kwargs)

    monkeypatch.setattr(Collection, "find", slow_find)

    stop = threading.Event()
    writers = [
        threading.Thread(
            target=_paired_writer, args=(store, stop, f"w{n}"), daemon=True
        )
        for n in range(2)
    ]
    for writer in writers:
        writer.start()
    try:
        path = tmp_path / "ledger.json"
        save(store, path)
    finally:
        stop.set()
        for writer in writers:
            writer.join(timeout=10)

    payload = json.loads(path.read_text(encoding="utf-8"))
    credits = {doc["_id"] for doc in payload["collections"]["credits"]}
    debits = payload["collections"]["debits"]
    dangling = [doc["_id"] for doc in debits if doc["ref"] not in credits]
    assert not dangling, f"torn snapshot: debits without credits {dangling}"


def test_load_restores_documents(tmp_path):
    store = DocumentStore(name="ledger")
    store.collection("credits").insert({"_id": "c0", "amount": 1})
    store.collection("debits").insert({"_id": "d0", "ref": "c0"})
    path = tmp_path / "ledger.json"
    save(store, path)

    loaded = load(path)
    assert loaded.name == "ledger"
    assert loaded.collection("credits").find() == [
        {"_id": "c0", "amount": 1}
    ]
    assert loaded.collection("debits").find({"ref": "c0"}) == [
        {"_id": "d0", "ref": "c0"}
    ]


def test_snapshot_blocks_collection_creation_mid_capture():
    """A collection created while a snapshot runs lands in the *next*
    save, never half-in the current one."""
    store = DocumentStore(name="s")
    store.collection("a").insert({"_id": "1"})
    snapshot = store.snapshot()
    store.collection("b").insert({"_id": "2"})
    assert set(snapshot["collections"]) == {"a"}
    assert set(store.snapshot()["collections"]) == {"a", "b"}
