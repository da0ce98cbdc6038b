"""JSON-file persistence for a :class:`DocumentStore`.

One JSON file per store: ``{"name": ..., "collections": {name: [docs]},
"indexes": {name: [paths]}}``.  Loading recreates collections, index
declarations and documents verbatim (files without an ``"indexes"`` key
load fine); documents must be JSON-serialisable (the metadata layer
guarantees this by converting XML artefacts through
:mod:`repro.xformats.xmljson` first).
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.errors import RepositoryError
from repro.repository.documents import DocumentStore


def save(store: DocumentStore, path) -> None:
    """Write the store atomically and durably (write, fsync, rename).

    The in-memory view is captured via :meth:`DocumentStore.snapshot`,
    which holds every per-collection lock (in stable order) for the
    duration of the read — a save concurrent with writing sessions
    persists a consistent point in time, never a torn one.  The temp
    file is fsynced before it replaces ``path`` and the directory after,
    so a crash or power loss leaves the old file or the new one, never
    an empty or partial one.
    """
    snapshot = store.snapshot()
    payload = {
        "name": store.name,
        "collections": snapshot["collections"],
        "indexes": snapshot["indexes"],
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as file:
            json.dump(payload, file, indent=1, sort_keys=True)
            file.flush()
            os.fsync(file.fileno())
        os.replace(temp_path, path)
    except Exception:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    _fsync_directory(directory)


def _fsync_directory(directory: str) -> None:
    """Persist the directory entry a rename changed (POSIX only)."""
    if os.name != "posix":
        return
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def load(path) -> DocumentStore:
    """Read a store back from disk."""
    try:
        with open(path, "r", encoding="utf-8") as file:
            payload = json.load(file)
    except (OSError, json.JSONDecodeError) as exc:
        raise RepositoryError(f"cannot load document store: {exc}") from exc
    if not isinstance(payload, dict) or "collections" not in payload:
        raise RepositoryError("malformed document store file")
    store = DocumentStore(name=payload.get("name", "quarry"))
    indexes = payload.get("indexes", {})
    for collection_name, documents in payload["collections"].items():
        collection = store.collection(collection_name)
        for index_path in indexes.get(collection_name, []):
            collection.create_index(index_path)
        # One lock hold per collection: a reader that grabs the store
        # mid-load sees each collection either empty or complete.
        collection.bulk_load(documents)
    return store
