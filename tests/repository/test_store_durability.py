"""``store.save`` is crash-safe: fsync, then rename, then fsync the directory.

Write-then-rename alone is atomic but not durable: without an fsync of
the temp file before the rename, a power loss can leave the renamed
file empty or partial, and without an fsync of the directory the rename
itself can be lost.  A save that fails between write and rename must
leave the previous file untouched and no temp file behind.
"""

import os
import stat

import pytest

from repro.repository.documents import DocumentStore
from repro.repository.store import load, save


def ledger(amount):
    store = DocumentStore(name="ledger")
    store.collection("credits").insert({"_id": "c0", "amount": amount})
    return store


def test_failed_rename_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "ledger.json"
    save(ledger(1), path)
    before = path.read_bytes()

    def crash(source, target):
        raise OSError("simulated crash between write and rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save(ledger(2), path)

    assert path.read_bytes() == before
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["ledger.json"]
    assert load(path).collection("credits").find() == [{"_id": "c0", "amount": 1}]


def test_file_is_fsynced_before_rename_and_directory_after(
    tmp_path, monkeypatch
):
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(descriptor):
        kind = "dir" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file"
        events.append(f"fsync {kind}")
        fsync(descriptor)

    def recording_replace(source, target):
        events.append("replace")
        replace(source, target)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    save(ledger(1), tmp_path / "ledger.json")

    expected = ["fsync file", "replace"]
    if os.name == "posix":
        expected.append("fsync dir")
    assert events == expected
