"""Regression: engine reads must be safe under a worker pool.

``Database.scan_columns`` once pivoted row storage into a lazily cached
columnar view, which needed a per-table lock so that concurrent readers
shared one pivot.  Tables are now stored as column snapshots, so a scan
is a plain read: concurrent readers must all get the stored snapshot
itself, and nothing may pivot.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.columnar import ColumnarRelation
from repro.engine.database import Database, TableDef
from repro.expressions.types import ScalarType

THREADS = 8


def _database(rows: int = 200) -> Database:
    database = Database()
    database.create_table(
        TableDef(
            "t", {"k": ScalarType.INTEGER, "v": ScalarType.STRING}
        )
    )
    database.insert_many(
        "t", [{"k": index, "v": f"row{index}"} for index in range(rows)]
    )
    return database


def test_scan_columns_shares_one_snapshot_under_contention(monkeypatch):
    database = _database()
    pivots = []
    original = ColumnarRelation.from_relation.__func__

    def counting_pivot(cls, relation):
        pivots.append(threading.get_ident())
        return original(cls, relation)

    monkeypatch.setattr(
        ColumnarRelation, "from_relation", classmethod(counting_pivot)
    )
    barrier = threading.Barrier(THREADS)

    def scan():
        barrier.wait(timeout=10)
        return database.scan_columns("t")

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        relations = list(pool.map(lambda _: scan(), range(THREADS)))

    assert pivots == []
    first = relations[0]
    assert all(relation is first for relation in relations)
    assert first is database.scan_columns("t")
    assert first.length == 200


def test_scan_columns_cache_still_invalidated_by_writes():
    database = _database(rows=3)
    before = database.scan_columns("t")
    database.insert("t", {"k": 99, "v": "new"})
    after = database.scan_columns("t")
    assert after is not before
    assert before.length == 3
    assert after.length == 4

