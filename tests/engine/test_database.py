"""Unit tests for the embedded database."""

import pytest

from repro.errors import EngineError, IntegrityError, UnknownTableError
from repro.engine import Database, TableDef
from repro.engine.database import ForeignKeyDef
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
STR = ScalarType.STRING


@pytest.fixture
def db():
    database = Database("test")
    database.create_table(
        TableDef("dept", {"dept_id": INT, "dept_name": STR}, primary_key=("dept_id",))
    )
    database.create_table(
        TableDef(
            "emp",
            {"emp_id": INT, "name": STR, "dept_id": INT},
            primary_key=("emp_id",),
            foreign_keys=(ForeignKeyDef(("dept_id",), "dept"),),
        )
    )
    database.insert("dept", {"dept_id": 1, "dept_name": "R&D"})
    return database


class TestDDL:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(EngineError):
            db.create_table(TableDef("dept", {"x": INT}))

    def test_if_not_exists_is_silent(self, db):
        db.create_table(TableDef("dept", {"x": INT}), if_not_exists=True)
        assert "dept_name" in db.table_def("dept").columns

    def test_fk_target_must_exist(self, db):
        with pytest.raises(EngineError):
            db.create_table(
                TableDef(
                    "bad",
                    {"x": INT},
                    foreign_keys=(ForeignKeyDef(("x",), "ghost"),),
                )
            )

    def test_pk_column_must_exist(self):
        with pytest.raises(EngineError):
            TableDef("t", {"a": INT}, primary_key=("ghost",))

    def test_fk_column_must_exist(self):
        with pytest.raises(EngineError):
            TableDef(
                "t", {"a": INT}, foreign_keys=(ForeignKeyDef(("ghost",), "x"),)
            )

    def test_drop_table(self, db):
        db.drop_table("emp")
        assert not db.has_table("emp")

    def test_drop_referenced_table_rejected(self, db):
        with pytest.raises(EngineError):
            db.drop_table("dept")

    def test_drop_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.drop_table("ghost")


class TestIntegrity:
    def test_insert_and_scan(self, db):
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept_id": 1})
        assert db.row_count("emp") == 1
        assert db.scan("emp").rows[0]["name"] == "ann"

    def test_duplicate_pk_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.insert("dept", {"dept_id": 1, "dept_name": "dup"})

    def test_null_pk_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.insert("dept", {"dept_id": None, "dept_name": "x"})

    def test_dangling_fk_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.insert("emp", {"emp_id": 1, "name": "ann", "dept_id": 99})

    def test_null_fk_allowed(self, db):
        db.insert("emp", {"emp_id": 1, "name": "ann", "dept_id": None})

    def test_composite_pk(self):
        database = Database()
        database.create_table(
            TableDef("t", {"a": INT, "b": INT}, primary_key=("a", "b"))
        )
        database.insert("t", {"a": 1, "b": 1})
        database.insert("t", {"a": 1, "b": 2})
        with pytest.raises(IntegrityError):
            database.insert("t", {"a": 1, "b": 1})

    def test_insert_many_counts(self, db):
        count = db.insert_many(
            "emp",
            [
                {"emp_id": 1, "name": "a", "dept_id": 1},
                {"emp_id": 2, "name": "b", "dept_id": 1},
            ],
        )
        assert count == 2

    def test_truncate_resets_pk_index(self, db):
        db.insert("emp", {"emp_id": 1, "name": "a", "dept_id": 1})
        db.truncate("emp")
        assert db.row_count("emp") == 0
        db.insert("emp", {"emp_id": 1, "name": "a", "dept_id": 1})


class TestSourceLoading:
    def test_load_tpch(self, tpch_db):
        assert set(tpch_db.table_names()) == {
            "region", "nation", "supplier", "customer",
            "part", "partsupp", "orders", "lineitem",
        }
        counts = tpch_db.row_counts()
        assert counts["region"] == 5
        assert counts["lineitem"] > counts["orders"] >= 1

    def test_load_respects_fk_order(self):
        # load_source must insert parents before children even though
        # the generator returns tables in declaration order.
        from repro.sources import retail

        database = Database()
        inserted = database.load_source(retail.schema(), retail.generate(0.2))
        assert inserted["ticket_line"] > 0


def keyed_db():
    database = Database()
    database.create_table(TableDef("k", {"id": INT, "v": STR}, primary_key=("id",)))
    return database


class TestStoredValues:
    """The table keeps its own copy of every value it accepted."""

    def test_insert_does_not_keep_the_callers_row(self):
        database = keyed_db()
        row = {"id": 1, "v": "x"}
        database.insert("k", row)
        row["id"] = "not-an-int"
        assert database.scan("k").rows == [{"id": 1, "v": "x"}]
        assert database.scan_columns("k").columns["id"] == [1]
        with pytest.raises(IntegrityError, match=r"duplicate primary key \(1,\)"):
            database.insert("k", {"id": 1, "v": "y"})

    def test_insert_many_does_not_keep_the_callers_rows(self):
        database = keyed_db()
        rows = [{"id": 1, "v": "x"}, {"id": 2, "v": "y"}]
        database.insert_many("k", rows)
        rows[0]["id"] = "not-an-int"
        rows[1]["v"] = None
        assert database.scan("k").rows == [
            {"id": 1, "v": "x"},
            {"id": 2, "v": "y"},
        ]

    def test_insert_columns_does_not_keep_the_callers_columns(self):
        database = keyed_db()
        columns = {"id": [1, 2], "v": ["x", "y"]}
        database.insert_columns("k", columns, 2)
        columns["id"][0] = "not-an-int"
        columns["v"].append("z")
        assert database.scan_columns("k").columns == {
            "id": [1, 2],
            "v": ["x", "y"],
        }

    def test_scan_rows_are_the_callers_own(self):
        database = keyed_db()
        database.insert("k", {"id": 1, "v": "x"})
        first = database.scan("k")
        first.rows[0]["v"] = "changed"
        first.rows.append({"id": 2, "v": "y"})
        assert database.scan("k").rows == [{"id": 1, "v": "x"}]
        assert database.scan("k") is not database.scan("k")

    def test_a_snapshot_never_changes_after_later_writes(self):
        database = keyed_db()
        database.insert_many("k", [{"id": 1, "v": "x"}, {"id": 2, "v": "y"}])
        before = database.scan_columns("k")
        database.insert("k", {"id": 3, "v": "z"})
        database.insert_columns("k", {"id": [4], "v": ["w"]}, 1)
        assert before.length == 2
        assert before.columns == {"id": [1, 2], "v": ["x", "y"]}
        database.truncate("k")
        assert before.length == 2
        assert before.columns == {"id": [1, 2], "v": ["x", "y"]}
        assert database.scan_columns("k").length == 0

    def test_scan_columns_returns_the_snapshot_until_a_write(self):
        database = keyed_db()
        database.insert("k", {"id": 1, "v": "x"})
        snapshot = database.scan_columns("k")
        assert database.scan_columns("k") is snapshot
        database.scan("k")
        assert database.scan_columns("k") is snapshot
        database.insert_many("k", [])
        assert database.scan_columns("k") is snapshot


class TestColumnWrites:
    def test_ragged_columns_are_refused_before_storing(self):
        database = Database()
        database.create_table(TableDef("t", {"a": INT, "b": INT}))
        with pytest.raises(EngineError, match="column 'b' holds 1 values, expected 3"):
            database.insert_columns("t", {"a": [1, 2, 3], "b": [1]}, 3)
        assert database.row_count("t") == 0

    def test_keyless_columns_report_the_first_failing_row(self):
        database = Database()
        database.create_table(TableDef("t", {"a": INT, "b": INT}))
        with pytest.raises(
            EngineError, match=r"attribute 'b': expected integer, got decimal \(2\.5\)"
        ):
            database.insert_columns("t", {"a": [1, 1, 1.5], "b": [2, 2.5, 2]}, 3)
        assert database.scan("t").rows == [{"a": 1, "b": 2}]

    def test_wrong_names_report_the_first_rows_error(self):
        database = Database()
        database.create_table(TableDef("t", {"a": INT, "b": INT}))
        with pytest.raises(EngineError, match=r"unknown attributes \['c'\]"):
            database.insert_columns("t", {"a": [], "b": [], "c": []}, 0)
        with pytest.raises(EngineError, match="missing attribute 'b'"):
            database.insert_columns("t", {"a": [1]}, 1)
        # Row 0 fails on 'a' before its missing 'b' is reached.
        with pytest.raises(EngineError, match="attribute 'a': expected integer"):
            database.insert_columns("t", {"a": ["x"]}, 1)
        assert database.row_count("t") == 0

    def test_keyed_columns_load_in_one_batch(self, db):
        loaded = db.insert_columns(
            "emp",
            {"emp_id": [1, 2], "name": ["a", "b"], "dept_id": [1, None]},
            2,
        )
        assert loaded == 2
        assert db.scan("emp").rows[1] == {"emp_id": 2, "name": "b", "dept_id": None}


class TestMidBatchFailures:
    """A failing row in the middle of a batch leaves the rows before it
    stored, the key index matching them, and raises that row's error."""

    def rows(self, failing):
        return [
            {"emp_id": 1, "name": "a", "dept_id": 1},
            {"emp_id": 2, "name": "b", "dept_id": None},
            failing,
            {"emp_id": 4, "name": "d", "dept_id": 1},
        ]

    @pytest.mark.parametrize(
        ("failing", "error", "message"),
        [
            (
                {"emp_id": 1, "name": "c", "dept_id": 1},
                IntegrityError,
                r"'emp': duplicate primary key \(1,\)",
            ),
            (
                {"emp_id": None, "name": "c", "dept_id": 1},
                IntegrityError,
                r"'emp': NULL in primary key \(None,\)",
            ),
            (
                {"emp_id": 3, "name": "c", "dept_id": 99},
                IntegrityError,
                r"'emp': foreign key \(99,\) has no match in 'dept'",
            ),
            (
                {"emp_id": 3, "name": 7, "dept_id": 1},
                EngineError,
                r"attribute 'name': expected string, got integer \(7\)",
            ),
        ],
    )
    def test_insert_many_keeps_the_prefix(self, db, failing, error, message):
        with pytest.raises(error, match=message):
            db.insert_many("emp", self.rows(failing))
        assert db.scan("emp").rows == self.rows(failing)[:2]
        assert db.row_count("emp") == 2
        for emp_id in (1, 2):
            with pytest.raises(IntegrityError, match="duplicate primary key"):
                db.insert("emp", {"emp_id": emp_id, "name": "x", "dept_id": 1})
        for emp_id in (3, 4):
            db.insert("emp", {"emp_id": emp_id, "name": "x", "dept_id": 1})

    def test_duplicate_within_the_batch(self, db):
        rows = [
            {"emp_id": 5, "name": "a", "dept_id": 1},
            {"emp_id": 6, "name": "b", "dept_id": 1},
            {"emp_id": 5, "name": "c", "dept_id": 1},
        ]
        with pytest.raises(IntegrityError, match=r"duplicate primary key \(5,\)"):
            db.insert_many("emp", rows)
        assert [row["emp_id"] for row in db.scan("emp").rows] == [5, 6]

    def test_columns_fail_like_rows(self, db):
        with pytest.raises(IntegrityError, match=r"foreign key \(99,\) has no match"):
            db.insert_columns(
                "emp",
                {"emp_id": [1, 2, 3], "name": ["a", "b", "c"], "dept_id": [1, 99, 1]},
                3,
            )
        assert db.scan("emp").rows == [{"emp_id": 1, "name": "a", "dept_id": 1}]
