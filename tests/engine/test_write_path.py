"""Error parity of the batch write path with row-at-a-time inserts.

``Database`` checks a whole batch column by column and, when a check
fails, stores the rows before the first failing row and raises that
row's error.  The property here: for random valid batches with at most
one fault injected at a random position, every entry point
(``insert_many``, a loop of ``insert``, ``insert_columns`` on a keyed
and on a keyless table, and ``load_source``) raises the same exception
type and text and leaves the same rows, row count and key index as a
per-row reference that inserts into a list and a set.
"""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, TableDef
from repro.engine.database import ForeignKeyDef
from repro.errors import EngineError, IntegrityError, TypeCheckError
from repro.expressions import ScalarType
from repro.sources.schema import ForeignKey, SourceSchema, make_table

INT = ScalarType.INTEGER
DEC = ScalarType.DECIMAL
STR = ScalarType.STRING
DATE = ScalarType.DATE

PARENT_SCHEMA = {"pa": INT, "pb": STR}
PARENT_ROWS = [{"pa": 1, "pb": "x"}, {"pa": 2, "pb": "y"}]
SCHEMA = {"id": INT, "tag": STR, "amount": DEC, "day": DATE, "pa": INT, "pb": STR}
PRIMARY_KEY = ("id", "tag")
FOREIGN_KEY = ("pa", "pb")
STORED_ROWS = [
    {
        "id": 1, "tag": "a", "amount": 1.5, "day": datetime.date(2020, 1, 1),
        "pa": 1, "pb": "x",
    },
    {"id": 2, "tag": "b", "amount": None, "day": None, "pa": None, "pb": None},
]

FAULTS = (
    "unknown attribute",
    "missing attribute",
    "True in an INTEGER column",
    "a list",
    "NULL in a PK part",
    "duplicate PK within the batch",
    "duplicate of a stored key",
    "FK with no match",
)
ATTRIBUTE_FAULTS = ("unknown attribute", "missing attribute")


class Reference:
    """Row-at-a-time inserts into a list and a set."""

    def __init__(self, name, keyed):
        self.name = name
        self.keyed = keyed
        self.rows = []
        self.index = set()

    def insert(self, row):
        extra = set(row) - set(SCHEMA)
        if extra:
            raise EngineError(f"row has unknown attributes {sorted(extra)}")
        for name, expected in SCHEMA.items():
            if name not in row:
                raise EngineError(f"row is missing attribute {name!r}")
            value = row[name]
            if value is None:
                continue
            actual = _type_of(value)
            if actual is expected:
                continue
            if expected is DEC and actual is INT:
                continue
            raise EngineError(
                f"attribute {name!r}: expected {expected}, got {actual} "
                f"({value!r})"
            )
        key = None
        if self.keyed:
            key = tuple(row[column] for column in PRIMARY_KEY)
            if any(part is None for part in key):
                raise IntegrityError(f"{self.name!r}: NULL in primary key {key}")
            if key in self.index:
                raise IntegrityError(
                    f"{self.name!r}: duplicate primary key {key}"
                )
            values = tuple(row[column] for column in FOREIGN_KEY)
            if not any(value is None for value in values) and values not in {
                (row["pa"], row["pb"]) for row in PARENT_ROWS
            }:
                raise IntegrityError(
                    f"{self.name!r}: foreign key {values} has no match in 'p'"
                )
        self.rows.append(dict(row))
        if key is not None:
            self.index.add(key)


def _type_of(value):
    if isinstance(value, bool):
        return ScalarType.BOOLEAN
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DEC
    if isinstance(value, str):
        return STR
    if isinstance(value, datetime.date):
        return DATE
    raise TypeCheckError(f"value {value!r} is outside the scalar type system")


def reference_run(name, keyed, rows):
    """(exception or None, reference) after inserting ``rows`` in order."""
    reference = Reference(name, keyed)
    try:
        for row in rows:
            reference.insert(row)
    except (EngineError, TypeCheckError) as exc:
        return exc, reference
    return None, reference


def database():
    database = Database()
    database.create_table(TableDef("p", PARENT_SCHEMA, primary_key=("pa", "pb")))
    database.insert_many("p", PARENT_ROWS)
    database.create_table(
        TableDef(
            "c",
            SCHEMA,
            primary_key=PRIMARY_KEY,
            foreign_keys=(ForeignKeyDef(FOREIGN_KEY, "p"),),
        )
    )
    database.create_table(TableDef("plain", SCHEMA))
    database.insert_many("c", STORED_ROWS)
    database.insert_many("plain", STORED_ROWS)
    return database


def source_schema():
    schema = SourceSchema("parity")
    schema.add_table(
        make_table(
            "c",
            list(SCHEMA.items()),
            primary_key=PRIMARY_KEY,
            foreign_keys=[ForeignKey(FOREIGN_KEY, "p", ("pa", "pb"))],
        )
    )
    schema.add_table(
        make_table("p", list(PARENT_SCHEMA.items()), primary_key=("pa", "pb"))
    )
    return schema


def as_columns(rows):
    return {name: [row[name] for row in rows] for name in SCHEMA}


def outcome(call):
    try:
        call()
    except (EngineError, TypeCheckError) as exc:
        return exc
    return None


def same_error(actual, expected):
    if expected is None:
        return actual is None
    return type(actual) is type(expected) and str(actual) == str(expected)


def probe_keys(database, table, keys, index):
    """Re-insert a valid row under each key: it must be refused as a
    duplicate exactly when the reference index holds the key."""
    for key in sorted(keys, key=repr):
        row = dict(zip(PRIMARY_KEY, key), amount=None, day=None, pa=None, pb=None)
        error = outcome(lambda row=row: database.insert(table, row))
        if key in index:
            assert isinstance(error, IntegrityError), key
            assert "duplicate primary key" in str(error)
        else:
            assert error is None, (key, error)


def valid_row(draw, position):
    parent = draw(
        st.sampled_from([(1, "x"), (2, "y"), (None, "x"), (1, None), (None, None)])
    )
    return {
        "id": 100 + position,
        "tag": draw(st.sampled_from(["a", "b"])),
        # An int is a valid DECIMAL, a datetime a valid DATE.
        "amount": draw(
            st.one_of(
                st.none(),
                st.integers(-3, 3),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            )
        ),
        "day": draw(
            st.sampled_from(
                [
                    None,
                    datetime.date(2021, 5, 6),
                    datetime.datetime(2021, 5, 6, 7, 8),
                ]
            )
        ),
        "pa": parent[0],
        "pb": parent[1],
    }


@st.composite
def batches(draw):
    size = draw(st.integers(0, 7))
    rows = [valid_row(draw, position) for position in range(size)]
    fault = draw(st.sampled_from((None,) + FAULTS))
    if fault is None or not rows:
        return rows, None
    position = draw(st.integers(0, size - 1))
    row = rows[position]
    if fault == "unknown attribute":
        row["zzz"] = 1
    elif fault == "missing attribute":
        del row[draw(st.sampled_from(sorted(SCHEMA)))]
    elif fault == "True in an INTEGER column":
        row[draw(st.sampled_from(["id", "pa"]))] = True
    elif fault == "a list":
        row[draw(st.sampled_from(sorted(SCHEMA)))] = [1, 2]
    elif fault == "NULL in a PK part":
        row[draw(st.sampled_from(PRIMARY_KEY))] = None
    elif fault == "duplicate PK within the batch":
        if position == 0:
            return rows, None
        earlier = rows[draw(st.integers(0, position - 1))]
        row["id"], row["tag"] = earlier["id"], earlier["tag"]
    elif fault == "duplicate of a stored key":
        stored = draw(st.sampled_from(STORED_ROWS))
        row["id"], row["tag"] = stored["id"], stored["tag"]
    elif fault == "FK with no match":
        row["pa"], row["pb"] = 99, "zz"
    return rows, fault


def check_entry_point(table, keyed, make_database, call, rows):
    db = make_database()
    error = outcome(lambda: call(db))
    expected, reference = reference_run(table, keyed, STORED_ROWS + rows)
    assert same_error(error, expected), (error, expected)
    assert db.scan(table).rows == reference.rows
    assert db.row_count(table) == len(reference.rows)
    assert db.scan_columns(table).length == len(reference.rows)
    if keyed:
        keys = [
            tuple(row.get(column) for column in PRIMARY_KEY)
            for row in STORED_ROWS + rows
        ]
        probe_keys(
            db,
            table,
            {key for key in keys if all(type(part) in (int, str) for part in key)},
            reference.index,
        )


@settings(max_examples=300, deadline=None)
@given(batches())
def test_every_entry_point_fails_like_row_at_a_time_inserts(batch):
    rows, fault = batch

    def insert_loop(db):
        for row in rows:
            db.insert("c", row)

    check_entry_point("c", True, database, lambda db: db.insert_many("c", rows), rows)
    check_entry_point("c", True, database, insert_loop, rows)
    check_entry_point(
        "plain", False, database, lambda db: db.insert_many("plain", rows), rows
    )
    if fault not in ATTRIBUTE_FAULTS:
        # Columns cannot express one row's attribute fault.
        columns = as_columns(rows)
        for table, keyed in (("c", True), ("plain", False)):
            check_entry_point(
                table,
                keyed,
                database,
                lambda db, table=table: db.insert_columns(table, columns, len(rows)),
                rows,
            )
    check_entry_point(
        "c",
        True,
        Database,
        lambda db: db.load_source(
            source_schema(), {"p": PARENT_ROWS, "c": STORED_ROWS + rows}
        ),
        rows,
    )
