"""The embedded relational database (PostgreSQL stand-in).

Holds named tables with typed schemas, primary keys and foreign keys,
enforcing integrity on insert.  The Design Deployer creates warehouse
tables here, the ETL executor reads sources from and loads facts into
it, and the OLAP helper queries it.

Each table is stored as one immutable :class:`ColumnarRelation`
snapshot.  Every write (:meth:`Database.insert`, ``insert_many``,
``insert_columns`` and ``load_source``) goes through one validator that
checks the whole batch column by column and then publishes a new
snapshot; no published column list is ever mutated.  When a check
fails, the rows before the first failing row are stored and that row's
own error is raised, so the error text and the table left behind are
what inserting the rows one at a time would give.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import EngineError, IntegrityError, UnknownTableError
from repro.engine.columnar import ColumnarRelation
from repro.engine.relation import Relation, check_row, conforms
from repro.expressions.types import ScalarType

_NULL = type(None)

#: Exact Python types that satisfy each scalar type (NULL included)
#: without further checks; values of any other type fall back to
#: :func:`~repro.engine.relation.conforms` (``bool`` is deliberately not
#: an ``int`` here, ``datetime`` still satisfies DATE via the fallback).
_FAST_TYPES: Dict[ScalarType, frozenset] = {
    ScalarType.INTEGER: frozenset((int, _NULL)),
    ScalarType.DECIMAL: frozenset((float, int, _NULL)),
    ScalarType.STRING: frozenset((str, _NULL)),
    ScalarType.BOOLEAN: frozenset((bool, _NULL)),
    ScalarType.DATE: frozenset((datetime.date, _NULL)),
}


@dataclass(frozen=True)
class ForeignKeyDef:
    """A foreign key: local columns -> target table's primary key."""

    columns: Tuple[str, ...]
    target_table: str


@dataclass
class TableDef:
    """A table definition for :meth:`Database.create_table`."""

    name: str
    columns: Dict[str, ScalarType]
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[ForeignKeyDef, ...] = ()

    def __post_init__(self) -> None:
        for key_column in self.primary_key:
            if key_column not in self.columns:
                raise EngineError(
                    f"table {self.name!r}: primary key column "
                    f"{key_column!r} undefined"
                )
        for foreign_key in self.foreign_keys:
            for column in foreign_key.columns:
                if column not in self.columns:
                    raise EngineError(
                        f"table {self.name!r}: foreign key column "
                        f"{column!r} undefined"
                    )


class _Table:
    """Internal table state: definition + column snapshot + PK index."""

    def __init__(self, definition: TableDef) -> None:
        self.definition = definition
        #: The stored rows.  A write replaces the snapshot with a new
        #: one built from new column lists, so a snapshot handed out by
        #: ``scan_columns`` never changes under its reader.
        self.snapshot = _empty_snapshot(definition)
        self._pk_index: set = set()


def _empty_snapshot(definition: TableDef) -> ColumnarRelation:
    return ColumnarRelation(
        dict(definition.columns),
        {name: [] for name in definition.columns},
        length=0,
    )


class Database:
    """A named collection of tables with integrity enforcement."""

    def __init__(self, name: str = "warehouse") -> None:
        self.name = name
        self._tables: Dict[str, _Table] = {}

    # -- DDL ------------------------------------------------------------------

    def create_table(self, definition: TableDef, if_not_exists: bool = False) -> None:
        """Create a table; FK targets must exist already."""
        if definition.name in self._tables:
            if if_not_exists:
                return
            raise EngineError(f"table {definition.name!r} already exists")
        for foreign_key in definition.foreign_keys:
            if foreign_key.target_table not in self._tables:
                raise EngineError(
                    f"table {definition.name!r} references missing table "
                    f"{foreign_key.target_table!r}"
                )
        self._tables[definition.name] = _Table(definition)

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise UnknownTableError(name)
        referers = [
            table.definition.name
            for table in self._tables.values()
            if any(
                fk.target_table == name for fk in table.definition.foreign_keys
            )
        ]
        if referers:
            raise EngineError(
                f"cannot drop {name!r}: referenced by {sorted(referers)}"
            )
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return list(self._tables)

    def table_def(self, name: str) -> TableDef:
        return self._lookup(name).definition

    # -- DML ------------------------------------------------------------------

    def insert(self, table_name: str, row: dict) -> None:
        """Insert one row, enforcing PK uniqueness, NOT NULL keys and FKs.

        A one-row batch: it copies the table's columns, so load many
        rows with :meth:`insert_many`.
        """
        self.insert_many(table_name, [row])

    def insert_many(self, table_name: str, rows) -> int:
        """Insert rows as one batch; returns the number inserted.

        On a failing row, the rows before it stay stored and its error
        is raised, as inserting the rows one by one would.
        """
        table = self._lookup(table_name)
        rows = list(rows)
        columns, length = _pivot(rows, table.definition.columns)
        stored = self._write(table, columns, length)
        if stored < len(rows):
            self._reject(table, rows[stored])
        return stored

    def insert_columns(
        self, table_name: str, columns: Dict[str, list], length: int
    ) -> int:
        """Insert ``length`` rows given as column arrays; returns ``length``.

        The loaders' path: no row dicts are built.  Every column must
        hold exactly ``length`` values; they are copied, never stored by
        reference.  Errors and the rows left stored are those of
        :meth:`insert_many` over the same rows.
        """
        table = self._lookup(table_name)
        for name, values in columns.items():
            if len(values) != length:
                raise EngineError(
                    f"{table_name!r}: column {name!r} holds {len(values)} "
                    f"values, expected {length}"
                )

        def row_at(index: int) -> dict:
            return {name: values[index] for name, values in columns.items()}

        schema = table.definition.columns
        if columns.keys() != schema.keys():
            # Every row has the wrong attributes, so the first one fails.
            self._reject(table, row_at(0) if length else dict.fromkeys(columns))
        stored = self._write(
            table, {name: list(columns[name]) for name in schema}, length
        )
        if stored < length:
            self._reject(table, row_at(stored))
        return stored

    def truncate(self, table_name: str) -> None:
        table = self._lookup(table_name)
        table.snapshot = _empty_snapshot(table.definition)
        table._pk_index = set()

    def _write(
        self, table: _Table, columns: Dict[str, list], length: int
    ) -> int:
        """The one write path: validate a batch, store its valid prefix.

        ``columns`` maps every schema attribute to a list of ``length``
        values that this call may keep.  Each check runs over whole
        columns; the rows before the first row that fails any of them
        are published as a new snapshot.  Returns how many were stored.
        """
        definition = table.definition
        valid = length
        for name, expected in definition.columns.items():
            valid = min(valid, _first_mistyped(columns[name], expected))
        if valid < length:
            # Keep the key checks off values outside the type system.
            columns = {name: values[:valid] for name, values in columns.items()}
        keys = None
        if definition.primary_key:
            key_columns = [columns[name] for name in definition.primary_key]
            keys = list(zip(*key_columns))
            valid = min(valid, _first_bad_key(key_columns, keys, table._pk_index))
        for foreign_key in definition.foreign_keys:
            target = self._lookup(foreign_key.target_table)
            fk_columns = [columns[name] for name in foreign_key.columns]
            valid = min(
                valid, _first_unmatched(fk_columns, valid, target._pk_index)
            )
        if valid:
            stored = table.snapshot
            table.snapshot = ColumnarRelation(
                stored.schema,
                {
                    name: _joined(stored.columns[name], columns[name], valid)
                    for name in stored.schema
                },
                length=stored.length + valid,
            )
            if keys is not None:
                table._pk_index.update(keys[:valid])
        return valid

    def _reject(self, table: _Table, row) -> None:
        """Raise the error of a batch's first failing row.

        The per-row checks, in their per-row order, against the table
        as it stands after the batch's valid prefix was stored.
        """
        definition = table.definition
        check_row(definition.columns, row)
        if definition.primary_key:
            key = tuple(row[column] for column in definition.primary_key)
            if any(part is None for part in key):
                raise IntegrityError(
                    f"{definition.name!r}: NULL in primary key {key}"
                )
            if key in table._pk_index:
                raise IntegrityError(
                    f"{definition.name!r}: duplicate primary key {key}"
                )
        for foreign_key in definition.foreign_keys:
            values = tuple(row[column] for column in foreign_key.columns)
            if any(value is None for value in values):
                continue  # NULL FK is permitted (no reference)
            target = self._lookup(foreign_key.target_table)
            if values not in target._pk_index:
                raise IntegrityError(
                    f"{definition.name!r}: foreign key {values} has no "
                    f"match in {foreign_key.target_table!r}"
                )
        raise EngineError(
            f"{definition.name!r}: row {row!r} failed the batch checks "
            f"but passes the row checks"
        )

    # -- queries ------------------------------------------------------------------

    def scan(self, table_name: str) -> Relation:
        """The table's rows as a new :class:`Relation` of row dicts.

        Built from the stored columns on each call and not cached, so
        the caller owns the result; column readers use
        :meth:`scan_columns`.
        """
        return self._lookup(table_name).snapshot.to_relation()

    def scan_columns(self, table_name: str) -> ColumnarRelation:
        """The table's stored column snapshot (shared — read-only).

        No pivot and no lock: the same object is returned until the
        next write publishes another, so a reader keeps a consistent
        view while a writer replaces it (writers are
        caller-serialised).
        """
        return self._lookup(table_name).snapshot

    def row_count(self, table_name: str) -> int:
        return self._lookup(table_name).snapshot.length

    def row_counts(self) -> Dict[str, int]:
        return {
            name: table.snapshot.length for name, table in self._tables.items()
        }

    # -- bulk loading ---------------------------------------------------------------

    def load_source(
        self, schema, data: Dict[str, list]
    ) -> Dict[str, int]:
        """Create and fill tables from a source schema plus generated data.

        ``schema`` is a :class:`repro.sources.schema.SourceSchema`; the
        tables are created in FK-respecting order and all integrity
        checks apply.  Returns rows inserted per table.
        """
        created: Dict[str, int] = {}
        remaining = list(schema.tables())
        while remaining:
            progressed = False
            for table in list(remaining):
                targets = {fk.target_table for fk in table.foreign_keys}
                if not targets <= set(self._tables) | {table.name}:
                    continue
                self.create_table(
                    TableDef(
                        name=table.name,
                        columns=table.column_types(),
                        primary_key=tuple(table.primary_key),
                        foreign_keys=tuple(
                            ForeignKeyDef(fk.columns, fk.target_table)
                            for fk in table.foreign_keys
                        ),
                    )
                )
                remaining.remove(table)
                progressed = True
            if not progressed:
                raise EngineError("cyclic foreign keys in source schema")
        for table_name in self._topological_table_order(schema):
            created[table_name] = self.insert_many(
                table_name, data.get(table_name, [])
            )
        return created

    def _topological_table_order(self, schema) -> List[str]:
        order: List[str] = []
        remaining = {table.name: table for table in schema.tables()}
        while remaining:
            for name, table in list(remaining.items()):
                targets = {fk.target_table for fk in table.foreign_keys}
                if targets <= set(order) | {name}:
                    order.append(name)
                    del remaining[name]
                    break
            else:
                raise EngineError("cyclic foreign keys in source schema")
        return order

    # -- internals ---------------------------------------------------------------------

    def _lookup(self, name: str) -> _Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None


# -- the batch checks ------------------------------------------------------


def _pivot(rows: list, schema: Dict[str, ScalarType]) -> Tuple[Dict[str, list], int]:
    """Columns of the longest prefix of ``rows`` whose attribute sets
    equal the schema's, and that prefix's length."""
    if set(map(len, rows)) <= {len(schema)}:
        try:
            return {name: [row[name] for row in rows] for name in schema}, len(rows)
        except KeyError:
            pass
    names = schema.keys()
    length = next(
        (index for index, row in enumerate(rows) if row.keys() != names),
        len(rows),
    )
    head = rows[:length]
    return {name: [row[name] for row in head] for name in schema}, length


def _first_mistyped(column: list, expected: ScalarType) -> int:
    """Index of the first value not NULL nor of type ``expected``, or
    ``len(column)``; values of a fast type are checked as a set."""
    fast = _FAST_TYPES[expected]
    if fast.issuperset(map(type, column)):
        return len(column)
    for index, value in enumerate(column):
        if type(value) not in fast and not conforms(value, expected):
            return index
    return len(column)


def _first_bad_key(key_columns: List[list], keys: list, stored: set) -> int:
    """Index of the first primary key with a NULL part or already seen,
    stored or earlier in the batch; ``len(keys)`` if there is none."""
    batch = set(keys)
    if (
        len(batch) == len(keys)
        and batch.isdisjoint(stored)
        and not any(None in column for column in key_columns)
    ):
        return len(keys)
    seen: set = set()
    for index, key in enumerate(keys):
        if None in key or key in stored or key in seen:
            return index
        seen.add(key)
    return len(keys)


def _first_unmatched(columns: List[list], length: int, targets: set) -> int:
    """Index of the first foreign key without a NULL part that is not
    in ``targets``; ``length`` if there is none."""
    if not columns:
        return 0 if length and () not in targets else length
    unmatched = {
        values
        for values in set(zip(*columns)).difference(targets)
        if None not in values
    }
    if unmatched:
        for index, values in enumerate(zip(*columns)):
            if values in unmatched:
                return index
    return length


def _joined(stored: list, batch: list, count: int) -> list:
    """A new column: ``stored`` followed by the first ``count`` of
    ``batch`` (a list the write path owns, so it may be kept)."""
    if count < len(batch):
        batch = batch[:count]
    return stored + batch if stored else batch
