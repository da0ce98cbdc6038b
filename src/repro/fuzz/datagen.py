"""Adversarial random tables for differential fuzzing.

The value pools are deliberately nasty: NULL in every type, falsy values
(``0``, ``0.0``, ``""``, ``False``) that break truthiness shortcuts,
tiny domains so joins and group-bys collide constantly, strings that
differ only by case or whitespace, and the occasional unhashable list
smuggled past type checks via :class:`LooseDatabase`.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.engine.columnar import ColumnarRelation
from repro.engine.database import TableDef
from repro.engine.relation import Relation
from repro.errors import UnknownTableError
from repro.expressions.types import ScalarType

#: Small pools so duplicate keys and hash collisions are the norm, not
#: the exception.  Integers stay tiny (arithmetic overflow is not a
#: target); decimals mix int and float representations of equal values.
_POOLS: Dict[ScalarType, list] = {
    ScalarType.INTEGER: [0, 1, -1, 2, 3, 7, 100],
    ScalarType.DECIMAL: [0.0, 0, 1.5, -0.5, 2, 0.25, 3.0, -1],
    ScalarType.STRING: ["", "a", "b", "aa", "ab", " a", "a ", "A"],
    ScalarType.BOOLEAN: [True, False],
    ScalarType.DATE: [
        datetime.date(2015, 3, 1),
        datetime.date(2015, 3, 15),
        datetime.date(2015, 12, 31),
        datetime.date(2020, 1, 1),
    ],
}

_NULL_PROBABILITY = 0.15

_TYPES = tuple(_POOLS)


@dataclass
class TableSpec:
    """One generated source table: name, ordered typed schema, rows."""

    name: str
    schema: Dict[str, ScalarType]
    rows: List[dict] = field(default_factory=list)


def random_value(rng: random.Random, scalar_type: ScalarType):
    """A random (possibly NULL) value of the given scalar type."""
    if rng.random() < _NULL_PROBABILITY:
        return None
    return rng.choice(_POOLS[scalar_type])


def make_tables(rng: random.Random, prefix: str = "t") -> List[TableSpec]:
    """Generate 1-3 random tables with adversarial contents.

    Column names are prefixed with the table name so generated joins
    mostly avoid name collisions — the generator introduces collisions
    deliberately (self-joins, renames) rather than by accident.
    """
    tables: List[TableSpec] = []
    for table_index in range(rng.randint(1, 3)):
        name = f"{prefix}{table_index}"
        schema = {
            f"{name}_c{column_index}": rng.choice(_TYPES)
            for column_index in range(rng.randint(2, 4))
        }
        # Empty tables are common enough to matter: 1 in 6.
        row_count = 0 if rng.random() < 1 / 6 else rng.randint(1, 8)
        rows = [
            {column: random_value(rng, t) for column, t in schema.items()}
            for _ in range(row_count)
        ]
        tables.append(TableSpec(name=name, schema=schema, rows=rows))
    return tables


def inject_unhashable(rng: random.Random, tables: List[TableSpec]) -> None:
    """Replace one random value with a list, which no scalar type
    admits.  Only :class:`LooseDatabase` lets such a value through; it
    then must produce the *same* ``ExecutionError`` in both engine
    modes when it reaches a hashing operator.  Tables without rows are
    never picked; when every table is empty nothing is injected."""
    populated = [table for table in tables if table.rows]
    if not populated:
        return
    table = rng.choice(populated)
    row = rng.choice(table.rows)
    column = rng.choice(list(table.schema))
    row[column] = [1, 2]


class LooseDatabase:
    """A duck-type of :class:`repro.engine.database.Database` with no
    type or integrity checking.

    The fuzzer wants adversarial values (including unhashable ones) to
    reach the *operators*, not to be rejected at the door; the strict
    database would veto them on insert.  Implements exactly the surface
    the executor touches: ``scan``/``scan_columns`` for datastores and
    ``has_table``/``create_table``/``table_def``/``drop_table``/
    ``truncate``/``insert_many``/``insert_columns`` for loaders.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Relation] = {}

    @classmethod
    def from_specs(cls, specs: List[TableSpec]) -> "LooseDatabase":
        database = cls()
        for spec in specs:
            database._tables[spec.name] = Relation(
                schema=dict(spec.schema),
                rows=[dict(row) for row in spec.rows],
            )
        return database

    # -- DDL (loader targets) --------------------------------------------

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def create_table(self, definition: TableDef, if_not_exists: bool = False) -> None:
        self._tables[definition.name] = Relation(
            schema=dict(definition.columns)
        )

    def table_def(self, name: str) -> TableDef:
        return TableDef(name=name, columns=dict(self._lookup(name).schema))

    def drop_table(self, name: str) -> None:
        self._lookup(name)
        del self._tables[name]

    def truncate(self, name: str) -> None:
        self._lookup(name).rows.clear()

    def table_names(self) -> List[str]:
        return list(self._tables)

    # -- DML ----------------------------------------------------------------

    def insert_many(self, name: str, rows) -> int:
        relation = self._lookup(name)
        count = 0
        for row in rows:
            relation.rows.append(dict(row))
            count += 1
        return count

    def insert_columns(
        self, name: str, columns: Dict[str, list], length: int
    ) -> int:
        relation = self._lookup(name)
        names = list(relation.schema)
        ordered = [columns[column] for column in names]
        if ordered:
            relation.rows.extend(
                dict(zip(names, values)) for values in zip(*ordered)
            )
        else:
            relation.rows.extend({} for _ in range(length))
        return length

    # -- queries --------------------------------------------------------------

    def scan(self, name: str) -> Relation:
        return self._lookup(name)

    def scan_columns(self, name: str) -> ColumnarRelation:
        return ColumnarRelation.from_relation(self._lookup(name))

    def row_count(self, name: str) -> int:
        return len(self._lookup(name))

    # -- internals --------------------------------------------------------------

    def _lookup(self, name: str) -> Relation:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None
