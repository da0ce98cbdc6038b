"""Executing generated SQL against the embedded database.

Closes the loop on the textual deployment artefacts: the DDL script the
Design Deployer emits can be *applied* (``execute_ddl``), and the
single-table SELECT statements the OLAP interface renders can be
*executed* (``execute_select``), so tests can assert that the generated
SQL means what the engine computes.

The supported SQL is intentionally exactly what this system generates:

* ``CREATE DATABASE`` (ignored), ``CREATE TABLE`` with column types of
  :data:`repro.engine.sqlgen._TYPE_NAMES` and a ``PRIMARY KEY`` clause,
* ``SELECT <cols and aggregates> FROM <table> [WHERE ...]
  [GROUP BY ...] [ORDER BY ...];`` over one table.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.engine.columnar import aggregate_values
from repro.engine.database import Database, TableDef
from repro.engine.relation import Relation
from repro.errors import EngineError
from repro.expressions import evaluate
from repro.expressions import parse as parse_expression
from repro.expressions.types import ScalarType

def execute_ddl(database: Database, script: str) -> List[str]:
    """Apply a DDL script; returns the names of the tables created."""
    from repro.core.deployer.ddl_import import _parse_tables

    created: List[str] = []
    for statement in script.split(";"):
        statement = statement.strip()
        if not statement:
            continue
        upper = statement.upper()
        if upper.startswith("CREATE DATABASE"):
            continue
        if upper.startswith("CREATE TABLE"):
            tables = _parse_tables(statement + ";")
            for table_name, (columns, primary_key) in tables.items():
                database.create_table(
                    TableDef(
                        name=table_name,
                        columns=columns,
                        primary_key=tuple(primary_key),
                    )
                )
                created.append(table_name)
            continue
        raise EngineError(f"unsupported DDL statement: {statement[:60]!r}")
    return created


_SELECT_RE = re.compile(
    r"SELECT\s+(?P<outputs>.+?)\s+FROM\s+(?P<table>\"[^\"]+\"|\w+)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?"
    r"(?:\s+GROUP\s+BY\s+(?P<group>.+?))?"
    r"(?:\s+ORDER\s+BY\s+(?P<order>.+?))?"
    r"\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_AGGREGATE_RE = re.compile(
    r"^(?P<function>SUM|AVG|MIN|MAX|COUNT)\s*\(\s*(?P<column>\"[^\"]+\"|\w+)"
    r"\s*\)\s+AS\s+(?P<alias>\"[^\"]+\"|\w+)$",
    re.IGNORECASE,
)


def execute_select(database: Database, sql: str) -> Relation:
    """Execute a generated single-table SELECT statement."""
    match = _SELECT_RE.match(sql.strip())
    if match is None:
        raise EngineError(f"unsupported SELECT shape: {sql[:80]!r}")
    table = match.group("table").strip('"')
    source = database.scan(table)
    rows = list(source.rows)

    where_text = match.group("where")
    if where_text:
        predicate = parse_expression(_desqlify(where_text))
        rows = [row for row in rows if evaluate(predicate, row) is True]

    columns, aggregates = _parse_outputs(match.group("outputs"))
    group_columns = (
        [part.strip().strip('"') for part in match.group("group").split(",")]
        if match.group("group")
        else []
    )
    if group_columns and set(group_columns) != set(columns):
        raise EngineError("GROUP BY columns must match the selected columns")

    if aggregates:
        result = _aggregate(source, rows, columns, aggregates)
    else:
        schema = {column: source.schema[column] for column in columns}
        result = Relation(
            schema=schema,
            rows=[{column: row[column] for column in columns} for row in rows],
        )

    order_text = match.group("order")
    if order_text:
        keys = [part.strip().strip('"') for part in order_text.split(",")]
        result = result.sorted_by(keys)
    return result


def _desqlify(text: str) -> str:
    """Translate generated SQL expression spellings back to ours."""
    return text.replace("<>", "!=").strip()


def _parse_outputs(text: str) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    columns: List[str] = []
    aggregates: List[Tuple[str, str, str]] = []
    for part in _split_top_level(text):
        part = part.strip()
        aggregate = _AGGREGATE_RE.match(part)
        if aggregate:
            function = aggregate.group("function").upper()
            if function == "AVG":
                function = "AVERAGE"
            aggregates.append(
                (
                    function,
                    aggregate.group("column").strip('"'),
                    aggregate.group("alias").strip('"'),
                )
            )
        else:
            columns.append(part.strip('"'))
    return columns, aggregates


def _split_top_level(text: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    parts.append("".join(current))
    return parts


def _aggregate(source, rows, group_columns, aggregates) -> Relation:
    groups = {}
    if not group_columns:
        groups[()] = []
    for row in rows:
        key = tuple(row[column] for column in group_columns)
        groups.setdefault(key, []).append(row)
    schema = {column: source.schema[column] for column in group_columns}
    for function, column, alias in aggregates:
        if function == "COUNT":
            schema[alias] = ScalarType.INTEGER
        elif function == "AVERAGE":
            schema[alias] = ScalarType.DECIMAL
        else:
            schema[alias] = source.schema[column]
    output = []
    for key in sorted(groups, key=lambda k: tuple(str(part) for part in k)):
        members = groups[key]
        row = dict(zip(group_columns, key))
        for function, column, alias in aggregates:
            values = [
                member[column]
                for member in members
                if member[column] is not None
            ]
            row[alias] = aggregate_values(function, values)
        output.append(row)
    return Relation(schema=schema, rows=output)
