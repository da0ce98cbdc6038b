"""OLAP queries over a deployed star schema.

After deployment the demo's users "tune and use" the warehouse; this
module is the *use* part: slice/dice/roll-up queries over the fact and
dimension tables the Design Deployer created in the embedded database.
Each query also renders itself as SQL (:meth:`OlapQuery.to_sql`), which
is what would be shipped to PostgreSQL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineError
from repro.engine.columnar import aggregate_values
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.engine.sqlgen import select_statement
from repro.expressions import evaluate, parse
from repro.expressions.ast import Expression


@dataclass
class OlapQuery:
    """A star query: aggregate measures grouped by dimension attributes.

    ``joins`` lists the dimension tables to bring in as
    ``(dimension_table, fact_fk_column, dimension_key_column)``.
    """

    fact_table: str
    group_by: List[str] = field(default_factory=list)
    aggregates: List[Tuple[str, str, str]] = field(default_factory=list)
    slicer: Optional[str] = None
    joins: List[Tuple[str, str, str]] = field(default_factory=list)

    def to_sql(self, dialect: str = "postgres") -> str:
        """Render the (denormalised) SQL SELECT for this query."""
        where: Optional[Expression] = (
            parse(self.slicer) if self.slicer is not None else None
        )
        return select_statement(
            table=self.fact_table,
            columns=self.group_by,
            aggregates=self.aggregates,
            where=where,
            group_by=self.group_by,
            order_by=self.group_by,
            dialect=dialect,
        )


def query_star(database: Database, query: OlapQuery) -> Relation:
    """Execute an OLAP query against the embedded database.

    Joins each listed dimension into the fact rows, applies the slicer,
    groups and aggregates.  Deterministic output order (group-by key).
    """
    fact = database.scan(query.fact_table)
    schema = dict(fact.schema)
    rows = [dict(row) for row in fact.rows]
    for dimension_table, fact_column, dimension_key in query.joins:
        dimension = database.scan(dimension_table)
        if fact_column not in schema:
            raise EngineError(
                f"fact table {query.fact_table!r} has no column "
                f"{fact_column!r}"
            )
        index = {}
        for dimension_row in dimension.rows:
            index[dimension_row[dimension_key]] = dimension_row
        for name, scalar_type in dimension.schema.items():
            if name not in schema:
                schema[name] = scalar_type
        joined = []
        for row in rows:
            match = index.get(row[fact_column])
            if match is None:
                continue
            combined = dict(row)
            for name in dimension.schema:
                if name not in combined:
                    combined[name] = match[name]
            joined.append(combined)
        rows = joined

    if query.slicer is not None:
        predicate = parse(query.slicer)
        rows = [row for row in rows if evaluate(predicate, row) is True]

    for column in query.group_by:
        if column not in schema:
            raise EngineError(f"unknown group-by column {column!r}")

    groups: Dict[tuple, list] = {}
    if not query.group_by:
        groups[()] = []
    for row in rows:
        key = tuple(row[column] for column in query.group_by)
        groups.setdefault(key, []).append(row)

    result_schema = {column: schema[column] for column in query.group_by}
    output_rows = []
    # NULLs first, then by value: the ORDER BY that ``to_sql`` renders.
    for key in sorted(
        groups, key=lambda k: tuple((part is not None, part) for part in k)
    ):
        members = groups[key]
        out = dict(zip(query.group_by, key))
        for function, input_column, alias in query.aggregates:
            if members and input_column not in members[0]:
                raise EngineError(f"unknown measure column {input_column!r}")
            values = [
                member[input_column]
                for member in members
                if member[input_column] is not None
            ]
            out[alias] = aggregate_values(function, values)
        output_rows.append(out)
    for function, input_column, alias in query.aggregates:
        if function == "COUNT":
            from repro.expressions.types import ScalarType

            result_schema[alias] = ScalarType.INTEGER
        else:
            result_schema[alias] = schema.get(input_column)
    # Fill untyped aggregate slots conservatively.
    from repro.expressions.types import ScalarType as _ST

    for name, value in list(result_schema.items()):
        if value is None:
            result_schema[name] = _ST.DECIMAL
    return Relation(schema=result_schema, rows=output_rows)
