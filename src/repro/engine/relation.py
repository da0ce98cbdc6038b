"""In-memory relations: a typed schema plus a list of row dicts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.errors import EngineError, TypeCheckError
from repro.expressions.types import ScalarType, type_of_value


def conforms(value: object, expected: ScalarType) -> bool:
    """Whether ``value`` may be stored under ``expected``: NULL, a value
    of that type, or an integer where a decimal is expected."""
    try:
        actual = type_of_value(value)
    except TypeCheckError:
        return False
    if actual is None or actual is expected:
        return True
    return expected is ScalarType.DECIMAL and actual is ScalarType.INTEGER


def check_row(schema: Dict[str, ScalarType], row: dict) -> None:
    """Validate a row against a schema.

    Every schema attribute must be present; extra attributes and
    type mismatches (except NULL) are errors.  A value outside the
    type system raises :class:`TypeCheckError`.
    """
    extra = set(row) - set(schema)
    if extra:
        raise EngineError(f"row has unknown attributes {sorted(extra)}")
    for name, expected in schema.items():
        if name not in row:
            raise EngineError(f"row is missing attribute {name!r}")
        value = row[name]
        if not conforms(value, expected):
            raise EngineError(
                f"attribute {name!r}: expected {expected}, got "
                f"{type_of_value(value)} ({value!r})"
            )


@dataclass
class Relation:
    """A bag of rows under an ordered attribute schema."""

    schema: Dict[str, ScalarType]
    rows: List[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def attribute_names(self) -> List[str]:
        return list(self.schema)

    def append(self, row: dict) -> None:
        """Append a row after checking attributes and value types."""
        check_row(self.schema, row)
        self.rows.append(row)

    def extend(self, rows) -> None:
        for row in rows:
            self.append(row)

    def project(self, columns: List[str]) -> "Relation":
        """A new relation with only the given columns (in given order)."""
        missing = [column for column in columns if column not in self.schema]
        if missing:
            raise EngineError(f"cannot project unknown columns {missing}")
        schema = {column: self.schema[column] for column in columns}
        rows = [{column: row[column] for column in columns} for row in self.rows]
        return Relation(schema=schema, rows=rows)

    def distinct(self) -> "Relation":
        """A new relation with duplicate rows removed (order-preserving)."""
        from repro.engine.columnar import unhashable_key_error

        seen = set()
        unique: List[dict] = []
        columns = self.attribute_names()
        try:
            for row in self.rows:
                key = tuple(row[column] for column in columns)
                if key in seen:
                    continue
                seen.add(key)
                unique.append(row)
        except TypeError as exc:
            named = [
                (column, [row[column] for row in self.rows])
                for column in columns
            ]
            raise unhashable_key_error("distinct", named, exc) from exc
        return Relation(schema=dict(self.schema), rows=unique)

    def sorted_by(self, keys: List[str], descending: bool = False) -> "Relation":
        """A new relation sorted by the given keys (NULLs first)."""
        missing = [key for key in keys if key not in self.schema]
        if missing:
            raise EngineError(f"cannot sort by unknown columns {missing}")

        def sort_key(row):
            return tuple(
                (row[key] is not None, row[key]) for key in keys
            )

        ordered = sorted(self.rows, key=sort_key, reverse=descending)
        return Relation(schema=dict(self.schema), rows=ordered)

    def head(self, count: int) -> "Relation":
        return Relation(schema=dict(self.schema), rows=self.rows[:count])
