"""Columnar in-memory relations: the executor's batch representation.

A :class:`ColumnarRelation` stores one Python list per attribute instead
of one dict per row.  That buys the executor:

* **zero-copy** ``project``/``rename``/``head`` (column lists are shared,
  never copied — relations are treated as immutable),
* **batch** ``take``/``distinct``/``sorted_by`` that touch each column
  once instead of rebuilding row dicts,
* one **hash join** for every columnar mode (:func:`hash_join`): it
  hashes the right key columns (raw values for one key, tuples for
  several, ``()`` for none), probes them in one pass and gathers.  When
  every left row comes out once and in order (an FK probe of a
  duplicate-free right side, or a LEFT join on one), the output shares
  the left input's column lists and gathers only the payload,
* **hash aggregation** directly on column arrays (:func:`hash_aggregate`),
  numbering groups and bucketing values with C-level ``map``,
* an optional per-execution **memo** (:func:`memoised`) that runs each
  distinct index build, probe and gather once, keyed on the identity of
  the lists it reads,
* cheap evaluation of compiled expressions with
  ``map(column_fn, *columns)`` — no per-row dict in the hot path.

The database stores each table as a ``ColumnarRelation`` snapshot.
The row-dict world is still the interface of ``Database.scan``,
``sqlexec.py``, ``olap.py`` and the deployers, so the class carries
adapters both ways: :meth:`from_relation` / :meth:`from_rows` to enter,
and a cached ``.rows`` property, ``__iter__`` and an uncached
:meth:`to_relation` to leave.  Any code that handled a
:class:`repro.engine.relation.Relation` result keeps working against a
columnar one.

Sharing is safe because no relation is mutated once built, and
loaders copy: ``Database.insert_columns`` stores copies of the lists it
is given, never the lists of an intermediate.

Semantics mirror the row implementations exactly (NULL-key behaviour in
joins, first-occurrence order in ``distinct``, NULLs-first sorting,
insertion-ordered groups) so the compiled-columnar executor is
bit-identical to the legacy row interpreter.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import compress, count, repeat
from operator import is_not, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EngineError, ExecutionError
from repro.expressions.types import ScalarType


def unhashable_key_error(
    op_label: str, named_values, cause: Exception
) -> ExecutionError:
    """The uniform error for an unhashable key value in a hash-based op.

    ``named_values`` is an iterable of ``(attribute, values)`` pairs in
    the op's key order; the first unhashable value found names the
    attribute in the message, so both executor modes — which call this
    from their own loops — report the identical failure instead of a
    bare ``TypeError: unhashable type``.
    """
    for name, values in named_values:
        for value in values:
            try:
                hash(value)
            except TypeError:
                return ExecutionError(
                    f"{op_label}: unhashable value {value!r} for key "
                    f"attribute {name!r}"
                )
    return ExecutionError(f"{op_label}: {cause}")


def _key_iter(columns: Sequence[list], length: int):
    """Iterate per-row key tuples over the given columns.

    ``zip(*[])`` would yield nothing, but a zero-column key is ``()``
    for every row — this helper keeps that edge case correct.
    """
    if columns:
        return zip(*columns)
    return (() for _ in range(length))


#: A right side hashed for probing: ``(unique, duplicates)``, see
#: :func:`_join_index`.
JoinIndex = Tuple[Dict[object, int], Dict[object, List[int]]]

#: One execution's memo: a key naming its source lists by ``id`` maps to
#: ``(result, sources)``.  Holding the sources keeps every ``id`` in a
#: live key from being reused.
Memo = Dict[tuple, tuple]


def memoised(memo: Optional[Memo], key: tuple, sources, compute):
    """``compute()``, run once per ``key`` while ``memo`` lives.

    ``key`` names ``sources`` by identity, which is sound because no
    list a relation holds is mutated once built.  With no memo (a kernel
    called outside an execution) it just computes.
    """
    if memo is None:
        return compute()
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (compute(), sources)
    return entry[0]


def gather(
    column: list,
    positions: List[int],
    memo: Optional[Memo] = None,
    outer: bool = False,
) -> list:
    """``column`` at ``positions``; with ``outer`` a position of ``-1``
    (a LEFT join's unmatched row) reads NULL."""

    def compute() -> list:
        source = column + [None] if outer else column
        return [source[position] for position in positions]

    return memoised(
        memo,
        ("gather", id(column), id(positions), outer),
        (column, positions),
        compute,
    )


class ColumnarRelation:
    """A bag of rows under an ordered attribute schema, stored by column."""

    __slots__ = ("schema", "columns", "length", "_row_cache")

    def __init__(
        self,
        schema: Dict[str, ScalarType],
        columns: Dict[str, list],
        length: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.columns = columns
        if length is None:
            if not columns:
                raise EngineError(
                    "a zero-column relation needs an explicit length"
                )
            length = len(next(iter(columns.values())))
        self.length = length
        self._row_cache: Optional[List[dict]] = None

    # -- adapters to and from the row-dict world ---------------------------

    @classmethod
    def from_rows(
        cls, schema: Dict[str, ScalarType], rows: List[dict]
    ) -> "ColumnarRelation":
        columns = {name: [row[name] for row in rows] for name in schema}
        return cls(schema, columns, length=len(rows))

    @classmethod
    def from_relation(cls, relation) -> "ColumnarRelation":
        """Convert a row :class:`~repro.engine.relation.Relation`."""
        return cls.from_rows(dict(relation.schema), relation.rows)

    @property
    def rows(self) -> List[dict]:
        """Rows as dicts (materialised once, then cached)."""
        if self._row_cache is None:
            self._row_cache = self._row_dicts()
        return self._row_cache

    def to_relation(self):
        """A row :class:`~repro.engine.relation.Relation` of new dicts,
        built on each call and never cached on this relation."""
        from repro.engine.relation import Relation

        return Relation(schema=dict(self.schema), rows=self._row_dicts())

    def _row_dicts(self) -> List[dict]:
        names = list(self.schema)
        columns = [self.columns[name] for name in names]
        if columns:
            return [dict(zip(names, values)) for values in zip(*columns)]
        return [{} for _ in range(self.length)]

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[dict]:
        return iter(self.rows)

    def attribute_names(self) -> List[str]:
        return list(self.schema)

    # -- structural operators (zero-copy) ----------------------------------

    def project(self, columns: List[str]) -> "ColumnarRelation":
        """Keep only the given columns, sharing their arrays."""
        missing = [column for column in columns if column not in self.schema]
        if missing:
            raise EngineError(f"cannot project unknown columns {missing}")
        return ColumnarRelation(
            schema={column: self.schema[column] for column in columns},
            columns={column: self.columns[column] for column in columns},
            length=self.length,
        )

    def rename_columns(self, mapping: Dict[str, str]) -> "ColumnarRelation":
        """Rename attributes, sharing the column arrays."""
        schema = {
            mapping.get(name, name): scalar_type
            for name, scalar_type in self.schema.items()
        }
        columns = {
            mapping.get(name, name): column
            for name, column in self.columns.items()
        }
        return ColumnarRelation(schema=schema, columns=columns, length=self.length)

    def head(self, count: int) -> "ColumnarRelation":
        return ColumnarRelation(
            schema=dict(self.schema),
            columns={name: column[:count] for name, column in self.columns.items()},
            length=len(range(self.length)[:count]),
        )

    # -- batch operators ---------------------------------------------------

    def take(
        self, indices: List[int], memo: Optional[Memo] = None
    ) -> "ColumnarRelation":
        """Rows at the given positions, in the given order."""
        return ColumnarRelation(
            schema=dict(self.schema),
            columns={
                name: gather(column, indices, memo)
                for name, column in self.columns.items()
            },
            length=len(indices),
        )

    def distinct(self) -> "ColumnarRelation":
        """Duplicate rows removed, first occurrence kept (order-preserving)."""
        seen = set()
        keep: List[int] = []
        key_columns = [self.columns[name] for name in self.schema]
        try:
            for index, key in enumerate(_key_iter(key_columns, self.length)):
                if key in seen:
                    continue
                seen.add(key)
                keep.append(index)
        except TypeError as exc:
            raise unhashable_key_error(
                "distinct", zip(self.schema, key_columns), exc
            ) from exc
        if len(keep) == self.length:
            return self
        return self.take(keep)

    def sorted_by(
        self, keys: List[str], descending: bool = False
    ) -> "ColumnarRelation":
        """Rows sorted by the given keys (NULLs first, stable)."""
        missing = [key for key in keys if key not in self.schema]
        if missing:
            raise EngineError(f"cannot sort by unknown columns {missing}")
        key_columns = [self.columns[key] for key in keys]

        def sort_key(index):
            return tuple(
                (column[index] is not None, column[index])
                for column in key_columns
            )

        order = sorted(range(self.length), key=sort_key, reverse=descending)
        return self.take(order)

    def concat(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Bag union with an identically-shaped relation."""
        return ColumnarRelation(
            schema=dict(self.schema),
            columns={
                name: self.columns[name] + other.columns[name]
                for name in self.schema
            },
            length=self.length + other.length,
        )


def _join_keys(columns: Sequence[list], length: int) -> Sequence:
    """Each row's equi-join key, ``None`` where a key part is NULL.

    One key column is used as is, with no tuple packing; several are
    zipped into tuples, in C when no column holds a NULL; none gives
    every row the key ``()``, so a keyless join is a cross product.
    ``None in key`` finds the NULL parts: no value the engine stores
    compares equal to ``None``.
    """
    if len(columns) == 1:
        return columns[0]
    if not columns:
        return [()] * length
    if not any(None in column for column in columns):
        return list(zip(*columns))
    return [None if None in key else key for key in zip(*columns)]


def _join_index(key_columns: Sequence[list], length: int) -> JoinIndex:
    """Hash the right side of an equi-join on its key columns.

    ``unique`` maps each key to its first right position; ``duplicates``
    maps each key that occurs more than once to all its positions, in
    order.  NULL keys are in neither, so they never match.  A
    ``TypeError`` on an unhashable key propagates for the caller to
    wrap.
    """
    keys = _join_keys(key_columns, length)
    unique = dict(zip(keys, range(length)))
    if len(unique) == length:
        # No key repeats, so each key's only position is its first.
        unique.pop(None, None)
        return unique, {}
    unique = {}
    duplicates: Dict[object, List[int]] = {}
    for position, key in enumerate(keys):
        if key is None:
            continue
        first = unique.setdefault(key, position)
        if first != position:
            duplicates.setdefault(key, [first]).append(position)
    return unique, duplicates


def _join_probe(
    index: JoinIndex, keys: Sequence, left_outer: bool
) -> Tuple[Optional[List[int]], List[int]]:
    """Matched (left, right) positions; ``-1`` marks a LEFT join's
    unmatched row.  The left positions are ``None`` when they would be
    ``0..len(keys)-1``."""
    unique, duplicates = index
    if not duplicates:
        matches = list(map(unique.get, keys))
        if None not in matches:
            return None, matches
        if left_outer:
            return None, [-1 if match is None else match for match in matches]
        return (
            [
                position
                for position, match in enumerate(matches)
                if match is not None
            ],
            [match for match in matches if match is not None],
        )
    fan_out = duplicates.get
    first = unique.get
    left_take: List[int] = []
    right_take: List[int] = []
    for position, key in enumerate(keys):
        matches = fan_out(key)
        if matches is not None:
            left_take.extend([position] * len(matches))
            right_take.extend(matches)
            continue
        match = first(key)
        if match is not None:
            left_take.append(position)
            right_take.append(match)
        elif left_outer:
            left_take.append(position)
            right_take.append(-1)
    return left_take, right_take


def hash_join(
    left: ColumnarRelation,
    right: ColumnarRelation,
    left_keys: List[str],
    right_keys: List[str],
    payload: List[str],
    schema: Dict[str, ScalarType],
    left_outer: bool = False,
    memo: Optional[Memo] = None,
) -> ColumnarRelation:
    """Equi-join over column arrays: build, probe and gather.

    ``payload`` names the right-side columns carried into the output
    (the caller already resolved same-name key columns and collisions).
    Rows with a NULL key part never match; with ``left_outer`` they are
    kept with NULL payload.  Output order matches the row-at-a-time
    join: left order, matches in right insertion order.  When that is
    every left row once, in order, the output shares the left
    relation's column lists (as :meth:`ColumnarRelation.project` does)
    and gathers only the payload.

    With a ``memo``, the index is keyed on the right key columns, the
    probe on both sides' key columns and the join type, and each gather
    on its column and positions, all by identity.  A repeated join so
    returns the first one's lists, and a join keyed on them hits too.
    """
    left_key_columns = [left.columns[key] for key in left_keys]
    right_key_columns = [right.columns[key] for key in right_keys]
    # The lengths name a keyless join's keys, which no column holds.
    left_id = (left.length, *map(id, left_key_columns))
    right_id = (right.length, *map(id, right_key_columns))
    index_key = ("index", right_id)
    try:
        index = memoised(
            memo,
            index_key,
            right_key_columns,
            lambda: _join_index(right_key_columns, right.length),
        )
        left_take, right_take = memoised(
            memo,
            ("probe", left_id, right_id, left_outer),
            (left_key_columns, right_key_columns),
            lambda: _join_probe(
                index, _join_keys(left_key_columns, left.length), left_outer
            ),
        )
    except TypeError as exc:
        if memo is not None:
            memo.pop(index_key, None)  # an unhashable key memoises nothing
        named = list(zip(left_keys, left_key_columns))
        named += zip(right_keys, right_key_columns)
        raise unhashable_key_error("join", named, exc) from exc

    if left_take is None:
        columns = dict(left.columns)
    else:
        columns = {
            name: gather(column, left_take, memo)
            for name, column in left.columns.items()
        }
    outer = left_outer and -1 in right_take
    for name in payload:
        columns[name] = gather(right.columns[name], right_take, memo, outer)
    return ColumnarRelation(
        schema=schema, columns=columns, length=len(right_take)
    )


def _number_groups(
    columns: Sequence[list], length: int, first: int = 0
) -> Tuple[List[int], Dict[object, int]]:
    """Each row's group number, counting from ``first`` in first-seen
    order, and the groups' first keys in that order (raw values for one
    column, tuples for several, ``()`` for none).

    ``defaultdict(count().__next__)`` mapped over the keys numbers them
    in C.  A ``TypeError`` on an unhashable key propagates for the
    caller to wrap.
    """
    groups: Dict[object, int] = defaultdict(count(first).__next__)
    keys = columns[0] if len(columns) == 1 else _key_iter(columns, length)
    return list(map(groups.__getitem__, keys)), groups


def hash_aggregate(
    relation: ColumnarRelation,
    group_by: Tuple[str, ...],
    aggregates,
    schema: Dict[str, ScalarType],
) -> ColumnarRelation:
    """Hash aggregation over column arrays.

    Groups appear in first-seen order (matching dict insertion order of
    the row implementation); a global aggregate (empty ``group_by``)
    always yields exactly one row.  Each aggregate's input is bucketed
    by group number with ``map`` over ``list.append``, keeping row
    order within a group, and its NULLs are dropped first when it holds
    any; no Python code runs per row.
    """
    columns: Dict[str, list] = {}
    if group_by:
        group_columns = [relation.columns[name] for name in group_by]
        try:
            slots, groups = _number_groups(group_columns, relation.length)
        except TypeError as exc:
            raise unhashable_key_error(
                "aggregate", zip(group_by, group_columns), exc
            ) from exc
        if len(group_by) == 1:
            columns[group_by[0]] = list(groups)
        else:
            for key_position, name in enumerate(group_by):
                columns[name] = list(map(itemgetter(key_position), groups))
        group_count = len(groups)
    else:
        slots, group_count = None, 1

    for spec in aggregates:
        values = relation.columns[spec.input]
        value_slots = slots
        if None in values:
            present = list(map(is_not, values, repeat(None)))
            values = list(compress(values, present))
            if slots is not None:
                value_slots = list(compress(slots, present))
        if slots is None:
            buckets = [values]
        else:
            buckets = [[] for __ in range(group_count)]
            appends = map(
                list.append, map(buckets.__getitem__, value_slots), values
            )
            deque(appends, maxlen=0)  # runs the appends
        columns[spec.output] = [
            aggregate_values(spec.function, bucket) for bucket in buckets
        ]
    return ColumnarRelation(schema=schema, columns=columns, length=group_count)


def surrogate_keys(
    relation: ColumnarRelation, business_keys: Tuple[str, ...]
) -> List[int]:
    """Dense surrogate key per row, stable across repeated business keys."""
    key_columns = [relation.columns[name] for name in business_keys]
    try:
        return _number_groups(key_columns, relation.length, first=1)[0]
    except TypeError as exc:
        raise unhashable_key_error(
            "surrogate-key", zip(business_keys, key_columns), exc
        ) from exc


def aggregate_values(function: str, values: list):
    """Aggregate non-NULL values; empty input yields NULL (COUNT: 0)."""
    if function == "COUNT":
        return len(values)
    if not values:
        return None
    if function == "SUM":
        return sum(values)
    if function == "AVERAGE":
        return sum(values) / len(values)
    if function == "MIN":
        return min(values)
    if function == "MAX":
        return max(values)
    raise ExecutionError(f"unknown aggregate function {function!r}")
