"""Partitioned kernels for the parallel columnar engine.

``Executor(mode="parallel")`` splits each relation into contiguous
row-range chunks and drives the per-chunk kernels below across a thread
pool.  The contract of every kernel is **byte-identical results** to
the serial columnar engine:

* Chunks are contiguous and processed results are merged *in chunk
  order*, so row order — and with it NULL placement, sort stability
  and ``distinct``/group first-occurrence order — is exactly the
  serial order.
* Joins are not partitioned: they run the serial kernel
  (:func:`repro.engine.columnar.hash_join`), whose output shares the
  left input's column lists where it can, which no chunked copy could.
* Aggregation parallelises only the grouping scan.  Chunks return
  *member position lists*, merged order-preservingly into the serial
  group layout; the aggregate functions then fold the exact serial
  value sequences, which keeps floating-point results bit-identical
  (float addition is not associative — merging partial sums would
  not be).
* Errors keep parity: chunk results are collected in chunk order and
  the earliest chunk's exception wins, which is the chunk holding the
  globally-first failing row; unhashable-key reporting scans the full
  key columns (:func:`repro.engine.columnar.unhashable_key_error`), so
  messages are independent of which chunk tripped first.

The kernels (:func:`filter_chunk`, :func:`derive_chunk`,
:func:`group_chunk`, :func:`run_chain_chunk`) are
pure functions over explicit arguments that share column lists
zero-copy across a ``ThreadPoolExecutor``; on CPython the GIL bounds
their speedup.

Fused chains compile from a :class:`ChainSpec` — a frozen, hashable
description (expression *texts* plus resolved slot indices) — via
:func:`compile_chain_spec`, memoised, so a chain compiles once however
often it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.columnar import ColumnarRelation
from repro.expressions.compiler import compile_expression
from repro.expressions.types import ScalarType

#: Default worker-pool width of ``Executor(mode="parallel")``.
DEFAULT_WORKERS = 4

#: Relations smaller than this run on the serial columnar kernels —
#: below it, chunk bookkeeping costs more than the scan itself.
DEFAULT_PARALLEL_ROW_THRESHOLD = 4096


def chunk_ranges(length: int, workers: int) -> List[Tuple[int, int]]:
    """Split ``range(length)`` into ``workers`` contiguous ranges.

    Sizes differ by at most one row; fewer ranges come back when there
    are fewer rows than workers.  A single range signals the caller to
    stay on the serial path.
    """
    if workers <= 1 or length <= 1:
        return [(0, length)]
    count = min(workers, length)
    base, extra = divmod(length, count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def slice_relation(
    relation: ColumnarRelation,
    start: int,
    stop: int,
    names: Optional[Sequence[str]] = None,
) -> ColumnarRelation:
    """The rows ``[start, stop)`` as a relation (column-slice copies).

    ``names`` restricts the slice to a read-set: only those columns are
    copied (and appear in the result's schema) — chunk tasks that only
    read a few columns must not pay for the rest.
    """
    selected = relation.schema if names is None else names
    return ColumnarRelation(
        schema={name: relation.schema[name] for name in selected},
        columns={
            name: relation.columns[name][start:stop] for name in selected
        },
        length=stop - start,
    )


def concat_parts(
    schema: Dict[str, object], parts: List[ColumnarRelation]
) -> ColumnarRelation:
    """Merge chunk results in chunk order (one pass per column)."""
    columns: Dict[str, list] = {name: [] for name in schema}
    length = 0
    for part in parts:
        for name in schema:
            columns[name].extend(part.columns[name])
        length += part.length
    return ColumnarRelation(
        schema=dict(schema), columns=columns, length=length
    )


# -- selection / derivation ---------------------------------------------------


def filter_chunk(
    function, argument_columns: List[list], start: int, stop: int
) -> List[int]:
    """Global positions of the chunk's rows the predicate keeps."""
    chunk = [column[start:stop] for column in argument_columns]
    return [
        start + offset
        for offset, value in enumerate(map(function, *chunk))
        if value is True
    ]


def derive_chunk(
    function, argument_columns: List[list], start: int, stop: int
) -> list:
    """The derived values of the chunk's rows, in row order."""
    chunk = [column[start:stop] for column in argument_columns]
    return list(map(function, *chunk))


# -- aggregation --------------------------------------------------------------


def group_chunk(
    group_columns: List[list], start: int, stop: int
) -> Tuple[List[tuple], List[List[int]]]:
    """Group one chunk: local first-seen key order, global positions.

    ``TypeError`` on unhashable group keys propagates for the caller to
    wrap.
    """
    chunk_columns = [column[start:stop] for column in group_columns]
    group_of: Dict[tuple, int] = {}
    keys_in_order: List[tuple] = []
    members: List[List[int]] = []
    for offset, key in enumerate(zip(*chunk_columns)):
        slot = group_of.get(key)
        if slot is None:
            group_of[key] = slot = len(members)
            keys_in_order.append(key)
            members.append([])
        members[slot].append(start + offset)
    return keys_in_order, members


def merge_group_chunks(
    parts: List[Tuple[List[tuple], List[List[int]]]],
) -> Tuple[List[tuple], List[List[int]]]:
    """Fold chunk groupings into the serial group layout.

    Chunk-order iteration over chunk-local first-seen key orders yields
    the global first-seen order; extending member lists in the same
    sweep keeps every group's positions in ascending row order — the
    aggregate fold then consumes exactly the serial value sequences.
    """
    group_of: Dict[tuple, int] = {}
    keys_in_order: List[tuple] = []
    members: List[List[int]] = []
    for chunk_keys, chunk_members in parts:
        for key, positions in zip(chunk_keys, chunk_members):
            slot = group_of.get(key)
            if slot is None:
                group_of[key] = len(members)
                keys_in_order.append(key)
                members.append(positions)
            else:
                members[slot].extend(positions)
    return keys_in_order, members


# -- fused chains -------------------------------------------------------------


@dataclass(frozen=True)
class ChainSpec:
    """A hashable description of one fused unary chain.

    ``steps`` hold expression *source text* plus resolved slot indices
    — never compiled closures — so a spec keys the compile cache of
    :func:`compile_chain_spec`.  ``input_names`` is the chain's
    **read-set**: the input columns the steps and the output actually
    touch, not the whole input schema (chunk tasks slice only these).
    """

    input_names: Tuple[str, ...]
    #: ("filter", text, argument_positions, counter) or
    #: ("derive", text, argument_positions, output_slot)
    steps: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    output_schema: Tuple[Tuple[str, ScalarType], ...]
    output_positions: Tuple[int, ...]
    filter_count: int


class ChainProgram:
    """A fused single-pass program over an input relation.

    ``steps`` interleave compiled filters and derivations in chain
    order; pure structural stages (projection, extraction, rename) were
    resolved at build time into the slot mapping, so they cost nothing
    at runtime.
    """

    def __init__(self, spec: ChainSpec) -> None:
        self.input_names = list(spec.input_names)
        self.steps = [
            (kind, compile_expression(text).column_fn, positions, slot)
            for kind, text, positions, slot in spec.steps
        ]
        self.output_schema: Dict[str, ScalarType] = dict(spec.output_schema)
        self.output_positions = list(spec.output_positions)
        self.filter_count = spec.filter_count

    def run(self, relation: ColumnarRelation):
        filter_counts = [0] * self.filter_count
        if not self.steps:
            # Pure structural chain: zero-copy column re-selection.
            source = [relation.columns[name] for name in self.input_names]
            columns = {
                name: source[position]
                for name, position in zip(
                    self.output_schema, self.output_positions
                )
            }
            result = ColumnarRelation(
                schema=dict(self.output_schema),
                columns=columns,
                length=relation.length,
            )
            return result, filter_counts
        source = [relation.columns[name] for name in self.input_names]
        if source:
            row_iter = zip(*source)
        else:
            row_iter = (() for _ in range(relation.length))
        kept: List[tuple] = []
        steps = self.steps
        for values in row_iter:
            survived = True
            for step in steps:
                if step[0] == "filter":
                    __, function, positions, counter = step
                    if function(*[values[p] for p in positions]) is not True:
                        survived = False
                        break
                    filter_counts[counter] += 1
                else:
                    __, function, positions, __slot = step
                    values = (*values, function(*[values[p] for p in positions]))
            if survived:
                kept.append(values)
        columns = {
            name: [values[position] for values in kept]
            for name, position in zip(
                self.output_schema, self.output_positions
            )
        }
        result = ColumnarRelation(
            schema=dict(self.output_schema),
            columns=columns,
            length=len(kept),
        )
        return result, filter_counts


@lru_cache(maxsize=512)
def compile_chain_spec(spec: ChainSpec) -> ChainProgram:
    """Compile a chain spec, memoised: repeated chains across
    ``execute()`` calls compile once."""
    return ChainProgram(spec)


def run_chain_chunk(program, relation: ColumnarRelation, start: int, stop: int):
    """Run a fused chain program over one chunk of its input.

    Slices only the program's read-set — columns the chain neither
    reads nor outputs are not copied.
    """
    return program.run(
        slice_relation(relation, start, stop, names=program.input_names)
    )

