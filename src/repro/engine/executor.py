"""Executor for logical ETL flows — the Pentaho PDI stand-in.

Runs an :class:`repro.etlmodel.flow.EtlFlow` against a
:class:`repro.engine.database.Database` and reports per-node row counts,
wall-clock time and throughput, so the "overall execution time" quality
factor of the demo can be *measured*, not only estimated.

Four execution modes share one dispatch skeleton:

* ``"columnar"`` (default) — the compiled-columnar core: operations run
  over :class:`repro.engine.columnar.ColumnarRelation` column arrays,
  predicates and derivations are lowered to Python closures by
  :mod:`repro.expressions.compiler` (no per-row tree walking), adjacent
  Selection/Projection/Extraction/DerivedAttribute/Rename chains are
  fused into a single pass over the data, and loads go through the
  database's bulk column path.
* ``"legacy"`` — the original row-at-a-time interpreter over dict rows,
  kept as the semantic reference: ``benchmarks/run_engine`` gates the
  columnar path on bit-identical results against this mode.
* ``"planned"`` — the columnar core behind the statistics-driven
  cost-based rewrite pipeline of :mod:`repro.planner`: the flow is
  rewritten (selection/projection pushdown, join reordering, build-side
  choice) before execution and per-node cardinality estimates are
  attached to the stats for q-error reporting.
* ``"parallel"`` — the columnar core with partitioned execution:
  relations are split into contiguous row chunks and the fused chains,
  selections, derivations, join probes and grouping scans run across a
  ``ThreadPoolExecutor`` (:mod:`repro.engine.parallel`), with chunk
  results merged in chunk order so results stay byte-identical to
  ``"columnar"``.  Small inputs (below ``parallel_row_threshold``) fall
  back to the serial kernels.

Structural bookkeeping is shared and cheap: the topological order is
computed once per ``execute()`` and intermediate results are released by
a per-node consumer countdown (O(V+E) overall, not O(n²)).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.engine.columnar import (
    ColumnarRelation,
    aggregate_values,
    hash_aggregate,
    hash_join,
    surrogate_keys,
    unhashable_key_error,
)
from repro.engine.parallel import (
    DEFAULT_PARALLEL_ROW_THRESHOLD,
    DEFAULT_WORKERS,
    ChainSpec,
    build_join_index,
    chunk_ranges,
    compile_chain_spec,
    concat_parts,
    derive_chunk,
    filter_chunk,
    group_chunk,
    join_chunk,
    merge_group_chunks,
    run_chain_chunk,
)
from repro.engine.database import Database, TableDef
from repro.engine.relation import Relation
from repro.etlmodel.flow import EtlFlow
from repro.engine.scd import scd_merge
from repro.etlmodel.ops import (
    Aggregation,
    Datastore,
    DerivedAttribute,
    Extraction,
    Join,
    JoinType,
    Loader,
    Projection,
    Rename,
    SCDUpdate,
    Selection,
    Sort,
    SurrogateKey,
)
from repro.expressions import evaluate, parse
from repro.expressions.compiler import CompiledExpression, compile_expression
from repro.expressions.types import ScalarType


@dataclass
class NodeStats:
    """Row counts and elapsed time of one executed node."""

    name: str
    kind: str
    input_rows: int
    output_rows: int
    seconds: float
    #: The planner's cardinality estimate (``planned`` mode only).
    estimated_rows: Optional[float] = None

    @property
    def rows_per_second(self) -> float:
        """Throughput of the node (input rows driven through it)."""
        rows = max(self.input_rows, self.output_rows)
        if self.seconds <= 0.0:
            return 0.0
        return rows / self.seconds

    @property
    def q_error(self) -> Optional[float]:
        """The q-error of the planner's estimate: ``max(est/act, act/est)``
        with both sides floored at one row, so 1.0 is a perfect estimate.
        ``None`` outside ``planned`` mode."""
        if self.estimated_rows is None:
            return None
        estimated = max(self.estimated_rows, 1.0)
        actual = max(float(self.output_rows), 1.0)
        return max(estimated / actual, actual / estimated)


@dataclass
class ExecutionStats:
    """Execution report of one flow run."""

    flow: str
    nodes: List[NodeStats] = field(default_factory=list)
    seconds: float = 0.0
    loaded: Dict[str, int] = field(default_factory=dict)

    def node(self, name: str) -> NodeStats:
        for stats in self.nodes:
            if stats.name == name:
                return stats
        raise KeyError(name)

    @property
    def total_rows_processed(self) -> int:
        return sum(stats.input_rows for stats in self.nodes)


#: Operation kinds a fused single-pass chain may contain.
_FUSABLE_KINDS = frozenset(
    {"Selection", "Projection", "Extraction", "DerivedAttribute", "Rename"}
)

#: kind -> method-name dispatch tables (resolved per instance so the
#: methods are bound); replaces the old isinstance chain.
_COLUMNAR_DISPATCH = {
    "Datastore": "_scan_columnar",
    "Extraction": "_project_columnar",
    "Projection": "_project_columnar",
    "Selection": "_filter_columnar",
    "Join": "_join_columnar",
    "Aggregation": "_aggregate_columnar",
    "DerivedAttribute": "_derive_columnar",
    "Rename": "_rename_columnar",
    "Union": "_union_columnar",
    "SurrogateKey": "_surrogate_columnar",
    "Sort": "_sort_columnar",
    "Distinct": "_distinct_columnar",
    "SCDUpdate": "_scd_columnar",
    "Loader": "_load_columnar",
}

#: ``parallel`` mode: the columnar table with the partitionable
#: operators swapped for their chunked kernels.
_PARALLEL_OVERRIDES = {
    "Selection": "_filter_parallel",
    "DerivedAttribute": "_derive_parallel",
    "Join": "_join_parallel",
    "Aggregation": "_aggregate_parallel",
}

_LEGACY_DISPATCH = {
    "Datastore": "_scan_legacy",
    "Extraction": "_project_legacy",
    "Projection": "_project_legacy",
    "Selection": "_filter_legacy",
    "Join": "_join_legacy",
    "Aggregation": "_aggregate_legacy",
    "DerivedAttribute": "_derive_legacy",
    "Rename": "_rename_legacy",
    "Union": "_union_legacy",
    "SurrogateKey": "_surrogate_legacy",
    "Sort": "_sort_legacy",
    "Distinct": "_distinct_legacy",
    "SCDUpdate": "_scd_legacy",
    "Loader": "_load_legacy",
}


def fusion_plan(
    flow: EtlFlow,
    order: List[str],
    inputs_of: Dict[str, List[str]],
) -> Tuple[Dict[str, List[str]], frozenset]:
    """Find maximal fusable unary chains.

    A chain is a run of Selection/Projection/Extraction/
    DerivedAttribute/Rename nodes where each link is the sole
    consumer of its predecessor.  Returns ``{head: [chain...]}``
    plus the set of non-head members to skip in the main loop.

    Module-level so the planner can anticipate which chains the engine
    will fuse (its fusion veto keys on the chain heads found here).
    """
    chains: Dict[str, List[str]] = {}
    absorbed: set = set()
    for name in order:
        if name in absorbed or name in chains:
            continue
        if flow.node(name).kind not in _FUSABLE_KINDS:
            continue
        chain = [name]
        current = name
        while True:
            successors = flow.outputs(current)
            if len(successors) != 1:
                break
            successor = successors[0]
            if flow.node(successor).kind not in _FUSABLE_KINDS:
                break
            if inputs_of[successor] != [current]:
                break
            chain.append(successor)
            current = successor
        if len(chain) >= 2:
            chains[name] = chain
            absorbed.update(chain[1:])
    return chains, frozenset(absorbed)


class Executor:
    """Executes ETL flows against a database.

    ``mode`` selects the execution core: ``"columnar"`` (default, the
    compiled-columnar engine), ``"planned"`` (the columnar engine behind
    the cost-based rewrite pipeline of :mod:`repro.planner`),
    ``"parallel"`` (the columnar engine with chunk-partitioned operators
    over a ``workers``-wide thread pool) or ``"legacy"`` (the row-at-a-time
    reference interpreter).  All four produce identical results.

    A parallel executor owns its thread pool; it is spawned lazily,
    reused across ``execute()`` calls and released by :meth:`close`
    (the executor is also a context manager).  Relations shorter than
    ``parallel_row_threshold`` rows run on the serial kernels.
    """

    def __init__(
        self,
        database: Database,
        mode: str = "columnar",
        workers: int = DEFAULT_WORKERS,
        parallel_row_threshold: int = DEFAULT_PARALLEL_ROW_THRESHOLD,
    ) -> None:
        if mode not in ("columnar", "legacy", "planned", "parallel"):
            raise ValueError(f"unknown executor mode {mode!r}")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._database = database
        self.mode = mode
        self.workers = workers
        self._parallel_threshold = parallel_row_threshold
        self._pool_instance = None
        table = _LEGACY_DISPATCH if mode == "legacy" else _COLUMNAR_DISPATCH
        self._dispatch: Dict[str, Callable] = {
            kind: getattr(self, attr) for kind, attr in table.items()
        }
        if mode == "parallel":
            for kind, attr in _PARALLEL_OVERRIDES.items():
                self._dispatch[kind] = getattr(self, attr)
        #: The last plan produced in ``planned`` mode (for explain/tests).
        self.last_plan = None
        #: Statistics catalog shared across executions: its generation
        #: counters invalidate per-table, so repeated runs against the
        #: same sources reuse their histograms instead of rescanning.
        self._stats_catalog = None

    # -- worker pool --------------------------------------------------------

    @property
    def _pool(self):
        if self._pool_instance is None:
            self._pool_instance = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-exec",
            )
        return self._pool_instance

    def close(self) -> None:
        """Release the worker pool (no-op for serial executors)."""
        if self._pool_instance is not None:
            self._pool_instance.shutdown(wait=True)
            self._pool_instance = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def execute(
        self, flow: EtlFlow, keep_intermediate: bool = False
    ) -> ExecutionStats:
        """Run a flow; returns stats (and keeps node outputs on demand).

        Raises :class:`ExecutionError` wrapping any evaluation problem,
        naming the failing node.
        """
        flow.check()
        plan = None
        if self.mode == "planned":
            # Imported lazily: the planner imports this module for the
            # fusion-chain shape, so a top-level import would cycle.
            from repro.engine.stats import StatisticsCatalog
            from repro.planner import plan_flow

            if self._stats_catalog is None:
                self._stats_catalog = StatisticsCatalog(self._database)
            plan = plan_flow(flow, self._stats_catalog)
            flow = plan.flow
        self.last_plan = plan
        stats = ExecutionStats(flow=flow.name)
        relations: Dict[str, object] = {}
        order = flow.topological_order()
        inputs_of = {name: flow.inputs(name) for name in order}
        # Consumer countdown: an intermediate is dropped as soon as its
        # last consumer has run (O(V+E) over the whole execution).
        consumers_left = {name: len(flow.outputs(name)) for name in order}
        chains: Dict[str, List[str]] = {}
        members: frozenset = frozenset()
        if self.mode != "legacy" and not keep_intermediate:
            chains, members = fusion_plan(flow, order, inputs_of)
            if plan is not None and plan.no_fuse:
                chains = {
                    head: chain
                    for head, chain in chains.items()
                    if head not in plan.no_fuse
                }
                members = frozenset(
                    member
                    for chain in chains.values()
                    for member in chain[1:]
                )
        started = time.perf_counter()
        for name in order:
            if name in members:
                continue  # executed as part of its chain
            if name in chains:
                chain = chains[name]
                inputs = [relations[source] for source in inputs_of[name]]
                self._execute_chain(flow, chain, inputs[0], relations, stats)
                consumed = inputs_of[name]
                stored = chain[-1]
            else:
                operation = flow.node(name)
                inputs = [relations[source] for source in inputs_of[name]]
                node_started = time.perf_counter()
                try:
                    result = self._execute_node(operation, inputs, stats)
                except ExecutionError:
                    raise
                except Exception as exc:
                    raise ExecutionError(f"node {name!r}: {exc}") from exc
                node_seconds = time.perf_counter() - node_started
                relations[name] = result
                stats.nodes.append(
                    NodeStats(
                        name=name,
                        kind=operation.kind,
                        input_rows=sum(len(relation) for relation in inputs),
                        output_rows=len(result),
                        seconds=node_seconds,
                    )
                )
                consumed = inputs_of[name]
                stored = name
            if not keep_intermediate:
                for source in consumed:
                    consumers_left[source] -= 1
                    if consumers_left[source] <= 0:
                        relations.pop(source, None)
                if consumers_left.get(stored, 0) == 0:
                    relations.pop(stored, None)
        stats.seconds = time.perf_counter() - started
        if plan is not None:
            for node_stats in stats.nodes:
                node_stats.estimated_rows = plan.estimates.get(
                    node_stats.name
                )
        if keep_intermediate:
            self.relations = relations
        return stats

    # -- node dispatch ------------------------------------------------------

    def _execute_node(self, operation, inputs, stats):
        method = self._dispatch.get(operation.kind)
        if method is None:
            raise ExecutionError(
                f"unsupported operation kind {operation.kind!r}"
            )
        return method(operation, inputs, stats)

    # -- fusion -------------------------------------------------------------

    def _execute_chain(
        self,
        flow: EtlFlow,
        chain: List[str],
        input_relation: ColumnarRelation,
        relations: Dict[str, object],
        stats: ExecutionStats,
    ) -> None:
        """Run a fused chain in one pass; fall back to per-node execution
        on any compile-time or runtime problem (reproducing the exact
        per-node error and ordering of the unfused engine)."""
        node_started = time.perf_counter()
        program = None
        try:
            spec = _build_chain_spec(flow, chain, input_relation)
            if spec is not None:
                program = compile_chain_spec(spec)
        except Exception:
            program = None
        if program is not None:
            try:
                result, filter_counts = self._run_chain_program(
                    program, input_relation
                )
            except Exception:
                result = None
            if result is not None:
                seconds = time.perf_counter() - node_started
                self._record_chain_stats(
                    flow, chain, input_relation, result, filter_counts,
                    program, seconds, stats,
                )
                relations[chain[-1]] = result
                return
        # Fallback: execute the chain node by node (stage-at-a-time), so
        # failures surface exactly as in the unfused engine.
        current = input_relation
        for name in chain:
            operation = flow.node(name)
            step_started = time.perf_counter()
            try:
                result = self._execute_node(operation, [current], stats)
            except ExecutionError:
                raise
            except Exception as exc:
                raise ExecutionError(f"node {name!r}: {exc}") from exc
            stats.nodes.append(
                NodeStats(
                    name=name,
                    kind=operation.kind,
                    input_rows=len(current),
                    output_rows=len(result),
                    seconds=time.perf_counter() - step_started,
                )
            )
            current = result
        relations[chain[-1]] = current

    def _record_chain_stats(
        self, flow, chain, input_relation, result, filter_counts,
        program, seconds, stats,
    ) -> None:
        """Exact per-node row counts for a fused chain: selections are
        counted inside the pass, every other stage preserves counts."""
        share = seconds / len(chain)
        current_rows = len(input_relation)
        filter_index = 0
        for name in chain:
            operation = flow.node(name)
            if operation.kind == "Selection":
                output_rows = filter_counts[filter_index]
                filter_index += 1
            else:
                output_rows = current_rows
            stats.nodes.append(
                NodeStats(
                    name=name,
                    kind=operation.kind,
                    input_rows=current_rows,
                    output_rows=output_rows,
                    seconds=share,
                )
            )
            current_rows = output_rows

    # -- columnar operators -------------------------------------------------

    def _scan_columnar(self, operation: Datastore, inputs, stats):
        relation = self._database.scan_columns(operation.table)
        if operation.columns:
            return relation.project(list(operation.columns))
        return relation

    def _project_columnar(self, operation, inputs, stats):
        return inputs[0].project(list(operation.columns))

    def _filter_columnar(self, operation: Selection, inputs, stats):
        relation: ColumnarRelation = inputs[0]
        compiled = compile_expression(operation.predicate)
        columns = _argument_columns(compiled, relation)
        if columns is None:
            # An attribute is missing from the schema: evaluate row by
            # row so errors (and short-circuit non-errors) match the
            # interpreter exactly.
            rows = [
                row for row in relation.rows if compiled.row_fn(row) is True
            ]
            return ColumnarRelation.from_rows(dict(relation.schema), rows)
        if not compiled.attributes:
            if relation.length == 0:
                return relation
            keep_all = compiled.column_fn() is True
            return relation if keep_all else relation.take([])
        function = compiled.column_fn
        keep = [
            index
            for index, value in enumerate(map(function, *columns))
            if value is True
        ]
        if len(keep) == relation.length:
            return relation
        return relation.take(keep)

    def _derive_columnar(self, operation: DerivedAttribute, inputs, stats):
        from repro.etlmodel.propagation import _derive_schema

        relation: ColumnarRelation = inputs[0]
        schema = _derive_schema(operation, relation.schema)
        compiled = compile_expression(operation.expression)
        columns = _argument_columns(compiled, relation)
        if columns is None:
            rows = []
            for row in relation.rows:
                out = dict(row)
                out[operation.output] = compiled.row_fn(row)
                rows.append(out)
            return ColumnarRelation.from_rows(schema, rows)
        if not compiled.attributes:
            derived = (
                [compiled.column_fn()] * relation.length
                if relation.length
                else []
            )
        else:
            derived = list(map(compiled.column_fn, *columns))
        new_columns = dict(relation.columns)
        new_columns[operation.output] = derived
        return ColumnarRelation(
            schema=schema, columns=new_columns, length=relation.length
        )

    def _join_columnar(self, operation: Join, inputs, stats):
        left, right = inputs
        schema, payload = _join_schema(operation, left.schema, right.schema)
        return hash_join(
            left,
            right,
            list(operation.left_keys),
            list(operation.right_keys),
            payload,
            schema,
            left_outer=operation.join_type == JoinType.LEFT,
        )

    def _aggregate_columnar(self, operation: Aggregation, inputs, stats):
        from repro.etlmodel.propagation import _aggregation_schema

        relation: ColumnarRelation = inputs[0]
        schema = _aggregation_schema(operation, relation.schema)
        return hash_aggregate(
            relation, operation.group_by, operation.aggregates, schema
        )

    def _rename_columnar(self, operation: Rename, inputs, stats):
        return inputs[0].rename_columns(operation.mapping())

    def _union_columnar(self, operation, inputs, stats):
        left, right = inputs
        if list(left.schema.items()) != list(right.schema.items()):
            raise ExecutionError("union inputs are not union-compatible")
        return left.concat(right)

    def _surrogate_columnar(self, operation: SurrogateKey, inputs, stats):
        relation: ColumnarRelation = inputs[0]
        schema = {operation.output: ScalarType.INTEGER}
        schema.update(relation.schema)
        columns: Dict[str, list] = {
            operation.output: surrogate_keys(
                relation, operation.business_keys
            )
        }
        columns.update(relation.columns)
        return ColumnarRelation(
            schema=schema, columns=columns, length=relation.length
        )

    def _sort_columnar(self, operation: Sort, inputs, stats):
        return inputs[0].sorted_by(
            list(operation.keys), descending=operation.descending
        )

    def _distinct_columnar(self, operation, inputs, stats):
        return inputs[0].distinct()

    def _scd_columnar(self, operation: SCDUpdate, inputs, stats):
        relation: ColumnarRelation = inputs[0]
        schema, rows = self._scd_rows(operation, relation.schema, relation.rows)
        return ColumnarRelation.from_rows(schema, rows)

    def _load_columnar(self, operation: Loader, inputs, stats):
        relation: ColumnarRelation = inputs[0]
        self._prepare_target(operation, relation.schema)
        loaded = self._database.insert_columns(
            operation.table, relation.columns, relation.length
        )
        stats.loaded[operation.table] = (
            stats.loaded.get(operation.table, 0) + loaded
        )
        return relation

    # -- partitioned parallel operators -------------------------------------

    def _parallel_ranges(self, length: int):
        """Chunk ranges when partitioning pays, else ``None`` (serial)."""
        if length < self._parallel_threshold:
            return None
        ranges = chunk_ranges(length, self.workers)
        if len(ranges) <= 1:
            return None
        return ranges

    def _chunk_results(self, futures) -> list:
        """Collect chunk futures in chunk order.

        The earliest chunk's exception wins — that chunk holds the
        globally-first failing row, so the error surfaced matches the
        serial engine's exactly.
        """
        results = []
        error: Optional[BaseException] = None
        for future in futures:
            if error is None:
                try:
                    results.append(future.result())
                except BaseException as exc:
                    error = exc
            else:
                future.cancel()
        if error is not None:
            raise error
        return results

    def _run_chain_program(self, program, relation: ColumnarRelation):
        """Run a fused chain serially or chunk-partitioned.

        Pure structural programs stay serial — they are zero-copy column
        re-selections, and chunking would force a copy.
        """
        ranges = None
        if self.mode == "parallel" and program.steps:
            ranges = self._parallel_ranges(relation.length)
        if ranges is None:
            return program.run(relation)
        futures = [
            self._pool.submit(run_chain_chunk, program, relation, start, stop)
            for start, stop in ranges
        ]
        parts = self._chunk_results(futures)
        result = concat_parts(
            program.output_schema, [part for part, __ in parts]
        )
        filter_counts = [
            sum(counts)
            for counts in zip(*(counts for __, counts in parts))
        ]
        return result, filter_counts

    def _filter_parallel(self, operation: Selection, inputs, stats):
        relation: ColumnarRelation = inputs[0]
        compiled = compile_expression(operation.predicate)
        columns = _argument_columns(compiled, relation)
        ranges = self._parallel_ranges(relation.length)
        if columns is None or not compiled.attributes or ranges is None:
            # Serial fallbacks (row-at-a-time evaluation, constant
            # predicates, small inputs) — same results, same errors.
            return self._filter_columnar(operation, inputs, stats)
        function = compiled.column_fn
        chunks = self._chunk_results(
            [
                self._pool.submit(filter_chunk, function, columns, start, stop)
                for start, stop in ranges
            ]
        )
        keep: List[int] = []
        for chunk in chunks:
            keep.extend(chunk)
        if len(keep) == relation.length:
            return relation
        return relation.take(keep)

    def _derive_parallel(self, operation: DerivedAttribute, inputs, stats):
        from repro.etlmodel.propagation import _derive_schema

        relation: ColumnarRelation = inputs[0]
        # Type-check (and fail) before evaluating, like the serial kernel.
        schema = _derive_schema(operation, relation.schema)
        compiled = compile_expression(operation.expression)
        columns = _argument_columns(compiled, relation)
        ranges = self._parallel_ranges(relation.length)
        if columns is None or not compiled.attributes or ranges is None:
            return self._derive_columnar(operation, inputs, stats)
        function = compiled.column_fn
        chunks = self._chunk_results(
            [
                self._pool.submit(derive_chunk, function, columns, start, stop)
                for start, stop in ranges
            ]
        )
        derived: list = []
        for chunk in chunks:
            derived.extend(chunk)
        new_columns = dict(relation.columns)
        new_columns[operation.output] = derived
        return ColumnarRelation(
            schema=schema, columns=new_columns, length=relation.length
        )

    def _join_parallel(self, operation: Join, inputs, stats):
        left, right = inputs
        ranges = self._parallel_ranges(left.length)
        if ranges is None:
            return self._join_columnar(operation, inputs, stats)
        schema, payload = _join_schema(operation, left.schema, right.schema)
        left_keys = list(operation.left_keys)
        right_keys = list(operation.right_keys)
        left_outer = operation.join_type == JoinType.LEFT
        try:
            # The build side is serial (it is the smaller side of every
            # FK join and inherently order-dependent); the probes fan
            # out, each producing its slice of the matched positions.
            index = build_join_index(right, right_keys)
            futures = [
                self._pool.submit(
                    join_chunk,
                    index,
                    left,
                    right,
                    left_keys,
                    payload,
                    schema,
                    left_outer,
                    start,
                    stop,
                )
                for start, stop in ranges
            ]
            parts = self._chunk_results(futures)
        except TypeError as exc:
            named = [(key, left.columns[key]) for key in left_keys]
            named += [(key, right.columns[key]) for key in right_keys]
            raise unhashable_key_error("join", named, exc) from exc
        return concat_parts(schema, parts)

    def _aggregate_parallel(self, operation: Aggregation, inputs, stats):
        from repro.etlmodel.propagation import _aggregation_schema

        relation: ColumnarRelation = inputs[0]
        ranges = self._parallel_ranges(relation.length)
        if not operation.group_by or ranges is None:
            # A global aggregate is one serial fold by definition.
            return self._aggregate_columnar(operation, inputs, stats)
        schema = _aggregation_schema(operation, relation.schema)
        group_columns = [
            relation.columns[name] for name in operation.group_by
        ]
        try:
            futures = [
                self._pool.submit(group_chunk, group_columns, start, stop)
                for start, stop in ranges
            ]
            parts = self._chunk_results(futures)
        except TypeError as exc:
            raise unhashable_key_error(
                "aggregate", zip(operation.group_by, group_columns), exc
            ) from exc
        keys_in_order, members = merge_group_chunks(parts)
        columns: Dict[str, list] = {}
        for key_position, name in enumerate(operation.group_by):
            columns[name] = [key[key_position] for key in keys_in_order]
        for spec in operation.aggregates:
            source = relation.columns[spec.input]
            columns[spec.output] = [
                aggregate_values(
                    spec.function,
                    [source[i] for i in group if source[i] is not None],
                )
                for group in members
            ]
        return ColumnarRelation(
            schema=schema, columns=columns, length=len(keys_in_order)
        )

    # -- legacy row-at-a-time operators (the reference interpreter) ---------

    def _scan_legacy(self, operation: Datastore, inputs, stats):
        relation = self._database.scan(operation.table)
        if operation.columns:
            return relation.project(list(operation.columns))
        return Relation(schema=dict(relation.schema), rows=list(relation.rows))

    def _project_legacy(self, operation, inputs, stats):
        return inputs[0].project(list(operation.columns))

    def _filter_legacy(self, operation: Selection, inputs, stats):
        relation: Relation = inputs[0]
        predicate = parse(operation.predicate)
        rows = [
            row for row in relation.rows if evaluate(predicate, row) is True
        ]
        return Relation(schema=dict(relation.schema), rows=rows)

    def _join_legacy(self, operation: Join, inputs, stats):
        left, right = inputs
        schema, right_payload = _join_schema(
            operation, left.schema, right.schema
        )
        right_keys = list(operation.right_keys)
        left_keys = list(operation.left_keys)
        rows: List[dict] = []
        try:
            index: Dict[tuple, List[dict]] = {}
            for row in right.rows:
                key = tuple(row[column] for column in right_keys)
                if any(part is None for part in key):
                    continue
                index.setdefault(key, []).append(row)
            for row in left.rows:
                key = tuple(row[column] for column in left_keys)
                matches = index.get(key, []) if not any(
                    part is None for part in key
                ) else []
                if matches:
                    for match in matches:
                        combined = dict(row)
                        for name in right_payload:
                            combined[name] = match[name]
                        rows.append(combined)
                elif operation.join_type == JoinType.LEFT:
                    combined = dict(row)
                    for name in right_payload:
                        combined[name] = None
                    rows.append(combined)
        except TypeError as exc:
            named = [
                (key, [row[key] for row in left.rows]) for key in left_keys
            ] + [
                (key, [row[key] for row in right.rows]) for key in right_keys
            ]
            raise unhashable_key_error("join", named, exc) from exc
        return Relation(schema=schema, rows=rows)

    def _aggregate_legacy(self, operation: Aggregation, inputs, stats):
        from repro.etlmodel.propagation import _aggregation_schema

        relation: Relation = inputs[0]
        schema = _aggregation_schema(operation, relation.schema)
        groups: Dict[tuple, List[dict]] = {}
        if not operation.group_by:
            # SQL semantics: a global aggregate always yields one row.
            groups[()] = []
        try:
            for row in relation.rows:
                key = tuple(row[column] for column in operation.group_by)
                groups.setdefault(key, []).append(row)
        except TypeError as exc:
            named = [
                (column, [row[column] for row in relation.rows])
                for column in operation.group_by
            ]
            raise unhashable_key_error("aggregate", named, exc) from exc
        rows: List[dict] = []
        for key, group_members in groups.items():
            out = dict(zip(operation.group_by, key))
            for spec in operation.aggregates:
                values = [
                    member[spec.input]
                    for member in group_members
                    if member[spec.input] is not None
                ]
                out[spec.output] = aggregate_values(spec.function, values)
            rows.append(out)
        return Relation(schema=schema, rows=rows)

    def _derive_legacy(self, operation: DerivedAttribute, inputs, stats):
        from repro.etlmodel.propagation import _derive_schema

        relation: Relation = inputs[0]
        schema = _derive_schema(operation, relation.schema)
        expression = parse(operation.expression)
        rows = []
        for row in relation.rows:
            out = dict(row)
            out[operation.output] = evaluate(expression, row)
            rows.append(out)
        return Relation(schema=schema, rows=rows)

    def _rename_legacy(self, operation: Rename, inputs, stats):
        relation: Relation = inputs[0]
        mapping = operation.mapping()
        schema = {
            mapping.get(name, name): scalar_type
            for name, scalar_type in relation.schema.items()
        }
        rows = [
            {mapping.get(name, name): value for name, value in row.items()}
            for row in relation.rows
        ]
        return Relation(schema=schema, rows=rows)

    def _union_legacy(self, operation, inputs, stats):
        left, right = inputs
        if list(left.schema.items()) != list(right.schema.items()):
            raise ExecutionError("union inputs are not union-compatible")
        return Relation(
            schema=dict(left.schema), rows=list(left.rows) + list(right.rows)
        )

    def _surrogate_legacy(self, operation: SurrogateKey, inputs, stats):
        relation: Relation = inputs[0]
        schema = {operation.output: ScalarType.INTEGER}
        schema.update(relation.schema)
        assigned: Dict[tuple, int] = {}
        rows = []
        try:
            for row in relation.rows:
                business = tuple(
                    row[column] for column in operation.business_keys
                )
                if business not in assigned:
                    assigned[business] = len(assigned) + 1
                out = {operation.output: assigned[business]}
                out.update(row)
                rows.append(out)
        except TypeError as exc:
            named = [
                (column, [row[column] for row in relation.rows])
                for column in operation.business_keys
            ]
            raise unhashable_key_error("surrogate-key", named, exc) from exc
        return Relation(schema=schema, rows=rows)

    def _sort_legacy(self, operation: Sort, inputs, stats):
        return inputs[0].sorted_by(
            list(operation.keys), descending=operation.descending
        )

    def _distinct_legacy(self, operation, inputs, stats):
        return inputs[0].distinct()

    def _scd_legacy(self, operation: SCDUpdate, inputs, stats):
        relation: Relation = inputs[0]
        schema, rows = self._scd_rows(operation, relation.schema, relation.rows)
        return Relation(schema=schema, rows=rows)

    def _load_legacy(self, operation: Loader, inputs, stats):
        relation: Relation = inputs[0]
        self._prepare_target(operation, relation.schema)
        loaded = self._database.insert_many(operation.table, relation.rows)
        stats.loaded[operation.table] = (
            stats.loaded.get(operation.table, 0) + loaded
        )
        return relation

    # -- shared loader plumbing --------------------------------------------

    def _scd_rows(self, operation: SCDUpdate, input_schema, incoming_rows):
        """Output schema + merged rows for an SCD update, any mode.

        The stored dimension's rows seed the merge when the table exists
        with exactly the output columns; a missing or differently-shaped
        table (first load, or a policy change) starts fresh history —
        the downstream replace-mode loader rebuilds the table anyway.
        The row-level merge itself is the pure, mode-independent
        :func:`repro.engine.scd.scd_merge`, keeping all four engine
        modes byte-identical.
        """
        from repro.etlmodel.propagation import _scd_schema

        schema = _scd_schema(operation, input_schema)
        existing_rows = []
        if self._database.has_table(operation.table):
            stored = self._database.table_def(operation.table)
            if set(stored.columns) == set(schema):
                existing_rows = self._database.scan(operation.table).rows
        return schema, scd_merge(operation, schema, existing_rows, incoming_rows)

    def _prepare_target(self, operation: Loader, schema) -> None:
        if not self._database.has_table(operation.table):
            self._database.create_table(
                TableDef(name=operation.table, columns=dict(schema))
            )
        elif operation.mode == "replace":
            existing = self._database.table_def(operation.table)
            if set(existing.columns) != set(schema):
                # A differently-shaped earlier version of the target
                # (e.g. before a dimension was widened): rebuild it.
                self._database.drop_table(operation.table)
                self._database.create_table(
                    TableDef(name=operation.table, columns=dict(schema))
                )
            else:
                self._database.truncate(operation.table)


def _join_schema(operation: Join, left_schema, right_schema):
    """Output schema and right-side payload of an equi-join.

    Shared by both engines so the attribute-collision error is raised
    identically."""
    joined_same_names = {
        right
        for left, right in zip(operation.left_keys, operation.right_keys)
        if left == right
    }
    schema = dict(left_schema)
    payload = [
        name for name in right_schema if name not in joined_same_names
    ]
    for name in payload:
        if name in schema:
            raise ExecutionError(
                f"join {operation.name!r}: attribute {name!r} on both sides"
            )
        schema[name] = right_schema[name]
    return schema, payload


def _argument_columns(
    compiled: CompiledExpression, relation: ColumnarRelation
) -> Optional[List[list]]:
    """Column arrays for a compiled expression's attributes, or ``None``
    when some referenced attribute is not in the relation's schema (the
    caller then falls back to row-at-a-time evaluation)."""
    columns = relation.columns
    arguments = []
    for name in compiled.attributes:
        column = columns.get(name)
        if column is None:
            return None
        arguments.append(column)
    return arguments


# -- fused chain specs -------------------------------------------------------


def _build_chain_spec(
    flow: EtlFlow, chain: List[str], input_relation: ColumnarRelation
) -> Optional[ChainSpec]:
    """Describe a fused chain against the input schema as a
    :class:`repro.engine.parallel.ChainSpec`.

    Returns ``None`` when the chain cannot be fused faithfully (missing
    attributes, schema errors, parse errors …) — the caller then runs
    the chain stage by stage, which reproduces the engine's exact error
    behaviour.

    The spec's ``input_names`` are compacted to the chain's *read-set*:
    input columns no step reads and the output does not keep are
    dropped from the slot space entirely, so chunk slicing never
    touches them.
    """
    from repro.etlmodel.propagation import _derive_schema

    input_names = list(input_relation.schema)
    schema: Dict[str, ScalarType] = dict(input_relation.schema)
    positions: Dict[str, int] = {
        name: index for index, name in enumerate(input_names)
    }
    next_slot = len(input_names)
    steps: List[tuple] = []
    filter_count = 0
    for name in chain:
        operation = flow.node(name)
        if isinstance(operation, Selection):
            compiled = compile_expression(operation.predicate)
            if any(a not in positions for a in compiled.attributes):
                return None
            argument_positions = tuple(
                positions[a] for a in compiled.attributes
            )
            steps.append(
                ("filter", compiled.text, argument_positions, filter_count)
            )
            filter_count += 1
        elif isinstance(operation, (Projection, Extraction)):
            wanted = list(operation.columns)
            if any(column not in positions for column in wanted):
                return None
            schema = {column: schema[column] for column in wanted}
            positions = {column: positions[column] for column in wanted}
        elif isinstance(operation, DerivedAttribute):
            compiled = compile_expression(operation.expression)
            if any(a not in positions for a in compiled.attributes):
                return None
            schema = _derive_schema(operation, schema)
            argument_positions = tuple(
                positions[a] for a in compiled.attributes
            )
            steps.append(
                ("derive", compiled.text, argument_positions, next_slot)
            )
            positions = dict(positions)
            positions[operation.output] = next_slot
            next_slot += 1
        elif isinstance(operation, Rename):
            mapping = operation.mapping()
            schema = {
                mapping.get(key, key): value for key, value in schema.items()
            }
            positions = {
                mapping.get(key, key): value
                for key, value in positions.items()
            }
        else:
            return None
    output_positions = [positions[name] for name in schema]
    # Read-set compaction: keep only input slots some step argument or
    # output column actually references, then renumber — input slots to
    # their compacted index, derived slots shifted down by the dropped
    # input count (the runtime appends derived values right after the
    # inputs, wherever the input list ends).
    total_inputs = len(input_names)
    used = sorted(
        {
            position
            for __, __, argument_positions, __s in steps
            for position in argument_positions
            if position < total_inputs
        }
        | {
            position
            for position in output_positions
            if position < total_inputs
        }
    )
    new_index = {old: new for new, old in enumerate(used)}
    kept_inputs = len(used)

    def remap(position: int) -> int:
        if position < total_inputs:
            return new_index[position]
        return position - total_inputs + kept_inputs

    return ChainSpec(
        input_names=tuple(input_names[position] for position in used),
        steps=tuple(
            (
                kind,
                text,
                tuple(remap(p) for p in argument_positions),
                counter if kind == "filter" else remap(counter),
            )
            for kind, text, argument_positions, counter in steps
        ),
        output_schema=tuple(schema.items()),
        output_positions=tuple(
            remap(position) for position in output_positions
        ),
        filter_count=filter_count,
    )
