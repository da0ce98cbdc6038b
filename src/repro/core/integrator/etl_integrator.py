"""The ETL Process Integrator.

"ETL Process Integrator, for each new requirement maximizes the reuse by
looking for the largest overlapping of data and operations in the
existing ETL process.  To boost the reuse of the existing data flow
elements [...], ETL Process Integrator aligns the order of ETL
operations by applying generic equivalence rules.  ETL Process
Integrator also accounts for the cost of produced ETL flows [...] by
applying configurable cost models" (§2.3).

Consolidation walks the incoming partial flow in topological order and
unifies each operation with an existing one when they compute the same
thing over the same (already unified) inputs:

* most operations unify on their semantic :meth:`signature`,
* Extractions (and dim-branch Projections) unify *structurally* — same
  unified input — and are **widened** to the union of the column sets,
  so two requirements reading different columns of ``part`` share one
  scan,
* Loaders unify on target table; if their upstreams did not unify the
  designs disagree about the table's content and an
  :class:`IntegrationError` is raised.

With ``align=True`` both flows are first rewritten into the equivalence
normal form (selections pushed down, merged, canonicalised), so flows
that apply the same operations in different orders still overlap — the
A1 ablation benchmark measures exactly this effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import IntegrationError
from repro.etlmodel.cost import CostModel
from repro.etlmodel.equivalence import normalize
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import Extraction, Loader, Operation, Projection


@dataclass
class EtlConsolidation:
    """Result of consolidating one partial flow."""

    flow: EtlFlow
    reused: List[str] = field(default_factory=list)  # unified node names
    added: List[str] = field(default_factory=list)
    widened: List[str] = field(default_factory=list)
    mapping: Dict[str, str] = field(default_factory=dict)
    cost_unified: float = 0.0
    cost_separate: float = 0.0

    @property
    def reuse_ratio(self) -> float:
        """Share of incoming operations served by existing ones."""
        total = len(self.reused) + len(self.added)
        return len(self.reused) / total if total else 1.0

    @property
    def cost_saving(self) -> float:
        """Estimated cost saved versus running the flows separately."""
        return self.cost_separate - self.cost_unified


class EtlIntegrator:
    """Consolidates partial ETL flows into a unified flow."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        align: bool = True,
    ) -> None:
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._align = align

    def consolidate(
        self,
        unified: EtlFlow,
        partial: EtlFlow,
        row_counts: Optional[Dict[str, int]] = None,
        unified_cost: Optional[float] = None,
    ) -> EtlConsolidation:
        """Absorb ``partial`` into a copy of ``unified``.

        Inputs are not mutated.  ``row_counts`` feed the cost model for
        the unified-versus-separate estimate in the report.
        ``unified_cost`` is ``unified``'s cost under the same row
        counts, when the caller kept it from the fold that produced
        ``unified`` (its ``cost_unified``); without it the cost model
        prices ``unified`` again.
        """
        base = normalize(unified) if self._align else unified.copy()
        base.name = unified.name
        incoming = normalize(partial) if self._align else partial.copy()
        result = EtlConsolidation(flow=base)

        index = self._build_index(base)
        loaders_by_table = self._build_loader_map(base)
        for operation, sources in incoming.topological_inputs():
            name = operation.name
            mapped_inputs = tuple(result.mapping[source] for source in sources)
            key = (_match_signature(operation), mapped_inputs)
            existing = index.get(key)
            if existing is not None:
                self._unify(base, existing, operation, result)
                result.mapping[name] = existing
                result.reused.append(existing)
                continue
            if isinstance(operation, Loader):
                resolved = self._resolve_loader_conflict(
                    base, operation, mapped_inputs, result, index,
                    loaders_by_table,
                )
                if resolved is not None:
                    result.mapping[name] = resolved
                    result.reused.append(resolved)
                    continue
            new_name = _fresh_name(operation.name, base)
            base.add(operation.rename(new_name))
            for source in mapped_inputs:
                base.connect(source, new_name)
            index[key] = new_name
            if isinstance(operation, Loader):
                loaders_by_table.setdefault(operation.table, new_name)
            result.mapping[name] = new_name
            result.added.append(new_name)
        base.requirements |= partial.requirements

        result.cost_unified = self._cost_model.total(base, row_counts)
        if unified_cost is None:
            unified_cost = self._cost_model.total(unified, row_counts)
        result.cost_separate = unified_cost + self._cost_model.total(
            partial, row_counts
        )
        return result

    # -- matching ------------------------------------------------------------

    def _build_index(self, flow: EtlFlow) -> Dict[Tuple, str]:
        index: Dict[Tuple, str] = {}
        for operation, sources in flow.topological_inputs():
            index.setdefault((_match_signature(operation), sources), operation.name)
        return index

    def _build_loader_map(self, flow: EtlFlow) -> Dict[str, str]:
        """Target table -> first loader name, for conflict lookups."""
        loaders: Dict[str, str] = {}
        for name in flow.node_names():
            operation = flow.node(name)
            if isinstance(operation, Loader):
                loaders.setdefault(operation.table, name)
        return loaders

    def _unify(
        self,
        base: EtlFlow,
        existing_name: str,
        incoming: Operation,
        result: EtlConsolidation,
    ) -> None:
        """Reuse an existing node, widening column sets where needed."""
        from repro.etlmodel.ops import Datastore

        existing = base.node(existing_name)
        if isinstance(existing, Datastore) and isinstance(incoming, Datastore):
            if existing.columns and incoming.columns:
                widened = _union_columns(existing.columns, incoming.columns)
                if widened != existing.columns:
                    base.replace_node(
                        existing_name,
                        Datastore(
                            existing_name,
                            table=existing.table,
                            columns=widened,
                        ),
                    )
                    result.widened.append(existing_name)
            elif incoming.columns and not existing.columns:
                pass  # existing already scans every column
            elif existing.columns and not incoming.columns:
                base.replace_node(
                    existing_name,
                    Datastore(existing_name, table=existing.table),
                )
                result.widened.append(existing_name)
        if isinstance(existing, Extraction) and isinstance(incoming, Extraction):
            widened = _union_columns(existing.columns, incoming.columns)
            if widened != existing.columns:
                base.replace_node(
                    existing_name,
                    Extraction(existing_name, columns=widened),
                )
                result.widened.append(existing_name)
        if isinstance(existing, Projection) and isinstance(incoming, Projection):
            widened = _union_columns(existing.columns, incoming.columns)
            if widened != existing.columns:
                base.replace_node(
                    existing_name,
                    Projection(existing_name, columns=widened),
                )
                result.widened.append(existing_name)

    def _resolve_loader_conflict(
        self,
        base: EtlFlow,
        incoming: Loader,
        mapped_inputs: Tuple[str, ...],
        result: EtlConsolidation,
        index: Dict[Tuple, str],
        loaders_by_table: Dict[str, str],
    ) -> Optional[str]:
        """Handle an incoming loader whose table is already loaded.

        Returns the name of the base loader to reuse after a successful
        *measure merge*, ``None`` when there is no conflict, and raises
        :class:`IntegrationError` when the designs truly disagree.

        The measure merge covers the MD integrator's fact merge: two
        requirements at the same granularity aggregate the same upstream
        rows with different aggregate outputs.  Their Aggregations are
        fused into one (union of aggregate specs) and the existing
        loader serves both.
        """
        existing_loader = loaders_by_table.get(incoming.table)
        if existing_loader is None:
            return None
        base_input = base.inputs(existing_loader)[0]
        incoming_input = mapped_inputs[0]
        merged = self._merge_aggregations(base, base_input, incoming_input)
        if not merged:
            raise IntegrationError(
                f"loader conflict: table {incoming.table!r} is already "
                f"loaded by {existing_loader!r} from a different upstream; "
                f"the partial designs disagree about its content"
            )
        # The incoming aggregation node (added earlier this pass) is now
        # redundant: re-point its mapping entries and drop it.
        if incoming_input != base_input and not base.outputs(incoming_input):
            for key, value in list(result.mapping.items()):
                if value == incoming_input:
                    result.mapping[key] = base_input
            if incoming_input in result.added:
                result.added.remove(incoming_input)
            for key in [k for k, v in index.items() if v == incoming_input]:
                index[key] = base_input
            base.remove_node(incoming_input)
        return existing_loader

    def _merge_aggregations(
        self, base: EtlFlow, base_name: str, incoming_name: str
    ) -> bool:
        """Fuse two same-granularity aggregations into one.

        Covers two cases:

        * same input node — union the aggregate specs directly,
        * the incoming aggregation hangs off its own chain of
          DerivedAttribute nodes that forks from the base aggregation's
          upstream — the incoming derives are spliced in front of the
          base aggregation (derives only add columns, so stacking them
          is order-independent), then the specs are unioned.
        """
        from repro.etlmodel.ops import Aggregation, DerivedAttribute

        if base_name == incoming_name:
            return True
        base_agg = base.node(base_name)
        incoming_agg = base.node(incoming_name)
        if not isinstance(base_agg, Aggregation) or not isinstance(
            incoming_agg, Aggregation
        ):
            return False
        if sorted(base_agg.group_by) != sorted(incoming_agg.group_by):
            return False
        if base.inputs(base_name) != base.inputs(incoming_name):
            if not self._splice_incoming_derives(base, base_name, incoming_name):
                return False
        self._union_aggregate_specs(base, base_name, incoming_agg)
        return True

    def _splice_incoming_derives(
        self, base: EtlFlow, base_name: str, incoming_name: str
    ) -> bool:
        """Move the incoming agg's derive-only chain before the base agg."""
        from repro.etlmodel.ops import DerivedAttribute

        base_chain_set = {base.inputs(base_name)[0]}
        cursor = base.inputs(base_name)[0]
        base_outputs = set()
        while isinstance(base.node(cursor), DerivedAttribute):
            base_outputs.add(base.node(cursor).output)
            cursor = base.inputs(cursor)[0]
            base_chain_set.add(cursor)
        incoming_chain = []
        cursor = base.inputs(incoming_name)[0]
        while cursor not in base_chain_set:
            operation = base.node(cursor)
            is_spliceable = (
                isinstance(operation, DerivedAttribute)
                and len(base.inputs(cursor)) == 1
                and base.outputs(cursor) == [
                    incoming_chain[-1] if incoming_chain else incoming_name
                ]
            )
            if not is_spliceable:
                return False
            if operation.output in base_outputs:
                return False  # same column, different derivation
            incoming_chain.append(cursor)
            cursor = base.inputs(cursor)[0]
        fork_point = cursor
        if not incoming_chain:
            return False
        head = incoming_chain[-1]  # attached to the fork point
        tail = incoming_chain[0]  # feeds the incoming aggregation
        bottom = base.inputs(base_name)[0]
        base.disconnect(fork_point, head)
        base.disconnect(tail, incoming_name)
        base.disconnect(bottom, base_name)
        base.connect(bottom, head)
        base.connect(tail, base_name)
        return True

    def _union_aggregate_specs(self, base, base_name, incoming_agg) -> None:
        from repro.etlmodel.ops import Aggregation

        base_agg = base.node(base_name)
        specs = {spec.output: spec for spec in base_agg.aggregates}
        for spec in incoming_agg.aggregates:
            existing = specs.get(spec.output)
            if existing is not None and existing != spec:
                raise IntegrationError(
                    f"aggregate output {spec.output!r} computed differently "
                    f"by two designs loading the same table"
                )
            specs[spec.output] = spec
        base.replace_node(
            base_name,
            Aggregation(
                base_name,
                group_by=base_agg.group_by,
                aggregates=tuple(specs.values()),
            ),
        )


def _match_signature(operation: Operation) -> Tuple:
    """The unification key part contributed by the operation itself.

    Extractions and Projections unify structurally (their column sets
    are widened on merge); the Datastore they hang off — included via
    the mapped-inputs part of the key — keeps different tables apart.
    """
    if isinstance(operation, Extraction):
        return ("extraction",)
    if isinstance(operation, Projection):
        return ("projection",)
    return operation.signature()


def _union_columns(first: Tuple[str, ...], second: Tuple[str, ...]) -> Tuple[str, ...]:
    merged = list(first)
    for column in second:
        if column not in merged:
            merged.append(column)
    return tuple(sorted(merged))


def _fresh_name(name: str, flow: EtlFlow) -> str:
    if not flow.has_node(name):
        return name
    suffix = 2
    while flow.has_node(f"{name}_{suffix}"):
        suffix += 1
    return f"{name}_{suffix}"
