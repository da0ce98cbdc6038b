"""Generic equivalence rules for reordering ETL operations.

"To boost the reuse of the existing data flow elements [...] ETL Process
Integrator aligns the order of ETL operations by applying generic
equivalence rules" (§2.3).  Two independently generated partial flows
often compute the same prefix in different operation orders (filter
before or after a projection, before or after a join); rewriting both
into a *normal form* makes the shared prefix syntactically equal so the
largest-overlap search can find it.

The normal form produced by :func:`normalize`:

1. every Selection is pushed as close to its datastore as legality
   allows (through projections, derivations it does not depend on,
   renames — with attribute back-substitution — and to the join input
   that feeds all its attributes),
2. adjacent Selections are merged into one,
3. each Selection predicate is rewritten as its sorted conjunct chain.

All rewrites preserve flow semantics (standard relational algebra
equivalences).
"""

from __future__ import annotations

from typing import Optional

from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    Datastore,
    DerivedAttribute,
    Distinct,
    Extraction,
    Join,
    Loader,
    Projection,
    Rename,
    Selection,
    Sort,
    SurrogateKey,
    UnionOp,
)
from repro.expressions import parse
from repro.expressions.ast import conjoin, conjuncts, substitute

#: Upper bound on rewrite passes — generous; real flows converge in a few.
_MAX_PASSES = 100


def normalize(flow: EtlFlow) -> EtlFlow:
    """Return a semantics-preserving normal form of the flow."""
    result = flow.copy()
    push_selections_down(result)
    merge_adjacent_selections(result)
    canonicalize_predicates(result)
    return result


def push_selections_down(flow: EtlFlow) -> int:
    """Push every Selection towards the sources; returns #moves made."""
    moves = 0
    for _pass in range(_MAX_PASSES):
        moved = _push_one(flow)
        if not moved:
            break
        moves += 1
    return moves


def _push_one(flow: EtlFlow) -> bool:
    """Perform a single legal downward move, if any."""
    for name in flow.topological_order():
        operation = flow.node(name)
        if not isinstance(operation, Selection):
            continue
        inputs = flow.inputs(name)
        if len(inputs) != 1:
            continue
        predecessor = flow.node(inputs[0])
        if isinstance(predecessor, Join):
            if _push_through_join(flow, name, predecessor):
                return True
            continue
        if _can_swap_selection(flow, operation, predecessor):
            rewritten = _rewrite_for_swap(operation, predecessor)
            if rewritten is not operation:
                flow.replace_node(name, rewritten)
            flow.swap_with_predecessor(name)
            return True
    return False


def _can_swap_selection(flow: EtlFlow, selection: Selection, predecessor) -> bool:
    """Whether a selection may move before its unary predecessor."""
    if len(flow.inputs(predecessor.name)) != 1:
        return False
    if len(flow.outputs(predecessor.name)) != 1:
        # The predecessor feeds other consumers too; filtering earlier
        # would change what they see.
        return False
    attributes = parse(selection.predicate).attributes()
    if isinstance(predecessor, (Extraction, Projection, Sort, Distinct)):
        return True
    if isinstance(predecessor, Selection):
        # Commutes, but swapping selections forever would loop; order
        # them canonically instead (smaller signature goes first).
        return selection.signature() < predecessor.signature()
    if isinstance(predecessor, DerivedAttribute):
        return predecessor.output not in attributes
    if isinstance(predecessor, SurrogateKey):
        return predecessor.output not in attributes
    if isinstance(predecessor, Rename):
        return True  # handled with back-substitution
    if isinstance(predecessor, Aggregation):
        return set(attributes) <= set(predecessor.group_by)
    if isinstance(predecessor, (Datastore, Loader, UnionOp, Join)):
        return False
    return False


def _rewrite_for_swap(selection: Selection, predecessor) -> Selection:
    """Adjust the predicate when moving below an attribute-mapping op."""
    if isinstance(predecessor, Rename):
        inverse = {new: old for old, new in predecessor.renaming}
        tree = substitute(parse(selection.predicate), inverse)
        return Selection(name=selection.name, predicate=str(tree))
    return selection


def _push_through_join(flow: EtlFlow, name: str, join: Join) -> bool:
    """Move a selection below a join onto the input that covers it."""
    selection = flow.node(name)
    if len(flow.outputs(join.name)) != 1:
        return False
    attributes = set(parse(selection.predicate).attributes())
    from repro.etlmodel.propagation import attribute_names

    available = attribute_names(flow)
    join_inputs = flow.inputs(join.name)
    if len(join_inputs) != 2:
        return False
    for input_name in join_inputs:
        input_attributes = available.get(input_name)
        if input_attributes is not None and attributes <= input_attributes:
            flow.remove_node(name)
            flow.insert_between(input_name, join.name, selection)
            return True
    return False


def merge_adjacent_selections(flow: EtlFlow) -> int:
    """Merge chains of adjacent Selections into one node; returns #merges."""
    merges = 0
    for _pass in range(_MAX_PASSES):
        merged = False
        for name in flow.topological_order():
            operation = flow.node(name) if flow.has_node(name) else None
            if not isinstance(operation, Selection):
                continue
            inputs = flow.inputs(name)
            if len(inputs) != 1:
                continue
            predecessor = flow.node(inputs[0])
            if not isinstance(predecessor, Selection):
                continue
            if len(flow.outputs(predecessor.name)) != 1:
                continue
            combined_conjuncts = sorted(
                predecessor.conjunct_set() | operation.conjunct_set()
            )
            combined = conjoin([parse(text) for text in combined_conjuncts])
            flow.replace_node(
                name, Selection(name=name, predicate=str(combined))
            )
            flow.remove_node(predecessor.name)
            merged = True
            merges += 1
            break
        if not merged:
            break
    return merges


def prune_columns(flow: EtlFlow) -> EtlFlow:
    """Projection pushdown: narrow every branch to the columns it needs.

    Consolidation *widens* shared extractions (union of all consumers'
    columns), which lets operations unify but makes non-shared branches
    carry columns they never use.  This pass — applied before execution
    or export, never between integrations — computes, per edge, the
    exact attribute set the consumer's subtree requires and

    * shrinks single-consumer Extractions in place,
    * inserts a narrowing ``Projection`` on edges out of shared nodes
      whose consumers need a proper subset.

    Distinct, Union and Loader inputs are never pruned (their semantics
    depend on the full row).  Returns a rewritten copy.
    """
    from repro.etlmodel.propagation import attribute_names

    result = flow.copy()
    produced = attribute_names(result)
    if any(value is None for value in produced.values()):
        return result  # cannot reason about columns; leave untouched
    needed = _compute_needs(result, produced)
    counter = 0
    for name in list(result.node_names()):
        operation = result.node(name)
        if not isinstance(operation, (Extraction, Datastore)):
            continue
        consumers = result.outputs(name)
        if not consumers:
            continue
        requirements = {
            consumer: needed[(name, consumer)] for consumer in consumers
        }
        columns = produced[name]
        if isinstance(operation, Extraction) and len(consumers) == 1:
            req = requirements[consumers[0]]
            if req is not None and req < columns:
                result.replace_node(
                    name, Extraction(name, columns=tuple(sorted(req)))
                )
            continue
        for consumer, req in requirements.items():
            if req is None or not req < columns or len(columns) - len(req) < 2:
                continue
            counter += 1
            while result.has_node(f"PRUNE_{counter}_{name}"):
                counter += 1  # the flow was pruned before
            result.insert_between(
                name,
                consumer,
                Projection(f"PRUNE_{counter}_{name}", columns=tuple(sorted(req))),
            )
    _shrink_datastores(result)
    return result


def _shrink_datastores(flow: EtlFlow) -> None:
    """Narrow Datastore scans to the union of their consumers' columns.

    Runs after extraction shrinking so the consumer column sets are
    final.  Only applies when every consumer is an Extraction/Projection
    (those fix their needs explicitly).
    """
    for name in list(flow.node_names()):
        operation = flow.node(name)
        if not isinstance(operation, Datastore) or not operation.columns:
            continue
        consumers = [flow.node(consumer) for consumer in flow.outputs(name)]
        if not consumers or not all(
            isinstance(consumer, (Extraction, Projection))
            for consumer in consumers
        ):
            continue
        required: set = set()
        for consumer in consumers:
            required |= set(consumer.columns)
        if required < set(operation.columns):
            flow.replace_node(
                name,
                Datastore(
                    name,
                    table=operation.table,
                    columns=tuple(sorted(required)),
                ),
            )


def _compute_needs(flow: EtlFlow, produced) -> dict:
    """(producer, consumer) -> attribute set the consumer's subtree
    needs from that edge; ``None`` means "everything" (no pruning)."""
    needed_out: dict = {}  # node -> set needed by all consumers (or None)
    edge_needs: dict = {}
    for name in reversed(flow.topological_order()):
        operation = flow.node(name)
        outputs = flow.outputs(name)
        if not outputs:
            needed_out[name] = set(produced[name])
        else:
            collected: Optional[set] = set()
            for consumer in outputs:
                requirement = edge_needs[(name, consumer)]
                if requirement is None:
                    collected = None
                    break
                collected |= requirement
            needed_out[name] = (
                set(produced[name]) if collected is None else collected
            )
        downstream = needed_out[name]
        for position, source in enumerate(flow.inputs(name)):
            edge_needs[(source, name)] = _required_from_input(
                operation, position, downstream, produced, flow
            )
    return edge_needs


def _required_from_input(operation, position, downstream, produced, flow):
    """Attributes ``operation`` needs from its input at ``position``;
    ``None`` disables pruning on that edge."""
    if isinstance(operation, (Extraction, Projection)):
        return set(operation.columns)
    if isinstance(operation, Selection):
        return downstream | set(parse(operation.predicate).attributes())
    if isinstance(operation, Join):
        sources = flow.inputs(operation.name)
        own = produced[sources[position]]
        if own is None:
            return None
        keys = (
            set(operation.left_keys)
            if position == 0
            else set(operation.right_keys)
        )
        return (downstream & own) | keys
    if isinstance(operation, Aggregation):
        return set(operation.group_by) | {
            spec.input for spec in operation.aggregates
        }
    if isinstance(operation, DerivedAttribute):
        return (downstream - {operation.output}) | set(
            parse(operation.expression).attributes()
        )
    if isinstance(operation, Rename):
        inverse = {new: old for old, new in operation.renaming}
        return {inverse.get(name, name) for name in downstream}
    if isinstance(operation, SurrogateKey):
        return (downstream - {operation.output}) | set(operation.business_keys)
    if isinstance(operation, Sort):
        return downstream | set(operation.keys)
    # Distinct, Union, Loader: semantics depend on the full input row.
    return None


def canonicalize_predicates(flow: EtlFlow) -> None:
    """Rewrite every Selection predicate as its sorted conjunct chain."""
    for name in flow.node_names():
        operation = flow.node(name)
        if not isinstance(operation, Selection):
            continue
        parts = sorted(str(part) for part in conjuncts(parse(operation.predicate)))
        canonical = conjoin([parse(text) for text in parts])
        flow.replace_node(name, Selection(name=name, predicate=str(canonical)))
