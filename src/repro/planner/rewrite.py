"""The cost-based rewrite pipeline: flow in, annotated plan out.

``plan_flow`` copies the flow and applies, in order:

1. **Selection pushdown** — filters move towards the sources (through
   unary operators and to the covering join input).  Unlike the
   integration normal form (:mod:`repro.etlmodel.equivalence`) this is
   *value-strict*: a selection never moves past a ``SurrogateKey``
   (assigned ids depend on pre-filter row order) and never past an
   expression that can raise on data (``/`` or ``%``) — the planned
   mode must preserve results AND error behaviour exactly.
2. **Projection pushdown** — ``prune_columns``: every branch narrows to
   the attributes its subtree needs.
3. **Join-chain reordering** — maximal left-deep chains of single-
   consumer INNER joins are reordered greedily by estimated fanout, so
   selective joins (a filtered dimension) run first.
4. **Build-side choice** — an INNER join whose right (build) side is
   estimated much larger than its left is flipped, so the hash index is
   built on the small side.
5. **Fusion veto** — fused single-pass chains with a tiny estimated
   input are marked not worth compiling.

Order-perturbing rewrites (3, 4) are gated on the absence of
transitively-downstream ``SurrogateKey`` (id assignment is order-
sensitive) and ``UnionOp`` (column order must match exactly) nodes.

The pipeline is *fail-safe*: if the flow does not survive schema
propagation (a deliberate error flow), or any rewrite step throws, the
planner returns an identity plan and the executor runs the original
flow — planned mode then fails with exactly the original error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.engine.fusion import fusion_plan
from repro.engine.stats import StatisticsCatalog
from repro.etlmodel.equivalence import (
    _MAX_PASSES,
    _rewrite_for_swap,
    prune_columns,
)
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    Datastore,
    DerivedAttribute,
    Distinct,
    Extraction,
    Join,
    JoinType,
    Projection,
    Rename,
    Selection,
    Sort,
)
from repro.etlmodel.propagation import attribute_names, propagate
from repro.expressions import parse
from repro.expressions.ast import (
    BinaryOp,
    Expression,
    FunctionCall,
    UnaryOp,
    ValueList,
)
from repro.planner.estimator import NodeEstimate, estimate_flow
from repro.sources.schema import SourceSchema, make_table

#: Below this estimated input row count a fused chain is not worth the
#: per-chain compile: the plain per-node path wins on tiny relations.
FUSION_MINIMUM_ROWS = 48.0

#: The build side is only flipped when the imbalance is clear; a small
#: hysteresis keeps borderline (and therefore noisy) estimates stable.
BUILD_SIDE_HYSTERESIS = 2.0


@dataclass
class Plan:
    """An annotated, rewritten flow for ``Executor(mode="planned")``."""

    flow: EtlFlow
    estimates: Dict[str, float] = field(default_factory=dict)
    decisions: List[str] = field(default_factory=list)
    no_fuse: frozenset = frozenset()
    fallback: Optional[str] = None

    @property
    def rewritten(self) -> bool:
        return self.fallback is None and bool(self.decisions)


def _is_total(expression: str) -> bool:
    """Whether an expression can never raise on data (no ``/`` or ``%``).

    Moving a non-total expression changes which rows it evaluates —
    an error (``1/0``) could appear or disappear, breaking the planned
    mode's error-parity contract.
    """
    try:
        tree = parse(expression)
    except Exception:
        return False
    return _total_tree(tree)


def _total_tree(node: Expression) -> bool:
    if isinstance(node, BinaryOp):
        if node.operator in ("/", "%"):
            return False
        return _total_tree(node.left) and _total_tree(node.right)
    if isinstance(node, UnaryOp):
        return _total_tree(node.operand)
    if isinstance(node, FunctionCall):
        return all(_total_tree(argument) for argument in node.arguments)
    if isinstance(node, ValueList):
        return all(_total_tree(item) for item in node.items)
    return True


def _can_push_selection(flow: EtlFlow, selection: Selection, predecessor) -> bool:
    """Value-strict variant of the integrator's swap legality."""
    if len(flow.inputs(predecessor.name)) != 1:
        return False
    if len(flow.outputs(predecessor.name)) != 1:
        return False
    attributes = parse(selection.predicate).attributes()
    if isinstance(predecessor, (Extraction, Projection, Sort, Distinct)):
        return True
    if isinstance(predecessor, Selection):
        # Canonical order (smaller signature first) prevents ping-pong;
        # the other selection's evaluation set shrinks, so it must be
        # total as well.
        return (
            selection.signature() < predecessor.signature()
            and _is_total(predecessor.predicate)
        )
    if isinstance(predecessor, DerivedAttribute):
        return predecessor.output not in attributes and _is_total(
            predecessor.expression
        )
    if isinstance(predecessor, Rename):
        return True  # handled with back-substitution
    if isinstance(predecessor, Aggregation):
        # Group-key-only predicates remove whole groups — but only when
        # there ARE groups: a global aggregate (empty group-by) emits
        # one row even for empty input, so filtering first would let a
        # constant-false predicate *add* that row back.
        return bool(predecessor.group_by) and set(attributes) <= set(
            predecessor.group_by
        )
    # SurrogateKey: filtering first changes which ids are assigned —
    # never legal for value-preserving planning.  Datastore/Loader/
    # Union/Join: structurally not swappable here.
    return False


def _push_below_join(flow: EtlFlow, name: str, join: Join) -> bool:
    """Move a selection below a join onto the input that covers it.

    Unlike the integrator's ``_push_through_join`` this is join-type
    aware: for a LEFT join only the *left* (preserved) input is a legal
    destination — filtering the right side first creates NULL-padded
    output rows the unplanned flow never produces.
    """
    selection = flow.node(name)
    if len(flow.outputs(join.name)) != 1:
        return False
    attributes = set(parse(selection.predicate).attributes())
    available = attribute_names(flow)
    join_inputs = flow.inputs(join.name)
    if len(join_inputs) != 2:
        return False
    candidates = (
        join_inputs
        if join.join_type == JoinType.INNER
        else join_inputs[:1]
    )
    for input_name in candidates:
        input_attributes = available.get(input_name)
        if input_attributes is not None and attributes <= input_attributes:
            flow.remove_node(name)
            flow.insert_between(input_name, join.name, selection)
            return True
    return False


def _push_selections(flow: EtlFlow) -> int:
    """Push every *total* Selection towards the sources; returns #moves."""
    moves = 0
    for _pass in range(_MAX_PASSES):
        moved = False
        for name in flow.topological_order():
            operation = flow.node(name)
            if not isinstance(operation, Selection):
                continue
            if not _is_total(operation.predicate):
                continue
            inputs = flow.inputs(name)
            if len(inputs) != 1:
                continue
            predecessor = flow.node(inputs[0])
            if isinstance(predecessor, Join):
                if _push_below_join(flow, name, predecessor):
                    moved = True
                    break
                continue
            if _can_push_selection(flow, operation, predecessor):
                rewritten = _rewrite_for_swap(operation, predecessor)
                if rewritten is not operation:
                    flow.replace_node(name, rewritten)
                flow.swap_with_predecessor(name)
                moved = True
                break
        if not moved:
            break
        moves += 1
    return moves


def _order_sensitive_downstream(flow: EtlFlow, name: str) -> Optional[str]:
    """The kind of the first downstream node whose *values* or schema
    depend on input row/column order, or ``None`` when it is safe to
    perturb order at ``name``."""
    for successor in flow.downstream(name):
        kind = flow.node(successor).kind
        if kind in ("SurrogateKey", "Union"):
            return kind
    return None


def _inner_single_consumer(flow: EtlFlow, name: str) -> bool:
    operation = flow.node(name)
    return (
        isinstance(operation, Join)
        and operation.join_type == JoinType.INNER
        and len(flow.outputs(name)) == 1
    )


def _find_join_chains(flow: EtlFlow) -> List[List[str]]:
    """Maximal left-deep chains (length >= 2) of INNER joins where each
    join is the left input and sole consumer of the next."""
    chains: List[List[str]] = []
    join_names = [
        name
        for name in flow.topological_order()
        if isinstance(flow.node(name), Join)
        and flow.node(name).join_type == JoinType.INNER
    ]
    in_chain: Set[str] = set()
    for name in join_names:
        if name in in_chain:
            continue
        inputs = flow.inputs(name)
        if len(inputs) != 2:
            continue
        # Only start a chain at its bottom join (left input not itself a
        # chainable join).
        left = inputs[0]
        if flow.has_node(left) and _inner_single_consumer(flow, left):
            left_inputs = flow.inputs(left)
            if len(left_inputs) == 2:
                continue  # an inner member; the walk starts lower
        chain = [name]
        current = name
        while _inner_single_consumer(flow, current):
            successor = flow.outputs(current)[0]
            candidate = flow.node(successor)
            if (
                not isinstance(candidate, Join)
                or candidate.join_type != JoinType.INNER
                or len(flow.inputs(successor)) != 2
                or flow.inputs(successor)[0] != current
            ):
                break
            chain.append(successor)
            current = successor
        if len(chain) >= 2:
            chains.append(chain)
            in_chain.update(chain)
    return chains


def _reorder_chain(
    flow: EtlFlow,
    chain: List[str],
    estimates: Dict[str, NodeEstimate],
    names: Dict[str, Optional[set]],
    decisions: List[str],
) -> bool:
    """Greedily reorder one chain by estimated fanout; returns whether
    the edge list was rewired."""
    blocker = _order_sensitive_downstream(flow, chain[-1])
    if blocker is not None:
        return False
    base = flow.inputs(chain[0])[0]
    base_names = names.get(base)
    if base_names is None:
        return False
    items = []
    for join_name in chain:
        left_input, right_input = flow.inputs(join_name)
        right_names = names.get(right_input)
        if right_names is None:
            return False
        join_est = estimates[join_name].rows
        left_est = max(estimates[left_input].rows, 1.0)
        items.append(
            {
                "join": join_name,
                "right": right_input,
                "right_names": right_names,
                "fanout": join_est / left_est,
            }
        )
    available = set(base_names)
    new_order: List[str] = []
    remaining = list(items)
    while remaining:
        legal = [
            item
            for item in remaining
            if set(flow.node(item["join"]).left_keys) <= available
        ]
        if not legal:
            return False  # keys come from mid-chain outputs; keep as-is
        best = min(legal, key=lambda item: item["fanout"])
        new_order.append(best["join"])
        available |= best["right_names"]
        remaining.remove(best)
    if new_order == chain:
        return False
    # Rewire the spine in place.  Every spine edge is either the left
    # edge of a chain join or the consumer edge of the old top; index-
    # preserving replacement keeps left/right input slots intact.
    old_left = {join: flow.inputs(join)[0] for join in chain}
    new_left = {
        join: (base if position == 0 else new_order[position - 1])
        for position, join in enumerate(new_order)
    }
    top_old, top_new = chain[-1], new_order[-1]
    joins = set(chain)
    replacements = {
        (old_left[join], join): (new_left[join], join) for join in chain
    }
    for consumer in flow.outputs(top_old):
        if consumer not in joins:
            replacements[(top_old, consumer)] = (top_new, consumer)
    flow.rewire(replacements)
    decisions.append(
        "join-reorder: " + " -> ".join(new_order)
        + f" (was {' -> '.join(chain)})"
    )
    return True


def _reorder_join_chains(
    flow: EtlFlow,
    catalog: StatisticsCatalog,
    decisions: List[str],
) -> int:
    chains = _find_join_chains(flow)
    if not chains:
        return 0
    estimates = estimate_flow(flow, catalog)
    names = attribute_names(flow)
    changed = 0
    for chain in chains:
        if _reorder_chain(flow, chain, estimates, names, decisions):
            changed += 1
    return changed


def _choose_build_sides(
    flow: EtlFlow,
    catalog: StatisticsCatalog,
    decisions: List[str],
) -> int:
    """Flip INNER joins whose build (right) side dwarfs the probe side."""
    estimates = estimate_flow(flow, catalog)
    flipped = 0
    for name in flow.topological_order():
        operation = flow.node(name)
        if (
            not isinstance(operation, Join)
            or operation.join_type != JoinType.INNER
        ):
            continue
        if any(
            left == right
            for left, right in zip(operation.left_keys, operation.right_keys)
        ):
            # A collapsed same-named key keeps the LEFT side's copy of
            # the value; Python's cross-type equality (True == 1,
            # 1 == 1.0) means the two copies can differ, so flipping
            # sides could change the surviving value.
            continue
        inputs = flow.inputs(name)
        if len(inputs) != 2:
            continue
        left_rows = estimates[inputs[0]].rows
        right_rows = estimates[inputs[1]].rows
        if right_rows <= left_rows * BUILD_SIDE_HYSTERESIS:
            continue
        if _order_sensitive_downstream(flow, name) is not None:
            continue
        # Swap the sources of the two incoming edges and the key tuples.
        left, right = inputs
        flow.rewire({(left, name): (right, name), (right, name): (left, name)})
        flow.replace_node(
            name,
            Join(
                name,
                left_keys=tuple(operation.right_keys),
                right_keys=tuple(operation.left_keys),
                join_type=JoinType.INNER,
            ),
        )
        flipped += 1
        decisions.append(
            f"build-side: {name} flipped "
            f"(left ~{left_rows:,.0f} rows, right ~{right_rows:,.0f} rows)"
        )
    return flipped


def _fusion_vetoes(
    flow: EtlFlow,
    estimates: Dict[str, NodeEstimate],
    decisions: List[str],
) -> frozenset:
    order = flow.topological_order()
    inputs_of = {name: flow.inputs(name) for name in order}
    chains, __ = fusion_plan(flow, order, inputs_of)
    vetoed = set()
    for head in chains:
        sources = inputs_of[head]
        if not sources:
            continue
        input_rows = estimates[sources[0]].rows
        if input_rows < FUSION_MINIMUM_ROWS:
            vetoed.add(head)
            decisions.append(
                f"no-fuse: chain at {head} "
                f"(~{input_rows:,.0f} input rows)"
            )
    return frozenset(vetoed)


def _source_schema_shim(
    flow: EtlFlow, catalog: StatisticsCatalog
) -> SourceSchema:
    """A SourceSchema covering the flow's datastore tables, built from
    catalog statistics (which carry each column's declared type)."""
    shim = SourceSchema("planner")
    for operation in flow.nodes():
        if not isinstance(operation, Datastore):
            continue
        if shim.has_table(operation.table):
            continue
        try:
            stats = catalog.table_stats(operation.table)
        except Exception:
            continue
        shim.add_table(
            make_table(
                operation.table,
                [
                    (name, column.scalar_type)
                    for name, column in stats.columns.items()
                ],
            )
        )
    return shim


def _materialize_datastores(flow: EtlFlow, catalog: StatisticsCatalog) -> int:
    """Pin each bare Datastore's column list from the catalog.

    Schema-free scans propagate as "attributes unknown", which makes
    every structural rewrite (pushdown legality, column pruning, join
    reorder) bail out.  Reading the column list from the statistics
    catalog — the same snapshot the estimates come from — turns them
    into fully-known scans.  Projecting a scan to its own full column
    list is the identity, so this is value-preserving on its own and it
    lets ``prune_columns`` later narrow the scan to what the flow needs.
    """
    pinned = 0
    for operation in list(flow.nodes()):
        if not isinstance(operation, Datastore) or operation.columns:
            continue
        try:
            stats = catalog.table_stats(operation.table)
        except Exception:
            continue
        flow.replace_node(
            operation.name,
            Datastore(
                operation.name,
                table=operation.table,
                columns=tuple(stats.columns),
            ),
        )
        pinned += 1
    return pinned


def plan_flow(flow: EtlFlow, catalog: StatisticsCatalog) -> Plan:
    """Produce an annotated plan; identical to ``flow`` when no rewrite
    is possible or the flow does not validate (fail-safe)."""
    shim = _source_schema_shim(flow, catalog)
    try:
        propagate(flow, shim)
    except Exception as exc:
        return _identity_plan(flow, catalog, f"propagation: {exc}")
    decisions: List[str] = []
    try:
        working = flow.copy()
        _materialize_datastores(working, catalog)
        moved = _push_selections(working)
        if moved:
            decisions.append(f"selection-pushdown: {moved} move(s)")
        pruned = prune_columns(working)
        if len(pruned) != len(working) or pruned.edges() != working.edges():
            decisions.append("projection-pushdown: branches narrowed")
        working = pruned
        _reorder_join_chains(working, catalog, decisions)
        _choose_build_sides(working, catalog, decisions)
        propagate(working, shim)  # the rewritten flow must still validate
        estimates = estimate_flow(working, catalog)
        no_fuse = _fusion_vetoes(working, estimates, decisions)
    except Exception as exc:  # fail safe: never plan a broken flow
        return _identity_plan(flow, catalog, f"rewrite: {exc}")
    return Plan(
        flow=working,
        estimates={name: est.rows for name, est in estimates.items()},
        decisions=decisions,
        no_fuse=no_fuse,
    )


def _identity_plan(
    flow: EtlFlow, catalog: StatisticsCatalog, reason: str
) -> Plan:
    try:
        estimates = {
            name: est.rows for name, est in estimate_flow(flow, catalog).items()
        }
    except Exception:
        estimates = {}
    return Plan(flow=flow, estimates=estimates, fallback=reason)
