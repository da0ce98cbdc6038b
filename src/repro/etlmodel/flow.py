"""The ETL flow DAG.

A flow is a set of named operations plus directed edges.  Edge order
into a binary operation is significant: the first incoming edge is the
left input of a join/union.  The class offers the structural queries and
surgery the generator and integrator need (topological order, subflow
paths, node insertion/removal, grafting one flow into another).

The edge list is the flow's state; an adjacency index derived from it
answers the structural queries without scanning it.  Only this module
reads or writes ``_edges``, so the index cannot go stale: ``add`` and
``connect`` extend the index in place, ``replace_node`` keeps it (the
structure is unchanged) and every other structural mutator drops it for
the next query to rebuild in one pass.  The index also keeps the
topological order until the structure changes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    EtlError,
    FlowValidationError,
    UnknownOperationError,
)
from repro.etlmodel.ops import Operation


@dataclass(frozen=True)
class Edge:
    """A directed hop between two operations (xLM ``<edge>``)."""

    source: str
    target: str
    enabled: bool = True


class _Adjacency:
    """The index derived from a flow's edge list.

    Per node, in node order, its input and its output names in edge
    order; the set of ``(source, target)`` pairs, for duplicate checks;
    and the topological order once a query has computed it.
    """

    __slots__ = ("inputs", "outputs", "pairs", "order")

    def __init__(self, nodes: Dict[str, Operation], edges: List[Edge]) -> None:
        self.inputs: Dict[str, List[str]] = {name: [] for name in nodes}
        self.outputs: Dict[str, List[str]] = {name: [] for name in nodes}
        for edge in edges:
            self.outputs[edge.source].append(edge.target)
            self.inputs[edge.target].append(edge.source)
        self.pairs = {(edge.source, edge.target) for edge in edges}
        self.order: Optional[List[str]] = None

    def add_node(self, name: str) -> None:
        self.inputs[name] = []
        self.outputs[name] = []
        self.order = None

    def link(self, source: str, target: str) -> None:
        self.outputs[source].append(target)
        self.inputs[target].append(source)
        self.pairs.add((source, target))
        self.order = None

    def topological_order(self) -> List[str]:
        """Kahn's algorithm: sources in node order first, then each
        node's successors in edge order as their last input is placed.
        Raises on cycles."""
        if self.order is None:
            in_degree = {name: len(sources) for name, sources in self.inputs.items()}
            queue = deque(name for name, degree in in_degree.items() if degree == 0)
            order: List[str] = []
            while queue:
                current = queue.popleft()
                order.append(current)
                for target in self.outputs[current]:
                    in_degree[target] -= 1
                    if in_degree[target] == 0:
                        queue.append(target)
            if len(order) != len(in_degree):
                raise FlowValidationError(["flow contains a cycle"])
            self.order = order
        return self.order


@dataclass
class EtlFlow:
    """A DAG of ETL operations."""

    name: str
    _nodes: Dict[str, Operation] = field(default_factory=dict)
    _edges: List[Edge] = field(default_factory=list)
    requirements: Set[str] = field(default_factory=set)
    _index: Optional[_Adjacency] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _adjacency(self) -> _Adjacency:
        """The adjacency index, rebuilt from ``_edges`` if it was dropped."""
        if self._index is None:
            self._index = _Adjacency(self._nodes, self._edges)
        return self._index

    # -- construction ---------------------------------------------------------

    def add(self, operation: Operation) -> Operation:
        """Add an operation node; names must be unique."""
        if operation.name in self._nodes:
            raise EtlError(
                f"operation {operation.name!r} already in flow {self.name!r}"
            )
        self._nodes[operation.name] = operation
        if self._index is not None:
            self._index.add_node(operation.name)
        return operation

    def connect(self, source: str, target: str) -> Edge:
        """Add an edge; both endpoints must exist and the edge be new."""
        for endpoint in (source, target):
            if endpoint not in self._nodes:
                raise UnknownOperationError(endpoint)
        index = self._adjacency()
        if (source, target) in index.pairs:
            raise EtlError(f"duplicate edge {source!r} -> {target!r}")
        edge = Edge(source, target)
        self._edges.append(edge)
        index.link(source, target)
        return edge

    def disconnect(self, source: str, target: str) -> None:
        """Remove the edge source -> target; raises if absent."""
        for index, edge in enumerate(self._edges):
            if edge.source == source and edge.target == target:
                del self._edges[index]
                self._index = None
                return
        raise EtlError(f"no edge {source!r} -> {target!r}")

    def chain(self, *operations: Operation) -> Operation:
        """Add operations and connect them linearly; returns the last."""
        previous: Optional[Operation] = None
        for operation in operations:
            if operation.name not in self._nodes:
                self.add(operation)
            if previous is not None:
                self.connect(previous.name, operation.name)
            previous = operation
        if previous is None:
            raise EtlError("chain requires at least one operation")
        return previous

    # -- lookup -----------------------------------------------------------------

    def node(self, name: str) -> Operation:
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownOperationError(name) from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> Iterator[Operation]:
        return iter(self._nodes.values())

    def node_names(self) -> List[str]:
        return list(self._nodes)

    def edges(self) -> List[Edge]:
        return list(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def inputs(self, name: str) -> List[str]:
        """Source names of incoming edges, in edge insertion order."""
        try:
            return list(self._adjacency().inputs[name])
        except KeyError:
            raise UnknownOperationError(name) from None

    def outputs(self, name: str) -> List[str]:
        try:
            return list(self._adjacency().outputs[name])
        except KeyError:
            raise UnknownOperationError(name) from None

    def sources(self) -> List[str]:
        """Nodes with no incoming edges (the datastores)."""
        inputs = self._adjacency().inputs
        return [name for name in self._nodes if not inputs[name]]

    def sinks(self) -> List[str]:
        """Nodes with no outgoing edges (the loaders)."""
        outputs = self._adjacency().outputs
        return [name for name in self._nodes if not outputs[name]]

    # -- traversal --------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Node names in topological order; raises on cycles."""
        return list(self._adjacency().topological_order())

    def topological_inputs(self) -> List[Tuple[Operation, Tuple[str, ...]]]:
        """Each operation with its input names, in topological order.

        One pass over the index for callers that walk the whole flow.
        """
        index = self._adjacency()
        return [
            (self._nodes[name], tuple(index.inputs[name]))
            for name in index.topological_order()
        ]

    def upstream(self, name: str) -> Set[str]:
        """All transitive predecessors of a node."""
        result: Set[str] = set()
        frontier = deque(self.inputs(name))
        while frontier:
            current = frontier.popleft()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self.inputs(current))
        return result

    def downstream(self, name: str) -> Set[str]:
        """All transitive successors of a node."""
        result: Set[str] = set()
        frontier = deque(self.outputs(name))
        while frontier:
            current = frontier.popleft()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self.outputs(current))
        return result

    def path_from_source(self, sink: str) -> List[str]:
        """The unique linear path ending at ``sink`` while in-degree is 1.

        Walks backwards from ``sink`` until a node with 0 or >1 inputs is
        met (inclusive); returns names source-first.  Used to align the
        unary segments of two flows during integration.
        """
        path = [sink]
        current = sink
        while True:
            inputs = self.inputs(current)
            if len(inputs) != 1:
                break
            current = inputs[0]
            path.append(current)
        path.reverse()
        return path

    # -- surgery -----------------------------------------------------------------

    def remove_node(self, name: str) -> None:
        """Remove a node, splicing unary through-paths.

        If the node has exactly one input and any outputs, the input is
        reconnected to each output.  Other in/out shapes, and a node whose
        one input is itself, simply drop the incident edges.
        """
        incoming = self.inputs(name)
        if incoming != [name] and len(incoming) == 1:
            # Splice in place: each (name -> target) edge is replaced by
            # (input -> target) at the same position, so the input-slot
            # order of binary targets (join left/right) is preserved.
            source = incoming[0]
            kept = {
                (edge.source, edge.target)
                for edge in self._edges
                if name not in (edge.source, edge.target)
            }
            spliced: List[Edge] = []
            for edge in self._edges:
                if edge.target == name:
                    continue
                if edge.source == name:
                    pair = (source, edge.target)
                    if pair not in kept:
                        kept.add(pair)
                        spliced.append(Edge(*pair))
                    continue
                spliced.append(edge)
            self._edges = spliced
        else:
            self._edges = [
                edge
                for edge in self._edges
                if edge.source != name and edge.target != name
            ]
        del self._nodes[name]
        self._index = None

    def replace_node(self, name: str, operation: Operation) -> None:
        """Swap the operation stored under ``name`` (same name required)."""
        self.node(name)
        if operation.name != name:
            raise EtlError(
                f"replacement operation must keep the name {name!r}"
            )
        self._nodes[name] = operation

    def insert_between(
        self, source: str, target: str, operation: Operation
    ) -> None:
        """Insert a unary operation on the edge source -> target."""
        matching = [
            edge
            for edge in self._edges
            if edge.source == source and edge.target == target
        ]
        if not matching:
            raise EtlError(f"no edge {source!r} -> {target!r}")
        self.add(operation)
        index = self._edges.index(matching[0])
        # Preserve the edge position so the input order of binary targets
        # is unchanged.
        self._edges[index] = Edge(operation.name, target)
        self._edges.append(Edge(source, operation.name))
        self._index = None

    def swap_with_predecessor(self, name: str) -> None:
        """Swap a unary node with its unary predecessor (a -> b becomes
        b -> a).  Both must have exactly one input and the predecessor
        exactly one output."""
        node_inputs = self.inputs(name)
        if len(node_inputs) != 1:
            raise EtlError(f"{name!r} is not unary")
        predecessor = node_inputs[0]
        if len(self.inputs(predecessor)) != 1 or len(self.outputs(predecessor)) != 1:
            raise EtlError(f"{predecessor!r} cannot be swapped")
        grandparent = self.inputs(predecessor)[0]
        successors = self.outputs(name)
        removed = {(grandparent, predecessor), (predecessor, name)}
        removed.update((name, successor) for successor in successors)
        replacement = []
        for edge in self._edges:
            if (edge.source, edge.target) in removed:
                if (edge.source, edge.target) == (grandparent, predecessor):
                    # Keep edge position: a binary grandparent target is
                    # impossible here (predecessor is unary), but binary
                    # *successors* must keep their input slot order.
                    replacement.append(Edge(grandparent, name))
                elif edge.source == name:
                    replacement.append(Edge(predecessor, edge.target))
                continue
            replacement.append(edge)
        replacement.append(Edge(name, predecessor))
        self._edges = replacement
        self._index = None

    def copy(self, name: Optional[str] = None) -> "EtlFlow":
        """A structural copy (operations are immutable and shared)."""
        clone = EtlFlow(
            name=name if name is not None else self.name,
            requirements=set(self.requirements),
        )
        clone._nodes = dict(self._nodes)
        clone._edges = list(self._edges)
        return clone

    def graft(self, other: "EtlFlow", at: Dict[str, str]) -> Dict[str, str]:
        """Graft ``other`` into this flow, unifying some nodes.

        ``at`` maps node names of ``other`` to existing node names here;
        those nodes are *not* copied — edges from them re-target the
        mapped nodes.  Remaining nodes are copied, renamed on collision.
        Returns the full name mapping (other name -> name here).
        """
        mapping: Dict[str, str] = dict(at)
        for operation in other.nodes():
            if operation.name in mapping:
                continue
            new_name = operation.name
            suffix = 2
            while new_name in self._nodes:
                new_name = f"{operation.name}_{suffix}"
                suffix += 1
            mapping[operation.name] = new_name
            self.add(operation.rename(new_name))
        pairs = self._adjacency().pairs
        for edge in other.edges():
            if edge.target in at:
                # The target already exists here with its own inputs.
                continue
            source = mapping[edge.source]
            target = mapping[edge.target]
            if (source, target) not in pairs:
                self.connect(source, target)
        self.requirements |= other.requirements
        return mapping

    # -- validation --------------------------------------------------------------

    def validate(self) -> List[str]:
        """Structural validation; returns problems (empty when valid).

        Thin compatibility wrapper over the linter's structural pass
        (codes ``QRY001``–``QRY005``); the messages are unchanged.
        """
        # Imported lazily: the analysis package imports this module.
        from repro.analysis.flow_rules import structural_diagnostics

        return [diagnostic.message for diagnostic in structural_diagnostics(self)]

    def check(self) -> None:
        """Raise :class:`FlowValidationError` when structurally invalid."""
        problems = self.validate()
        if problems:
            raise FlowValidationError(problems)
