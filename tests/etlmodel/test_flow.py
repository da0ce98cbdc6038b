"""Unit tests for the ETL flow DAG."""

from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import EtlError, FlowValidationError, UnknownOperationError
from repro.etlmodel import (
    Datastore,
    EtlFlow,
    Extraction,
    Join,
    Loader,
    Selection,
)


def linear_flow():
    flow = EtlFlow("linear")
    flow.chain(
        Datastore("src", table="t", columns=("a", "b")),
        Selection("filter", predicate="a > 1"),
        Extraction("extract", columns=("a",)),
        Loader("load", table="out"),
    )
    return flow


class TestConstruction:
    def test_duplicate_node_rejected(self):
        flow = EtlFlow("f")
        flow.add(Selection("s"))
        with pytest.raises(EtlError):
            flow.add(Selection("s"))

    def test_edge_endpoints_must_exist(self):
        flow = EtlFlow("f")
        flow.add(Selection("s"))
        with pytest.raises(UnknownOperationError):
            flow.connect("s", "missing")

    def test_duplicate_edge_rejected(self):
        flow = EtlFlow("f")
        flow.add(Selection("a"))
        flow.add(Selection("b"))
        flow.connect("a", "b")
        with pytest.raises(EtlError):
            flow.connect("a", "b")

    def test_chain_connects_linearly(self):
        flow = linear_flow()
        assert flow.inputs("filter") == ["src"]
        assert flow.inputs("extract") == ["filter"]
        assert len(flow) == 4

    def test_chain_requires_an_operation(self):
        with pytest.raises(EtlError):
            EtlFlow("f").chain()

    def test_node_lookup(self):
        flow = linear_flow()
        assert flow.node("filter").predicate == "a > 1"
        with pytest.raises(UnknownOperationError):
            flow.node("nope")
        assert flow.has_node("filter")
        assert not flow.has_node("nope")


class TestTopology:
    def test_sources_and_sinks(self, revenue_flow):
        assert set(revenue_flow.sources()) == {
            "DATASTORE_lineitem", "DATASTORE_orders",
            "DATASTORE_customer", "DATASTORE_nation",
        }
        assert revenue_flow.sinks() == ["LOAD_fact_revenue"]

    def test_topological_order_respects_edges(self, revenue_flow):
        order = revenue_flow.topological_order()
        position = {name: index for index, name in enumerate(order)}
        for edge in revenue_flow.edges():
            assert position[edge.source] < position[edge.target]

    def test_cycle_detected(self):
        flow = EtlFlow("cyclic")
        flow.add(Selection("a"))
        flow.add(Selection("b"))
        flow.connect("a", "b")
        flow.connect("b", "a")
        with pytest.raises(FlowValidationError):
            flow.topological_order()

    def test_join_input_order_is_edge_order(self, revenue_flow):
        assert revenue_flow.inputs("JOIN_lineitem_orders") == [
            "EXTRACTION_lineitem",
            "EXTRACTION_orders",
        ]

    def test_upstream_downstream(self, revenue_flow):
        upstream = revenue_flow.upstream("SELECTION_nation")
        assert "DATASTORE_lineitem" in upstream
        assert "LOAD_fact_revenue" not in upstream
        downstream = revenue_flow.downstream("EXTRACTION_nation")
        assert "LOAD_fact_revenue" in downstream
        assert "DATASTORE_orders" not in downstream

    def test_path_from_source_stops_at_join(self, revenue_flow):
        path = revenue_flow.path_from_source("LOAD_fact_revenue")
        assert path == [
            "JOIN_customer_nation",
            "SELECTION_nation",
            "DERIVE_revenue",
            "AGG_revenue",
            "LOAD_fact_revenue",
        ]


class TestSurgery:
    def test_remove_unary_node_splices(self):
        flow = linear_flow()
        flow.remove_node("filter")
        assert flow.inputs("extract") == ["src"]
        assert not flow.has_node("filter")

    def test_remove_source_drops_edges(self):
        flow = linear_flow()
        flow.remove_node("src")
        assert flow.inputs("filter") == []

    def test_remove_node_does_not_duplicate_a_spliced_edge(self):
        flow = EtlFlow("f")
        for name in ("s", "m", "t"):
            flow.add(Selection(name))
        flow.connect("s", "m")
        flow.connect("m", "t")
        flow.connect("s", "t")
        flow.remove_node("m")
        assert [(edge.source, edge.target) for edge in flow.edges()] == [("s", "t")]
        assert flow.inputs("t") == ["s"]

    def test_remove_node_whose_only_input_is_itself_drops_its_edges(self):
        flow = EtlFlow("f")
        flow.add(Selection("a"))
        flow.add(Selection("b"))
        flow.connect("a", "a")
        flow.connect("a", "b")
        flow.remove_node("a")
        assert flow.edges() == []
        assert flow.inputs("b") == []

    def test_replace_node_keeps_name(self):
        flow = linear_flow()
        flow.replace_node("filter", Selection("filter", predicate="b = 2"))
        assert flow.node("filter").predicate == "b = 2"
        with pytest.raises(EtlError):
            flow.replace_node("filter", Selection("renamed"))

    def test_insert_between(self):
        flow = linear_flow()
        flow.insert_between("src", "filter", Selection("early", predicate="b = 1"))
        assert flow.inputs("filter") == ["early"]
        assert flow.inputs("early") == ["src"]

    def test_insert_between_requires_edge(self):
        flow = linear_flow()
        with pytest.raises(EtlError):
            flow.insert_between("src", "load", Selection("x"))

    def test_insert_between_preserves_join_input_slot(self, revenue_flow):
        revenue_flow.insert_between(
            "EXTRACTION_orders",
            "JOIN_lineitem_orders",
            Selection("open_only", predicate="o_custkey > 0"),
        )
        assert revenue_flow.inputs("JOIN_lineitem_orders") == [
            "EXTRACTION_lineitem",
            "open_only",
        ]

    def test_swap_with_predecessor(self):
        flow = linear_flow()
        flow.swap_with_predecessor("extract")
        order = flow.topological_order()
        assert order.index("extract") < order.index("filter")
        assert flow.inputs("extract") == ["src"]
        assert flow.inputs("filter") == ["extract"]
        assert flow.inputs("load") == ["filter"]

    def test_swap_requires_unary_shape(self, revenue_flow):
        with pytest.raises(EtlError):
            revenue_flow.swap_with_predecessor("JOIN_lineitem_orders")

    def test_copy_is_independent(self, revenue_flow):
        clone = revenue_flow.copy("clone")
        clone.remove_node("SELECTION_nation")
        assert revenue_flow.has_node("SELECTION_nation")
        assert clone.name == "clone"
        assert clone.requirements == revenue_flow.requirements


class TestGraft:
    def test_graft_unifies_mapped_nodes(self):
        target = linear_flow()
        other = EtlFlow("other", requirements={"IR2"})
        other.chain(
            Datastore("src", table="t", columns=("a", "b")),
            Selection("other_filter", predicate="b = 2"),
            Loader("other_load", table="out2"),
        )
        mapping = target.graft(other, at={"src": "src"})
        assert mapping["src"] == "src"
        assert target.has_node("other_filter")
        assert target.inputs("other_filter") == ["src"]
        assert "IR2" in target.requirements

    def test_graft_renames_collisions(self):
        target = linear_flow()
        other = EtlFlow("other")
        other.chain(
            Datastore("src2", table="t2", columns=("x",)),
            Selection("filter", predicate="x = 1"),  # collides with target
            Loader("load2", table="o"),
        )
        mapping = target.graft(other, at={})
        assert mapping["filter"] == "filter_2"
        assert target.node("filter_2").predicate == "x = 1"


class TestValidation:
    def test_valid_flow_passes(self, revenue_flow):
        assert revenue_flow.validate() == []
        revenue_flow.check()

    def test_arity_violation_detected(self):
        flow = EtlFlow("bad")
        flow.add(Datastore("src", table="t", columns=("a",)))
        flow.add(Join("join"))
        flow.add(Loader("load", table="o"))
        flow.connect("src", "join")
        flow.connect("join", "load")
        problems = flow.validate()
        assert any("expects 2 input" in problem for problem in problems)

    def test_dead_end_detected(self):
        flow = EtlFlow("bad")
        flow.add(Datastore("src", table="t", columns=("a",)))
        flow.add(Selection("s", predicate="a = 1"))
        flow.connect("src", "s")
        problems = flow.validate()
        assert any("dead end" in problem for problem in problems)

    def test_check_raises(self):
        flow = EtlFlow("bad")
        flow.add(Selection("s"))
        with pytest.raises(FlowValidationError):
            flow.check()


# -- the adjacency index against the edge list --------------------------------
#
# The reference answers below scan ``edges()`` the way the flow did before
# it kept an adjacency index.


def reference_inputs(flow, name):
    return [edge.source for edge in flow.edges() if edge.target == name]


def reference_outputs(flow, name):
    return [edge.target for edge in flow.edges() if edge.source == name]


def reference_closure(flow, name, step):
    result = set()
    frontier = deque(step(flow, name))
    while frontier:
        current = frontier.popleft()
        if current in result:
            continue
        result.add(current)
        frontier.extend(step(flow, current))
    return result


def reference_topological_order(flow):
    edges = flow.edges()
    in_degree = {name: 0 for name in flow.node_names()}
    for edge in edges:
        in_degree[edge.target] += 1
    queue = deque(name for name in flow.node_names() if in_degree[name] == 0)
    order = []
    while queue:
        current = queue.popleft()
        order.append(current)
        for edge in edges:
            if edge.source != current:
                continue
            in_degree[edge.target] -= 1
            if in_degree[edge.target] == 0:
                queue.append(edge.target)
    if len(order) != len(flow):
        raise FlowValidationError(["flow contains a cycle"])
    return order


def assert_index_matches_edges(flow):
    targets = {edge.target for edge in flow.edges()}
    origins = {edge.source for edge in flow.edges()}
    names = flow.node_names()
    assert flow.sources() == [name for name in names if name not in targets]
    assert flow.sinks() == [name for name in names if name not in origins]
    for name in names:
        assert flow.inputs(name) == reference_inputs(flow, name)
        assert flow.outputs(name) == reference_outputs(flow, name)
        assert flow.upstream(name) == reference_closure(
            flow, name, reference_inputs
        )
        assert flow.downstream(name) == reference_closure(
            flow, name, reference_outputs
        )
    try:
        expected = reference_topological_order(flow)
    except FlowValidationError as error:
        with pytest.raises(FlowValidationError) as raised:
            flow.topological_order()
        assert raised.value.violations == error.violations
        return
    assert flow.topological_order() == expected
    assert [
        (operation.name, sources)
        for operation, sources in flow.topological_inputs()
    ] == [(name, tuple(reference_inputs(flow, name))) for name in expected]


MUTATORS = (
    "add",
    "connect",
    "disconnect",
    "chain",
    "remove_node",
    "insert_between",
    "swap_with_predecessor",
    "graft",
    "copy",
)

steps = st.lists(
    st.tuples(
        st.sampled_from(MUTATORS),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=40,
)


def apply_step(flow, step, fresh):
    """Apply one mutator to ``flow``; returns the flow to continue with."""
    mutator, first, second = step
    names = flow.node_names()
    edges = flow.edges()

    def node(index):
        return names[index % len(names)] if names else "missing"

    def edge(index):
        picked = edges[index % len(edges)]
        return picked.source, picked.target

    if mutator == "add":
        flow.add(Selection(f"n{next(fresh)}"))
    elif mutator == "connect":
        flow.connect(node(first), node(second))
    elif mutator == "disconnect" and edges:
        flow.disconnect(*edge(first))
    elif mutator == "chain":
        # Reuses an existing node as the head, as the generator does.
        head = flow.node(node(first)) if names else Selection(f"n{next(fresh)}")
        flow.chain(head, Selection(f"n{next(fresh)}"), Selection(f"n{next(fresh)}"))
    elif mutator == "remove_node":
        flow.remove_node(node(first))
    elif mutator == "insert_between" and edges:
        flow.insert_between(*edge(first), Selection(f"n{next(fresh)}"))
    elif mutator == "swap_with_predecessor":
        flow.swap_with_predecessor(node(first))
    elif mutator == "graft":
        # Names that may collide with this flow's, and one unified node.
        other = EtlFlow("other", requirements={"IR9"})
        other.chain(*(Selection(f"n{(first + offset) % 8}") for offset in range(3)))
        at = {other.node_names()[0]: node(second)} if names else {}
        flow.graft(other, at=at)
    elif mutator == "copy":
        clone = flow.copy()
        assert_index_matches_edges(flow)
        return clone
    return flow


class TestAdjacencyIndex:
    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_random_surgery_keeps_index_equal_to_edge_list(self, sequence):
        flow = EtlFlow("random")
        fresh = iter(range(10_000))
        for step in sequence:
            try:
                flow = apply_step(flow, step, fresh)
            except EtlError:
                pass  # refused surgery must leave a consistent flow too
            assert_index_matches_edges(flow)

    def test_queries_between_mutations_see_each_change(self):
        flow = linear_flow()
        assert flow.sinks() == ["load"]
        flow.add(Loader("load2", table="out2"))
        assert flow.sinks() == ["load", "load2"]
        flow.connect("extract", "load2")
        assert flow.outputs("extract") == ["load", "load2"]
        flow.disconnect("extract", "load")
        assert flow.outputs("extract") == ["load2"]
        assert flow.sources() == ["src", "load"]
        assert_index_matches_edges(flow)
