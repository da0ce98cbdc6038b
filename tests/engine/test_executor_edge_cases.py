"""Operator edge cases, pinned against BOTH execution cores.

Every test here runs once per executor mode — ``legacy`` (the
row-at-a-time reference interpreter) and ``columnar`` (the compiled
columnar engine) — so the two paths cannot drift apart on the corners:
NULL join keys, attribute collisions, union incompatibility, empty
aggregation input, surrogate-key stability and descending sorts.
"""

import pytest

from repro.errors import ExecutionError
from repro.engine import Database, Executor, TableDef
from repro.etlmodel import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    EtlFlow,
    Join,
    Loader,
    Projection,
    Rename,
    Selection,
    Sort,
    SurrogateKey,
    UnionOp,
)
from repro.expressions import ScalarType
from repro.fuzz.oracle import canonical_rows

INT = ScalarType.INTEGER
STR = ScalarType.STRING
DEC = ScalarType.DECIMAL

MODES = ("legacy", "columnar")


def null_key_db():
    database = Database()
    database.create_table(
        TableDef("orders", {"o_id": INT, "cust": STR, "amount": DEC})
    )
    database.insert_many(
        "orders",
        [
            {"o_id": 1, "cust": "ann", "amount": 10.0},
            {"o_id": 2, "cust": None, "amount": 20.0},
            {"o_id": 3, "cust": "bob", "amount": 5.0},
            {"o_id": 4, "cust": "zed", "amount": None},
        ],
    )
    database.create_table(TableDef("custs", {"cust": STR, "city": STR}))
    database.insert_many(
        "custs",
        [
            {"cust": "ann", "city": "Barcelona"},
            {"cust": None, "city": "Nowhere"},
            {"cust": "bob", "city": "Paris"},
        ],
    )
    return database


def join_flow(join_type="inner"):
    flow = EtlFlow("t")
    flow.add(Datastore("orders", table="orders"))
    flow.add(Datastore("custs", table="custs"))
    flow.add(
        Join(
            "join",
            left_keys=("cust",),
            right_keys=("cust",),
            join_type=join_type,
        )
    )
    flow.add(Loader("load", table="out"))
    flow.connect("orders", "join")
    flow.connect("custs", "join")
    flow.connect("join", "load")
    return flow


def run(flow, database, mode, keep=False):
    executor = Executor(database, mode=mode)
    stats = executor.execute(flow, keep_intermediate=keep)
    return executor, stats


@pytest.mark.parametrize("mode", MODES)
class TestJoinNullKeys:
    def test_left_join_null_keys_never_match(self, mode):
        """A NULL key matches nothing — not even a NULL key on the
        right — but LEFT join keeps the row with NULL payload."""
        database = null_key_db()
        run(join_flow("left"), database, mode)
        rows = database.scan("out").rows
        assert len(rows) == 4
        by_id = {row["o_id"]: row for row in rows}
        assert by_id[1]["city"] == "Barcelona"
        assert by_id[2]["city"] is None  # NULL left key: no match
        assert by_id[3]["city"] == "Paris"

    def test_inner_join_drops_null_keys_on_both_sides(self, mode):
        database = null_key_db()
        run(join_flow("inner"), database, mode)
        assert {row["o_id"] for row in database.scan("out").rows} == {1, 3}

    def test_duplicate_right_keys_fan_out(self, mode):
        database = null_key_db()
        database.insert("custs", {"cust": "ann", "city": "Girona"})
        run(join_flow("inner"), database, mode)
        cities = [
            row["city"]
            for row in database.scan("out").rows
            if row["o_id"] == 1
        ]
        # Matches appear in right-side insertion order.
        assert cities == ["Barcelona", "Girona"]

    def test_join_attribute_collision_raises(self, mode):
        """A non-key attribute present on both sides is an error, named
        after the join node."""
        database = null_key_db()
        database.create_table(
            TableDef("custs2", {"custname": STR, "amount": DEC})
        )
        flow = EtlFlow("t")
        flow.add(Datastore("orders", table="orders"))
        flow.add(Datastore("custs", table="custs2"))
        flow.add(Join("join", left_keys=("cust",), right_keys=("custname",)))
        flow.add(Loader("load", table="out"))
        flow.connect("orders", "join")
        flow.connect("custs", "join")
        flow.connect("join", "load")
        with pytest.raises(ExecutionError) as excinfo:
            run(flow, database, mode)
        assert "'join'" in str(excinfo.value)
        assert "'amount'" in str(excinfo.value)


@pytest.mark.parametrize("mode", MODES)
class TestUnionCompatibility:
    def test_union_incompatible_schemas_raise(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.add(Datastore("a", table="orders", columns=("o_id",)))
        flow.add(Datastore("b", table="orders", columns=("cust",)))
        flow.add(UnionOp("u"))
        flow.add(Loader("load", table="out"))
        flow.connect("a", "u")
        flow.connect("b", "u")
        flow.connect("u", "load")
        with pytest.raises(ExecutionError) as excinfo:
            run(flow, database, mode)
        assert "union-compatible" in str(excinfo.value)

    def test_union_keeps_duplicates(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.add(Datastore("a", table="orders", columns=("cust",)))
        flow.add(Datastore("b", table="orders", columns=("cust",)))
        flow.add(UnionOp("u"))
        flow.add(Loader("load", table="out"))
        flow.connect("a", "u")
        flow.connect("b", "u")
        flow.connect("u", "load")
        run(flow, database, mode)
        assert database.row_count("out") == 8


@pytest.mark.parametrize("mode", MODES)
class TestAggregationEdges:
    def test_global_aggregate_on_empty_input_yields_one_row(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders"),
            Selection("none", predicate="amount > 1000000"),
            Aggregation(
                "agg",
                group_by=(),
                aggregates=(
                    AggregationSpec("n", "COUNT", "o_id"),
                    AggregationSpec("total", "SUM", "amount"),
                ),
            ),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        assert database.scan("out").rows == [{"n": 0, "total": None}]

    def test_grouped_aggregate_on_empty_input_yields_no_rows(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders"),
            Selection("none", predicate="amount > 1000000"),
            Aggregation(
                "agg",
                group_by=("cust",),
                aggregates=(AggregationSpec("n", "COUNT", "o_id"),),
            ),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        assert database.scan("out").rows == []


@pytest.mark.parametrize("mode", MODES)
class TestSurrogateKeys:
    def test_surrogate_keys_dense_and_stable(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders", columns=("cust",)),
            SurrogateKey("sk", output="cust_id", business_keys=("cust",)),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        rows = database.scan("out").rows
        # First occurrence order: ann=1, NULL=2, bob=3, zed=4.
        assert [row["cust_id"] for row in rows] == [1, 2, 3, 4]
        assigned = {}
        for row in rows:
            assigned.setdefault(row["cust"], row["cust_id"])
            assert row["cust_id"] == assigned[row["cust"]]

    def test_surrogate_column_comes_first(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders", columns=("cust",)),
            SurrogateKey("sk", output="cust_id", business_keys=("cust",)),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        assert database.scan("out").attribute_names() == ["cust_id", "cust"]


@pytest.mark.parametrize("mode", MODES)
class TestSortDirections:
    def test_sort_descending(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders", columns=("o_id", "amount")),
            Sort("sort", keys=("amount",), descending=True),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        amounts = [row["amount"] for row in database.scan("out").rows]
        # Descending reverses the NULLs-first ascending order.
        assert amounts == [20.0, 10.0, 5.0, None]

    def test_sort_ascending_nulls_first(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders", columns=("o_id", "amount")),
            Sort("sort", keys=("amount",)),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        amounts = [row["amount"] for row in database.scan("out").rows]
        assert amounts == [None, 5.0, 10.0, 20.0]

    def tied_db(self):
        database = Database()
        database.create_table(TableDef("t", {"k": INT, "pos": INT}))
        database.insert_many(
            "t",
            [
                {"k": 1, "pos": 0},
                {"k": None, "pos": 1},
                {"k": 2, "pos": 2},
                {"k": 1, "pos": 3},
                {"k": None, "pos": 4},
                {"k": 2, "pos": 5},
            ],
        )
        return database

    def test_sort_descending_is_stable(self, mode):
        """``reverse=True`` sorting is stable, not reversed: rows with
        equal keys (NULL ties included) keep their insertion order."""
        database = self.tied_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="t"),
            Sort("sort", keys=("k",), descending=True),
            Loader("load", table="out"),
        )
        run(flow, database, mode)
        rows = [(row["k"], row["pos"]) for row in database.scan("out").rows]
        # Descending: values first (2s, then 1s), NULLs last; within
        # each tie group the original positions stay ascending.
        assert rows == [
            (2, 2), (2, 5), (1, 0), (1, 3), (None, 1), (None, 4)
        ]

    def test_sort_descending_null_placement_matches_legacy(self, mode):
        """Cross-mode pin: both modes must produce the byte-identical
        row order, NULL placement included (not only equal multisets)."""
        ordered = {}
        for run_mode in ("legacy", mode):
            database = self.tied_db()
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="t"),
                Sort("sort", keys=("k", "pos"), descending=True),
                Loader("load", table="out"),
            )
            run(flow, database, run_mode)
            ordered[run_mode] = [
                (row["k"], row["pos"]) for row in database.scan("out").rows
            ]
        assert ordered[mode] == ordered["legacy"]
        assert [pair[0] for pair in ordered[mode][-2:]] == [None, None]


@pytest.mark.parametrize("mode", MODES)
class TestUnaryChains:
    """A chain of unary operators gives the same rows, the same per-node
    stats and the same errors in both modes."""

    def chain_flow(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders"),
            Selection("pos", predicate="amount > 0"),
            DerivedAttribute("vat", output="vat", expression="amount * 0.21"),
            Projection("proj", columns=("o_id", "vat")),
            Rename("ren", renaming=(("vat", "tax"),)),
            Selection("big", predicate="tax > 2"),
            Loader("load", table="out"),
        )
        return flow

    def test_chain_result(self, mode):
        database = null_key_db()
        run(self.chain_flow(), database, mode)
        rows = database.scan("out").rows
        assert database.scan("out").attribute_names() == ["o_id", "tax"]
        by_id = {row["o_id"]: row["tax"] for row in rows}
        assert set(by_id) == {1, 2}
        assert by_id[1] == pytest.approx(2.1)

    def test_chain_stats_are_exact(self, mode):
        database = null_key_db()
        __, stats = run(self.chain_flow(), database, mode)
        assert stats.node("pos").input_rows == 4
        assert stats.node("pos").output_rows == 3
        assert stats.node("vat").output_rows == 3
        assert stats.node("proj").output_rows == 3
        assert stats.node("ren").output_rows == 3
        assert stats.node("big").input_rows == 3
        assert stats.node("big").output_rows == 2
        assert stats.loaded == {"out": 2}
        assert stats.node("big").rows_per_second >= 0.0

    def test_chain_error_blames_right_node(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders"),
            Selection("ok", predicate="o_id > 0"),
            DerivedAttribute("boom", output="x", expression="cust + 1"),
            Loader("load", table="out"),
        )
        with pytest.raises(ExecutionError) as excinfo:
            run(flow, database, mode)
        assert "'boom'" in str(excinfo.value)

    def test_chain_missing_attribute_error_matches_interpreter(self, mode):
        database = null_key_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="orders"),
            Projection("narrow", columns=("o_id",)),
            Selection("ghost", predicate="amount > 1"),
            Loader("load", table="out"),
        )
        with pytest.raises(ExecutionError) as excinfo:
            run(flow, database, mode)
        assert "'ghost'" in str(excinfo.value)
        assert "amount" in str(excinfo.value)


class TestModeEquivalence:
    def test_modes_produce_identical_loads(self):
        results = {}
        for mode in MODES:
            database = null_key_db()
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="orders"),
                Selection("sel", predicate="amount >= 5"),
                DerivedAttribute(
                    "net", output="net", expression="amount * 0.79"
                ),
                Aggregation(
                    "agg",
                    group_by=("cust",),
                    aggregates=(AggregationSpec("total", "SUM", "net"),),
                ),
                Sort("sort", keys=("cust",)),
                Loader("load", table="out"),
            )
            run(flow, database, mode)
            results[mode] = canonical_rows(database.scan("out").rows)
        assert results["legacy"] == results["columnar"]

    def test_modes_report_every_node_in_topological_order(self):
        """One NodeStats per node, in topological order, even where a
        second branch runs between two nodes of a unary chain."""
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src_a", table="orders"),
            Selection("pos", predicate="amount > 0"),
            Projection("proj", columns=("o_id", "amount")),
            Loader("load_a", table="out_a"),
        )
        flow.chain(
            Datastore("src_b", table="custs"),
            Loader("load_b", table="out_b"),
        )
        order = flow.topological_order()
        assert order == ["src_a", "src_b", "pos", "load_b", "proj", "load_a"]
        for mode in MODES:
            __, stats = run(flow, null_key_db(), mode)
            assert [node.name for node in stats.nodes] == order

    def test_unknown_mode_rejected(self):
        for mode in ("vectorised", "parallel", "planned"):
            with pytest.raises(ValueError) as caught:
                Executor(Database(), mode=mode)
            assert str(caught.value) == f"unknown executor mode {mode!r}"


class TestUnhashableKeyValues:
    """An unhashable value reaching a hashing operator (join, distinct,
    aggregate, surrogate key) must raise the same ``ExecutionError`` —
    naming the operator and the offending attribute — in BOTH modes,
    never a bare ``TypeError``.

    The strict database rejects such values at insert, so the tests go
    through the fuzzer's :class:`LooseDatabase`, exactly like the
    differential harness does.
    """

    def loose_db(self):
        from repro.fuzz.datagen import LooseDatabase, TableSpec

        return LooseDatabase.from_specs(
            [
                TableSpec(
                    name="left",
                    schema={"k": INT, "v": STR},
                    rows=[{"k": [1, 2], "v": "a"}, {"k": 1, "v": "b"}],
                ),
                TableSpec(
                    name="right",
                    schema={"j": INT},
                    rows=[{"j": 1}],
                ),
            ]
        )

    def messages(self, flow):
        caught = {}
        for mode in MODES:
            with pytest.raises(ExecutionError) as excinfo:
                run(flow, self.loose_db(), mode)
            caught[mode] = str(excinfo.value)
        return caught

    def test_join_key(self):
        flow = EtlFlow("t")
        flow.add(Datastore("lhs", table="left"))
        flow.add(Datastore("rhs", table="right"))
        flow.add(Join("join", left_keys=("k",), right_keys=("j",)))
        flow.add(Loader("load", table="out"))
        flow.connect("lhs", "join")
        flow.connect("rhs", "join")
        flow.connect("join", "load")
        caught = self.messages(flow)
        assert caught["legacy"] == caught["columnar"]
        assert (
            caught["legacy"]
            == "join: unhashable value [1, 2] for key attribute 'k'"
        )

    def test_distinct(self):
        from repro.etlmodel import Distinct

        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="left"),
            Distinct("uniq"),
            Loader("load", table="out"),
        )
        caught = self.messages(flow)
        assert caught["legacy"] == caught["columnar"]
        assert (
            caught["legacy"]
            == "distinct: unhashable value [1, 2] for key attribute 'k'"
        )

    def test_aggregate_group_key(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="left"),
            Aggregation(
                "agg",
                group_by=("k",),
                aggregates=(AggregationSpec("n", "COUNT", "v"),),
            ),
            Loader("load", table="out"),
        )
        caught = self.messages(flow)
        assert caught["legacy"] == caught["columnar"]
        assert (
            caught["legacy"]
            == "aggregate: unhashable value [1, 2] for key attribute 'k'"
        )

    def test_surrogate_business_key(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="left"),
            SurrogateKey("sk", output="sid", business_keys=("k",)),
            Loader("load", table="out"),
        )
        caught = self.messages(flow)
        assert caught["legacy"] == caught["columnar"]
        assert (
            caught["legacy"]
            == "surrogate-key: unhashable value [1, 2] for key attribute 'k'"
        )


@pytest.mark.parametrize("mode", ("legacy", "columnar"))
def test_loader_type_error_names_the_first_failing_row(mode):
    """Every mode loads through the same batch write path, so a typed
    target rejects the first failing row, not the first failing column,
    and keeps the rows before it."""
    database = Database()
    database.create_table(TableDef("src", {"a": DEC, "b": DEC}))
    database.insert_many("src", [{"a": 1, "b": 2.5}, {"a": 1.5, "b": 2}])
    database.create_table(TableDef("out", {"a": INT, "b": INT}))
    flow = EtlFlow("t")
    flow.chain(Datastore("src", table="src"), Loader("load", table="out"))
    with pytest.raises(ExecutionError) as caught:
        Executor(database, mode=mode).execute(flow)
    assert str(caught.value) == (
        "node 'load': attribute 'b': expected integer, got decimal (2.5)"
    )
    assert database.row_count("out") == 0


@pytest.mark.parametrize(
    "join_type, right_rows, expected_rows",
    [
        ("inner", 2, 10_000),
        ("left", 2, 10_000),
        ("inner", 0, 0),
        ("left", 0, 5_000),
    ],
)
def test_keyless_join_is_a_cross_product_in_every_mode(
    join_type, right_rows, expected_rows
):
    """A join with no keys pairs every left row with every right row."""
    loads = {}
    for mode in ("legacy", "columnar"):
        database = Database()
        database.create_table(TableDef("l", {"a": INT}))
        database.insert_many("l", [{"a": index} for index in range(5_000)])
        database.create_table(TableDef("r", {"b": STR}))
        database.insert_many(
            "r", [{"b": f"b{index}"} for index in range(right_rows)]
        )
        flow = EtlFlow("t")
        flow.add(Datastore("l", table="l"))
        flow.add(Datastore("r", table="r"))
        flow.add(Join("j", join_type=join_type))
        flow.add(Loader("load", table="out"))
        flow.connect("l", "j")
        flow.connect("r", "j")
        flow.connect("j", "load")
        Executor(database, mode=mode).execute(flow)
        loads[mode] = [
            (row["a"], row["b"]) for row in database.scan("out").rows
        ]
    assert len(loads["legacy"]) == expected_rows
    assert loads["columnar"] == loads["legacy"]
