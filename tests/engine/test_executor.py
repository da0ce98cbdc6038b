"""Unit and integration tests for the ETL flow executor."""

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
    Rename,
    Selection,
    Sort,
    SurrogateKey,
    UnionOp,
)
from repro.etlmodel.equivalence import normalize
from repro.expressions import ScalarType

from tests.etlmodel.conftest import build_revenue_flow

INT = ScalarType.INTEGER
STR = ScalarType.STRING
DEC = ScalarType.DECIMAL


def tiny_db():
    database = Database()
    database.create_table(
        TableDef("items", {"k": INT, "cat": STR, "price": DEC})
    )
    database.insert_many(
        "items",
        [
            {"k": 1, "cat": "a", "price": 10.0},
            {"k": 2, "cat": "a", "price": 20.0},
            {"k": 3, "cat": "b", "price": 5.0},
            {"k": 4, "cat": None, "price": None},
        ],
    )
    database.create_table(TableDef("cats", {"cat": STR, "label": STR}))
    database.insert_many(
        "cats",
        [{"cat": "a", "label": "Alpha"}, {"cat": "b", "label": "Beta"}],
    )
    return database


def run(flow, database=None, keep=True):
    database = database or tiny_db()
    executor = Executor(database)
    stats = executor.execute(flow, keep_intermediate=keep)
    return executor, stats, database


class TestUnaryOperators:
    def test_datastore_scan_and_projection(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items", columns=("k", "price")),
            Loader("load", table="out"),
        )
        executor, stats, db = run(flow)
        assert db.scan("out").attribute_names() == ["k", "price"]
        assert db.row_count("out") == 4

    def test_selection_filters_nulls_out(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Selection("sel", predicate="price > 6"),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        # NULL price row does not pass (three-valued logic).
        assert {row["k"] for row in db.scan("out").rows} == {1, 2}

    def test_selection_keeping_every_row_returns_its_input(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Selection("sel", predicate="k >= 0"),
            Loader("load", table="out"),
        )
        executor, __, __ = run(flow)
        # Zero copy: a filter that drops nothing passes its input on.
        assert executor.relations["sel"] is executor.relations["src"]

    def test_derive_computes_expression(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            DerivedAttribute("derive", output="vat", expression="price * 0.21"),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        by_key = {row["k"]: row for row in db.scan("out").rows}
        assert by_key[1]["vat"] == pytest.approx(2.1)
        assert by_key[4]["vat"] is None

    def test_rename(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items", columns=("k",)),
            Rename("ren", renaming=(("k", "item_key"),)),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        assert db.scan("out").attribute_names() == ["item_key"]

    def test_sort(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items", columns=("k", "price")),
            Sort("sort", keys=("price",)),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        prices = [row["price"] for row in db.scan("out").rows]
        assert prices == [None, 5.0, 10.0, 20.0]

    def test_surrogate_key_dense_and_stable(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items", columns=("cat",)),
            SurrogateKey("sk", output="cat_id", business_keys=("cat",)),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        rows = db.scan("out").rows
        ids = {row["cat"]: row["cat_id"] for row in rows}
        assert ids["a"] == 1 and ids["b"] == 2
        # All rows with the same business key share the surrogate.
        assert all(row["cat_id"] == ids[row["cat"]] for row in rows)


class TestBinaryOperators:
    def test_inner_join_drops_unmatched(self):
        flow = EtlFlow("t")
        flow.add(Datastore("items", table="items"))
        flow.add(Datastore("cats", table="cats"))
        flow.add(Join("join", left_keys=("cat",), right_keys=("cat",)))
        flow.add(Loader("load", table="out"))
        flow.connect("items", "join")
        flow.connect("cats", "join")
        flow.connect("join", "load")
        __, __, db = run(flow)
        rows = db.scan("out").rows
        assert len(rows) == 3  # NULL-cat row finds no match
        assert all("label" in row for row in rows)

    def test_left_join_keeps_unmatched_with_nulls(self):
        flow = EtlFlow("t")
        flow.add(Datastore("items", table="items"))
        flow.add(Datastore("cats", table="cats"))
        flow.add(
            Join("join", left_keys=("cat",), right_keys=("cat",), join_type="left")
        )
        flow.add(Loader("load", table="out"))
        flow.connect("items", "join")
        flow.connect("cats", "join")
        flow.connect("join", "load")
        __, __, db = run(flow)
        rows = db.scan("out").rows
        assert len(rows) == 4
        null_row = next(row for row in rows if row["k"] == 4)
        assert null_row["label"] is None

    def test_union(self):
        flow = EtlFlow("t")
        flow.add(Datastore("a", table="items", columns=("k",)))
        flow.add(Datastore("b", table="items", columns=("k",)))
        flow.add(UnionOp("u"))
        flow.add(Loader("load", table="out"))
        flow.connect("a", "u")
        flow.connect("b", "u")
        flow.connect("u", "load")
        __, __, db = run(flow)
        assert db.row_count("out") == 8

    def test_union_incompatible_raises(self):
        flow = EtlFlow("t")
        flow.add(Datastore("a", table="items", columns=("k",)))
        flow.add(Datastore("b", table="items", columns=("cat",)))
        flow.add(UnionOp("u"))
        flow.add(Loader("load", table="out"))
        flow.connect("a", "u")
        flow.connect("b", "u")
        flow.connect("u", "load")
        with pytest.raises(ExecutionError):
            run(flow)


def three_joins_flow():
    """One ``cats`` scan is the right input of three joins."""
    flow = EtlFlow("t")
    flow.add(Datastore("items", table="items"))
    flow.add(Datastore("dim", table="cats"))
    for index, join_type in enumerate(("inner", "left", "inner")):
        join = f"join{index}"
        flow.add(
            Join(
                join,
                left_keys=("cat",),
                right_keys=("cat",),
                join_type=join_type,
            )
        )
        flow.connect("items", join)
        flow.connect("dim", join)
        flow.add(Loader(f"load{index}", table=f"out{index}"))
        flow.connect(join, f"load{index}")
    return flow


class TestJoinSharing:
    def test_loaded_tables_share_no_list_with_intermediates(self):
        executor, __, database = run(three_joins_flow())
        relations = executor.relations
        # The LEFT join matches each item at most once, so its output
        # shares the item columns instead of copying them.
        items_k = relations["items"].columns["k"]
        assert relations["join1"].columns["k"] is items_k
        kept = {
            id(column)
            for relation in relations.values()
            for column in relation.columns.values()
        }
        for table in ("out0", "out1", "out2"):
            stored = database.scan_columns(table).columns.values()
            assert not kept & {id(column) for column in stored}


class TestAggregation:
    def test_group_by_with_null_group(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Aggregation(
                "agg",
                group_by=("cat",),
                aggregates=(
                    AggregationSpec("total", "SUM", "price"),
                    AggregationSpec("n", "COUNT", "price"),
                ),
            ),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        by_cat = {row["cat"]: row for row in db.scan("out").rows}
        assert by_cat["a"]["total"] == pytest.approx(30.0)
        assert by_cat["b"]["n"] == 1
        # NULL group exists; its SUM over no non-null values is NULL.
        assert by_cat[None]["total"] is None
        assert by_cat[None]["n"] == 0

    def test_global_aggregate_over_empty_input(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Selection("none", predicate="price > 1000"),
            Aggregation(
                "agg",
                group_by=(),
                aggregates=(AggregationSpec("n", "COUNT", "k"),),
            ),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        assert db.scan("out").rows == [{"n": 0}]

    def test_min_max_avg(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Aggregation(
                "agg",
                group_by=(),
                aggregates=(
                    AggregationSpec("lo", "MIN", "price"),
                    AggregationSpec("hi", "MAX", "price"),
                    AggregationSpec("mean", "AVERAGE", "price"),
                ),
            ),
            Loader("load", table="out"),
        )
        __, __, db = run(flow)
        row = db.scan("out").rows[0]
        assert row["lo"] == 5.0 and row["hi"] == 20.0
        assert row["mean"] == pytest.approx(35.0 / 3)


class TestLoader:
    def test_replace_mode_truncates(self):
        database = tiny_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items", columns=("k",)),
            Loader("load", table="out", mode="replace"),
        )
        run(flow, database)
        run(flow, database)
        assert database.row_count("out") == 4

    def test_insert_mode_appends(self):
        database = tiny_db()
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items", columns=("k",)),
            Loader("load", table="out", mode="insert"),
        )
        run(flow, database)
        run(flow, database)
        assert database.row_count("out") == 8


class TestStatsAndErrors:
    def test_stats_report_rows_and_time(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Selection("sel", predicate="price > 6"),
            Loader("load", table="out"),
        )
        __, stats, __ = run(flow)
        assert stats.node("src").output_rows == 4
        assert stats.node("sel").input_rows == 4
        assert stats.node("sel").output_rows == 2
        assert stats.seconds > 0
        assert stats.loaded == {"out": 2}
        assert stats.total_rows_processed == 6  # 0 (scan) + 4 (sel) + 2 (load)
        with pytest.raises(KeyError):
            stats.node("ghost")

    def test_invalid_flow_rejected_before_running(self):
        flow = EtlFlow("t")
        flow.add(Selection("sel"))
        from repro.errors import FlowValidationError

        with pytest.raises(FlowValidationError):
            Executor(tiny_db()).execute(flow)

    def test_error_names_failing_node(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Selection("sel", predicate="ghost = 1"),
            Loader("load", table="out"),
        )
        with pytest.raises(ExecutionError) as excinfo:
            run(flow)
        assert "sel" in str(excinfo.value)

    def test_intermediate_relations_released_by_default(self):
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="items"),
            Loader("load", table="out"),
        )
        executor = Executor(tiny_db())
        executor.execute(flow, keep_intermediate=False)
        assert not hasattr(executor, "relations")


class TestRevenueFlowEndToEnd:
    @pytest.fixture(scope="class")
    def loaded(self, tpch_db):
        flow = build_revenue_flow()
        executor = Executor(tpch_db)
        stats = executor.execute(flow, keep_intermediate=True)
        return executor, stats, tpch_db

    def test_result_matches_manual_computation(self, loaded):
        executor, __, db = loaded
        result = executor.relations["AGG_revenue"]
        assert result.attribute_names() == ["n_name", "total_revenue"]
        # Manual recomputation straight from the source tables.
        nations = {r["n_nationkey"]: r["n_name"] for r in db.scan("nation").rows}
        customers = {
            r["c_custkey"]: nations[r["c_nationkey"]]
            for r in db.scan("customer").rows
        }
        orders = {
            r["o_orderkey"]: customers[r["o_custkey"]]
            for r in db.scan("orders").rows
        }
        expected = 0.0
        for row in db.scan("lineitem").rows:
            if orders[row["l_orderkey"]] == "SPAIN":
                expected += row["l_extendedprice"] * (1 - row["l_discount"])
        got = {row["n_name"]: row["total_revenue"] for row in result.rows}
        if expected == 0.0:
            assert "SPAIN" not in got
        else:
            assert got["SPAIN"] == pytest.approx(expected)

    def test_normalized_flow_computes_identical_result(self, tpch_db):
        baseline = Executor(tpch_db)
        baseline.execute(build_revenue_flow(), keep_intermediate=True)
        normalized = Executor(tpch_db)
        normalized.execute(
            normalize(build_revenue_flow(name="norm")), keep_intermediate=True
        )
        base_rows = baseline.relations["AGG_revenue"].rows
        agg_name = next(
            node.name
            for node in normalize(build_revenue_flow()).nodes()
            if node.kind == "Aggregation"
        )
        norm_rows = normalized.relations[agg_name].rows
        key = lambda row: row["n_name"]
        assert sorted(base_rows, key=key) == sorted(norm_rows, key=key)
