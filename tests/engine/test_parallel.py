"""The partitioned parallel engine against its serial reference.

Every test forces chunking (``parallel_row_threshold`` far below the
data size) and compares ``mode="parallel"`` against ``mode="columnar"``
— the contract is byte-identical results: row order, NULL placement,
group order, float bits and error messages all included.  The
equivalence, error-parity and stats-parity suites are parametrised
over ``POOLS``, the worker pools the parallel engine runs its chunks
on; the thread pool is the only one.
"""

import random

import pytest

from repro.engine import Database, Executor, TableDef
from repro.engine.parallel import (
    DEFAULT_PARALLEL_ROW_THRESHOLD,
    chunk_ranges,
    slice_relation,
)
from repro.errors import ExecutionError
from repro.etlmodel import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    Distinct,
    EtlFlow,
    Join,
    JoinType,
    Loader,
    Projection,
    Selection,
    Sort,
)
from repro.expressions import ScalarType

from tests.etlmodel.conftest import build_revenue_flow

INT = ScalarType.INTEGER
STR = ScalarType.STRING
DEC = ScalarType.DECIMAL

ROWS = 503  # odd on purpose: chunks must handle uneven splits

POOLS = ("thread",)


def make_database(rows: int = ROWS) -> Database:
    rng = random.Random(11)
    database = Database()
    database.create_table(
        TableDef(
            "facts",
            {"k": INT, "fk": INT, "cat": STR, "amount": DEC},
        )
    )
    database.insert_many(
        "facts",
        [
            {
                "k": index,
                "fk": rng.randrange(40) if rng.random() > 0.1 else None,
                "cat": rng.choice(["a", "b", "c", None]),
                "amount": (
                    rng.uniform(-50, 50) if rng.random() > 0.1 else None
                ),
            }
            for index in range(rows)
        ],
    )
    database.create_table(TableDef("dims", {"dk": INT, "label": STR}))
    database.insert_many(
        "dims",
        # Duplicate keys included: the join must fan out identically.
        [{"dk": value % 30, "label": f"L{value}"} for value in range(35)],
    )
    return database


def run_modes(build_flow, make_db=make_database, workers=3):
    """Execute a flow in both modes on fresh twin databases."""
    outcomes = []
    for mode in ("columnar", "parallel"):
        database = make_db()
        executor = Executor(
            database,
            mode=mode,
            workers=workers,
            parallel_row_threshold=2,
        )
        try:
            with executor:
                executor.execute(build_flow())
        except ExecutionError as exc:
            outcomes.append(("error", str(exc)))
            continue
        relation = database.scan("out")
        outcomes.append(
            (
                "ok",
                relation.attribute_names(),
                [sorted(row.items()) for row in relation.rows],
            )
        )
    return outcomes


def assert_identical(build_flow, make_db=make_database, workers=3):
    columnar, parallel = run_modes(build_flow, make_db, workers)
    assert parallel == columnar


class TestChunkRanges:
    def test_even_and_uneven_splits(self):
        assert chunk_ranges(10, 2) == [(0, 5), (5, 10)]
        assert chunk_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_degenerate_inputs_stay_single_range(self):
        assert chunk_ranges(10, 1) == [(0, 10)]
        assert chunk_ranges(1, 4) == [(0, 1)]
        assert chunk_ranges(0, 4) == [(0, 0)]

    def test_more_workers_than_rows(self):
        ranges = chunk_ranges(3, 8)
        assert ranges == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("pool", POOLS)
class TestOperatorEquivalence:
    def test_filter_chain_derive_projection(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Selection("sel", predicate="amount > 0"),
                DerivedAttribute(
                    "der", output="double", expression="amount * 2"
                ),
                Projection("proj", columns=("k", "cat", "double")),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build)

    def test_join_with_duplicates_and_null_keys(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("facts", table="facts"))
            flow.add(Datastore("dims", table="dims"))
            flow.add(
                Join(
                    "join", left_keys=("fk",), right_keys=("dk",)
                )
            )
            flow.connect("facts", "join")
            flow.connect("dims", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        assert_identical(build)

    def test_left_outer_join_null_placement(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("facts", table="facts"))
            flow.add(Datastore("dims", table="dims"))
            flow.add(
                Join(
                    "join",
                    left_keys=("fk",),
                    right_keys=("dk",),
                    join_type=JoinType.LEFT,
                )
            )
            flow.connect("facts", "join")
            flow.connect("dims", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        assert_identical(build)

    def test_multi_key_join(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("left", table="facts"))
            flow.add(
                Projection("lp", columns=("k", "fk", "cat"))
            )
            flow.connect("left", "lp")
            flow.add(Datastore("right", table="facts"))
            flow.add(
                Projection("rp", columns=("fk", "cat", "amount"))
            )
            flow.connect("right", "rp")
            flow.add(
                Join(
                    "join",
                    left_keys=("fk", "cat"),
                    right_keys=("fk", "cat"),
                )
            )
            flow.connect("lp", "join")
            flow.connect("rp", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        assert_identical(build)

    def test_aggregation_group_order_and_float_bits(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Aggregation(
                    "agg",
                    group_by=("cat", "fk"),
                    aggregates=(
                        AggregationSpec("SUM", "amount", "total"),
                        AggregationSpec("AVERAGE", "amount", "mean"),
                        AggregationSpec("COUNT", "k", "n"),
                        AggregationSpec("MIN", "k", "low"),
                    ),
                ),
                Loader("load", table="out"),
            )
            return flow

        # Exact equality on unrounded float sums/means: the merge must
        # fold the serial value sequences, not partial per-chunk sums.
        assert_identical(build)

    def test_global_aggregate_single_row(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Aggregation(
                    "agg",
                    group_by=(),
                    aggregates=(
                        AggregationSpec("SUM", "amount", "total"),
                    ),
                ),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build)

    def test_sort_stability_and_distinct(self, pool):
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Projection("proj", columns=("cat", "fk")),
                Distinct("dis"),
                Sort("sort", keys=("cat",)),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build)

    def test_revenue_flow_end_to_end(self, pool):
        from repro.sources import tpch

        def run(mode):
            database = Database("tpch")
            database.load_source(
                tpch.schema(), tpch.generate(scale_factor=0.3, seed=77)
            )
            executor = Executor(
                database,
                mode=mode,
                workers=4,
                parallel_row_threshold=64,
            )
            with executor:
                executor.execute(build_revenue_flow())
            target = database.scan("fact_table_revenue")
            return [sorted(row.items()) for row in target.rows]

        assert run("parallel") == run("columnar")


class TestErrorParity:
    @pytest.mark.parametrize("pool", POOLS)
    def test_chain_error_matches_serial(self, pool):
        # amount is NULL in some rows; "amount + 'x'" fails identically
        # row-for-row in both modes (parallel falls back to the serial
        # per-node path to reproduce the exact failure).
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Selection("sel", predicate="amount > 0"),
                DerivedAttribute(
                    "der", output="bad", expression="amount + cat"
                ),
                Loader("load", table="out"),
            )
            return flow

        columnar, parallel = run_modes(build)
        assert parallel == columnar

    @pytest.mark.parametrize("pool", POOLS)
    def test_unhashable_join_key_message_matches_serial(self, pool):
        # list-valued keys are unhashable: the error message must be
        # the serial engine's full-column scan message, whatever chunk
        # tripped first.  The strict database
        # rejects lists on insert, so the fuzzer's loose duck-type
        # carries them to the operators.
        from repro.fuzz.datagen import LooseDatabase, TableSpec

        def make_db():
            return LooseDatabase.from_specs(
                [
                    TableSpec(
                        "facts",
                        {"k": INT, "fk": INT},
                        [
                            {"k": i, "fk": [i] if i == 37 else i}
                            for i in range(60)
                        ],
                    ),
                    TableSpec(
                        "dims",
                        {"dk": INT, "v": INT},
                        [{"dk": i, "v": i * 10} for i in range(40)],
                    ),
                ]
            )

        def build():
            flow = EtlFlow("t")
            flow.add(Datastore("facts", table="facts"))
            flow.add(Datastore("dims", table="dims"))
            flow.add(Join("join", left_keys=("fk",), right_keys=("dk",)))
            flow.connect("facts", "join")
            flow.connect("dims", "join")
            flow.add(Loader("load", table="out"))
            flow.connect("join", "load")
            return flow

        columnar, parallel = run_modes(build, make_db=make_db)
        assert columnar[0] == "error"
        assert parallel == columnar

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown executor mode"):
            Executor(Database(), mode="threads")
        with pytest.raises(ValueError, match="workers"):
            Executor(Database(), mode="parallel", workers=0)


class TestSerialFallback:
    def test_small_inputs_stay_serial_zero_copy(self):
        database = make_database(rows=10)
        executor = Executor(
            database, mode="parallel", workers=4,
            parallel_row_threshold=4096,
        )
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="facts"),
            Selection("sel", predicate="k >= 0"),
            Loader("load", table="out"),
        )
        with executor:
            executor.execute(flow, keep_intermediate=True)
            # All rows kept: the serial filter returns its input
            # relation unchanged (zero copy), and below the threshold
            # the parallel engine must take that exact path.
            assert (
                executor.relations["sel"] is executor.relations["src"]
            )
        assert executor._pool_instance is None  # never spun up

    def test_pool_is_reused_and_closeable(self):
        database = make_database(rows=50)
        executor = Executor(
            database, mode="parallel", workers=2, parallel_row_threshold=2
        )
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="facts"),
            Selection("sel", predicate="k >= 0"),
            Loader("load", table="out"),
        )
        executor.execute(flow)
        pool = executor._pool_instance
        assert pool is not None
        flow2 = EtlFlow("t2")
        flow2.chain(
            Datastore("src", table="facts"),
            Selection("sel", predicate="k < 10"),
            Loader("load", table="out2"),
        )
        executor.execute(flow2)
        assert executor._pool_instance is pool
        executor.close()
        assert executor._pool_instance is None


def _simple_flow(predicate="k >= 0", out="out"):
    flow = EtlFlow("t")
    flow.chain(
        Datastore("src", table="facts"),
        Selection("sel", predicate=predicate),
        Loader("load", table=out),
    )
    return flow


class TestPoolLifecycle:
    def test_task_exception_does_not_break_pool(self):
        # An exception *raised by a chunk task* (here: a division by
        # zero) is a normal error path — the pool survives and is
        # reused by the next execution.
        database = make_database(rows=60)
        executor = Executor(
            database, mode="parallel", workers=2, parallel_row_threshold=2
        )
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="facts"),
            DerivedAttribute(
                "der", output="bad", expression="amount / (k - 10)"
            ),
            Loader("load", table="out"),
        )
        with executor:
            with pytest.raises(ExecutionError):
                executor.execute(flow)
            pool = executor._pool_instance
            assert pool is not None
            executor.execute(_simple_flow(out="out2"))
            assert executor._pool_instance is pool
            assert len(database.scan("out2")) == 60
        assert executor._pool_instance is None  # context exit shut it down


class TestRowThreshold:
    def test_default_threshold(self):
        executor = Executor(Database(), mode="parallel")
        assert executor._parallel_threshold == DEFAULT_PARALLEL_ROW_THRESHOLD

    def test_explicit_threshold_wins(self):
        executor = Executor(
            Database(), mode="parallel", parallel_row_threshold=7
        )
        assert executor._parallel_threshold == 7


class TestReadSetShipping:
    def test_chain_spec_is_compacted_to_read_set(self):
        from repro.engine.executor import _build_chain_spec

        database = make_database(rows=20)
        relation = database.scan_columns("facts")  # k, fk, cat, amount
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="facts"),
            Selection("sel", predicate="amount > 0"),
            Projection("proj", columns=("k", "amount")),
            Loader("load", table="out"),
        )
        spec = _build_chain_spec(flow, ["sel", "proj"], relation)
        # fk and cat are neither read by the filter nor kept by the
        # projection: they must not be sliced or transported at all.
        assert spec.input_names == ("k", "amount")
        assert dict(spec.output_schema).keys() == {"k", "amount"}
        ((kind, text, positions, counter),) = spec.steps
        assert kind == "filter"
        assert positions == (1,)  # amount, renumbered into the read-set
        assert spec.output_positions == (0, 1)

    def test_compacted_chain_results_match_serial(self):
        # The chain above, end to end.
        def build():
            flow = EtlFlow("t")
            flow.chain(
                Datastore("src", table="facts"),
                Selection("sel", predicate="amount > 0"),
                Projection("proj", columns=("k", "amount")),
                Loader("load", table="out"),
            )
            return flow

        assert_identical(build)

    def test_slice_relation_names_subset(self):
        database = make_database(rows=20)
        relation = database.scan_columns("facts")
        part = slice_relation(relation, 5, 10, names=["k", "amount"])
        assert list(part.schema) == ["k", "amount"]
        assert part.length == 5
        assert part.columns["k"] == relation.columns["k"][5:10]
        assert part.columns["amount"] == relation.columns["amount"][5:10]


class TestStatsParity:
    @pytest.mark.parametrize("pool", POOLS)
    def test_filter_counts_survive_chunk_merge(self, pool):
        database = make_database()
        executor = Executor(
            database,
            mode="parallel",
            workers=3,
            parallel_row_threshold=2,
        )
        flow = EtlFlow("t")
        flow.chain(
            Datastore("src", table="facts"),
            Selection("sel", predicate="amount > 0"),
            Projection("proj", columns=("k", "amount")),
            Loader("load", table="out"),
        )
        with executor:
            stats = executor.execute(flow)
        reference = Executor(make_database(), mode="columnar").execute(flow)
        for name in ("sel", "proj", "load"):
            assert (
                stats.node(name).output_rows
                == reference.node(name).output_rows
            )
