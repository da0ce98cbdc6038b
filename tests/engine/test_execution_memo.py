"""The columnar executor's per-``execute()`` memo.

Within one call, join indexes, probes, Selection keep vectors and
gathers are keyed on the identity of the column lists they read, so a
join an integrated flow repeats runs once.  These tests pin what the
memo must not change (rows, errors, a rerun over reloaded sources) and
what it saves on the warehouse design.
"""

import pytest

from perfbench.workloads import build_design
from repro.engine import Database, Executor, TableDef, columnar
from repro.engine.columnar import ColumnarRelation, hash_join
from repro.errors import ExecutionError
from repro.etlmodel import Datastore, EtlFlow, Join, Loader, Selection
from repro.etlmodel.equivalence import prune_columns
from repro.etlmodel.ops import JoinType
from repro.expressions import ScalarType
from repro.fuzz.datagen import LooseDatabase, TableSpec
from repro.fuzz.oracle import loaded_rows, run_mode
from repro.sources import tpch

INT = ScalarType.INTEGER
STR = ScalarType.STRING

ORDERS = [
    {"o_id": 1, "cust": 10},
    {"o_id": 2, "cust": 20},
    {"o_id": 3, "cust": None},
    {"o_id": 4, "cust": 40},
    {"o_id": 5, "cust": 10},
]
CUSTOMERS = [
    {"c_id": 10, "name": "ann"},
    {"c_id": 20, "name": "bob"},
    {"c_id": 30, "name": "cy"},
]


def database(orders=ORDERS):
    db = Database()
    db.create_table(TableDef("orders", {"o_id": INT, "cust": INT}))
    db.create_table(TableDef("customers", {"c_id": INT, "name": STR}))
    db.insert_many("orders", orders)
    db.insert_many("customers", CUSTOMERS)
    return db


def both_join_types():
    """INNER, LEFT and INNER again: joins of one scan on the same keys
    and right side, each under the same Selection."""
    flow = EtlFlow("twice")
    flow.add(Datastore("orders", table="orders"))
    flow.add(Datastore("customers", table="customers"))
    for index, join_type in enumerate(
        (JoinType.INNER, JoinType.LEFT, JoinType.INNER)
    ):
        join, selection, loader = (f"{stem}{index}" for stem in ("join", "sel", "load"))
        flow.add(
            Join(join, left_keys=("cust",), right_keys=("c_id",), join_type=join_type)
        )
        flow.connect("orders", join)
        flow.connect("customers", join)
        flow.add(Selection(selection, predicate="o_id > 1"))
        flow.connect(join, selection)
        flow.add(Loader(loader, table=f"out{index}", mode="insert"))
        flow.connect(selection, loader)
    return flow


def count_kernel_calls(monkeypatch):
    calls = {"_join_index": 0, "_join_probe": 0}
    for name in calls:
        original = getattr(columnar, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(columnar, name, counted)
    return calls


def test_inner_and_left_joins_on_the_same_keys_match_legacy(monkeypatch):
    flow = both_join_types()
    legacy = run_mode("legacy", database(), flow)
    calls = count_kernel_calls(monkeypatch)

    columnar_outcome = run_mode("columnar", database(), flow)

    assert columnar_outcome == legacy
    assert legacy[0] == "ok"
    # One right side, one probe per join type: the second INNER join
    # and its Selection reuse the first one's results.
    assert calls == {"_join_index": 1, "_join_probe": 2}
    loaded = legacy[1]
    assert [len(loaded[f"out{index}"]) for index in range(3)] == [2, 4, 2]
    assert loaded["out0"] == loaded["out2"]


def test_a_repeated_join_returns_the_same_lists():
    orders = database().scan_columns("orders")
    customers = database().scan_columns("customers")
    schema = {"o_id": INT, "cust": INT, "name": STR}
    memo = {}

    first, second = (
        hash_join(orders, customers, ["cust"], ["c_id"], ["name"], schema, memo=memo)
        for __ in range(2)
    )

    assert second.columns["name"] is first.columns["name"]
    assert second.columns["o_id"] is first.columns["o_id"]


def test_an_unhashable_key_memoises_nothing_and_keeps_error_parity():
    left = ColumnarRelation(
        {"k": INT, "v": STR}, {"k": [1, [2]], "v": ["a", "b"]}
    )
    right = ColumnarRelation({"j": INT}, {"j": [1, 2]})
    memo = {}

    with pytest.raises(ExecutionError) as excinfo:
        hash_join(left, right, ["k"], ["j"], [], {"k": INT, "v": STR}, memo=memo)

    assert memo == {}
    assert str(excinfo.value) == "join: unhashable value [2] for key attribute 'k'"

    flow = EtlFlow("unhashable")
    flow.add(Datastore("left", table="left"))
    flow.add(Datastore("right", table="right"))
    for index, join_type in enumerate((JoinType.INNER, JoinType.LEFT)):
        flow.add(
            Join(f"join{index}", left_keys=("k",), right_keys=("j",), join_type=join_type)
        )
        flow.connect("left", f"join{index}")
        flow.connect("right", f"join{index}")
        flow.add(Loader(f"load{index}", table=f"out{index}", mode="insert"))
        flow.connect(f"join{index}", f"load{index}")
    specs = [
        TableSpec("left", {"k": INT, "v": STR}, [{"k": 1, "v": "a"}, {"k": [2], "v": "b"}]),
        TableSpec("right", {"j": INT}, [{"j": 1}, {"j": 2}]),
    ]
    outcomes = [
        run_mode(mode, LooseDatabase.from_specs(specs), flow)
        for mode in ("legacy", "columnar")
    ]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "error"
    assert "unhashable value [2] for key attribute 'k'" in outcomes[0][1]


def test_a_rerun_after_a_source_reload_sees_the_new_rows():
    flow = both_join_types()
    db = database()
    executor = Executor(db)
    executor.execute(flow)
    before = loaded_rows(db, flow)

    reloaded = [dict(row, cust=20) for row in ORDERS]
    db.truncate("orders")
    db.insert_many("orders", reloaded)
    for table in loaded_rows(db, flow):
        db.truncate(table)
    executor.execute(flow)

    reference = database(reloaded)
    Executor(reference, mode="legacy").execute(flow)
    assert loaded_rows(db, flow) == loaded_rows(reference, flow)
    assert loaded_rows(db, flow) != before


def test_native_deploy_runs_each_distinct_join_once(monkeypatch):
    data = tpch.generate(0.5)
    db = Database()
    db.load_source(tpch.schema(), data)
    quarry = build_design(12)
    flow = prune_columns(quarry.unified_design()[1])
    assert sum(
        flow.node(name).kind == "Join" for name in flow.topological_order()
    ) == 28
    calls = count_kernel_calls(monkeypatch)

    result = quarry.deploy("native", source_database=db)

    assert calls == {"_join_index": 9, "_join_probe": 19}
    deployed = loaded_rows(db, flow)
    assert result.stats.loaded
    Executor(db, mode="legacy").execute(flow)
    assert loaded_rows(db, flow) == deployed
