"""The SCD merge operator, pinned against both execution modes.

The kernel (:func:`repro.engine.scd.scd_merge`) is one pure function
shared by both modes, so dimension history must be *byte-identical* —
same row order, same window values — whether the flow runs legacy or
columnar.  The semantics tests drive two
consecutive loads (initial + changed members) and check the pygrametl
contract: type1 overwrites in place, type2 closes the current row and
opens a versioned one, and a third load with unchanged members is a
no-op.
"""

import datetime

import pytest

from repro.engine import Database, Executor, TableDef
from repro.errors import ExecutionError
from repro.etlmodel import Datastore, EtlFlow, Loader
from repro.etlmodel.ops import SCDType, SCDUpdate
from repro.expressions import ScalarType

INT = ScalarType.INTEGER
STR = ScalarType.STRING

MODES = ("legacy", "columnar")

DATE = datetime.date.fromisoformat


def scd_flow(policy=SCDType.TYPE2, effective_date="2024-01-01"):
    flow = EtlFlow(name="scd")
    flow.add(Datastore("DATASTORE_staging", table="staging"))
    flow.add(
        SCDUpdate(
            "SCD_dim_supplier",
            table="dim_supplier",
            policy=policy,
            business_keys=("s_key",),
            effective_date=effective_date,
        )
    )
    flow.add(Loader("LOAD_dim_supplier", table="dim_supplier", mode="replace"))
    flow.connect("DATASTORE_staging", "SCD_dim_supplier")
    flow.connect("SCD_dim_supplier", "LOAD_dim_supplier")
    return flow


def staging_db(rows):
    database = Database()
    database.create_table(
        TableDef(name="staging", columns={"s_key": INT, "s_nation": STR})
    )
    for row in rows:
        database.insert("staging", dict(row))
    return database


INITIAL = [
    {"s_key": 1, "s_nation": "SPAIN"},
    {"s_key": 2, "s_nation": "FRANCE"},
]
CHANGED = [
    {"s_key": 1, "s_nation": "PERU"},  # descriptor change
    {"s_key": 2, "s_nation": "FRANCE"},  # unchanged
    {"s_key": 3, "s_nation": "KENYA"},  # new member
]


def run_two_loads(mode, policy=SCDType.TYPE2):
    database = staging_db(INITIAL)
    Executor(database, mode=mode).execute(scd_flow(policy, "2024-01-01"))
    database.truncate("staging")
    for row in CHANGED:
        database.insert("staging", dict(row))
    Executor(database, mode=mode).execute(scd_flow(policy, "2024-06-15"))
    return database.scan("dim_supplier").rows


class TestType2Semantics:
    def test_change_closes_and_versions(self):
        rows = run_two_loads("columnar")
        by_key = {}
        for row in rows:
            by_key.setdefault(row["s_key"], []).append(row)
        closed, reopened = by_key[1]
        assert closed["s_nation"] == "SPAIN"
        assert closed["scd_version"] == 1
        assert closed["scd_valid_to"] == DATE("2024-06-15")
        assert closed["scd_is_current"] is False
        assert reopened["s_nation"] == "PERU"
        assert reopened["scd_version"] == 2
        assert reopened["scd_valid_from"] == DATE("2024-06-15")
        assert reopened["scd_valid_to"] is None
        assert reopened["scd_is_current"] is True

    def test_unchanged_member_keeps_open_row(self):
        rows = [row for row in run_two_loads("columnar") if row["s_key"] == 2]
        assert len(rows) == 1
        assert rows[0]["scd_version"] == 1
        assert rows[0]["scd_valid_from"] == DATE("2024-01-01")
        assert rows[0]["scd_is_current"] is True

    def test_new_member_opens_at_version_one(self):
        rows = [row for row in run_two_loads("columnar") if row["s_key"] == 3]
        assert rows == [
            {
                "s_key": 3,
                "s_nation": "KENYA",
                "scd_version": 1,
                "scd_valid_from": DATE("2024-06-15"),
                "scd_valid_to": None,
                "scd_is_current": True,
            }
        ]

    def test_identical_reload_is_a_noop(self):
        database = staging_db(INITIAL)
        executor = Executor(database)
        executor.execute(scd_flow(SCDType.TYPE2, "2024-01-01"))
        first = [dict(row) for row in database.scan("dim_supplier").rows]
        executor.execute(scd_flow(SCDType.TYPE2, "2024-06-15"))
        assert database.scan("dim_supplier").rows == first


class TestType1Semantics:
    def test_overwrites_in_place_without_history(self):
        rows = run_two_loads("columnar", policy=SCDType.TYPE1)
        assert rows == [
            {"s_key": 1, "s_nation": "PERU"},
            {"s_key": 2, "s_nation": "FRANCE"},
            {"s_key": 3, "s_nation": "KENYA"},
        ]


class TestModeParity:
    @pytest.mark.parametrize("mode", MODES[1:])
    def test_history_is_byte_identical_across_modes(self, mode):
        reference = run_two_loads(MODES[0])
        assert run_two_loads(mode) == reference

    @pytest.mark.parametrize("mode", MODES[1:])
    def test_type1_is_byte_identical_across_modes(self, mode):
        reference = run_two_loads(MODES[0], policy=SCDType.TYPE1)
        assert run_two_loads(mode, policy=SCDType.TYPE1) == reference

    @pytest.mark.parametrize("mode", MODES)
    def test_bad_effective_date_fails_identically(self, mode):
        database = staging_db(INITIAL)
        with pytest.raises(ExecutionError, match="not an ISO date"):
            Executor(database, mode=mode).execute(
                scd_flow(SCDType.TYPE2, "junk")
            )


class TestPointInTime:
    def test_windows_reconstruct_any_date(self):
        """The validity windows answer as-of queries: each date between
        loads sees exactly one version of each member."""
        rows = run_two_loads("columnar")

        def as_of(date):
            return {
                row["s_key"]: row["s_nation"]
                for row in rows
                if row["scd_valid_from"] <= date
                and (
                    row["scd_valid_to"] is None
                    or date < row["scd_valid_to"]
                )
            }

        assert as_of(DATE("2024-03-01")) == {1: "SPAIN", 2: "FRANCE"}
        assert as_of(DATE("2024-07-01")) == {
            1: "PERU",
            2: "FRANCE",
            3: "KENYA",
        }
