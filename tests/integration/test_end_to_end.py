"""Cross-module integration tests: the full pipeline under one roof.

These tests tie together every subsystem: requirements through a
``Quarry`` session, format round-trips of the *unified* (not just partial) designs,
measure-merge across requirements, full persistence cycles, and
correctness of the deployed warehouse against independent recomputation.
"""

import pytest

from repro import Quarry, RequirementBuilder
from repro.engine import Database, Executor, OlapQuery, query_star
from repro.sources import retail, tpch
from repro.xformats import xlm, xmd

from tests.core.conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)


@pytest.fixture
def quarry():
    return Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())


@pytest.fixture
def loaded_db():
    database = Database()
    database.load_source(tpch.schema(), tpch.generate(0.25, seed=99))
    return database


class TestUnifiedDesignRoundTrips:
    def test_unified_flow_survives_xlm_and_executes(self, quarry, loaded_db):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        __, unified = quarry.unified_design()
        reloaded = xlm.loads(xlm.dumps(unified))
        stats = Executor(loaded_db).execute(reloaded)
        assert stats.loaded["fact_table_revenue"] >= 0
        assert stats.loaded["fact_table_netprofit"] > 0

    def test_unified_schema_survives_xmd_and_deploys(self, quarry, loaded_db):
        from repro.core.deployer import Deployer

        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        md, etl = quarry.unified_design()
        reloaded = xmd.loads(xmd.dumps(md))
        deployer = Deployer(source_schema=tpch.schema())
        result = deployer.deploy(reloaded, etl, "native", source_database=loaded_db)
        assert result.stats is not None


class TestMeasureMergeAcrossRequirements:
    """Two requirements, same grain + slicers, different measures: one
    fact table carries both measures (MD fact merge + ETL aggregation
    fusion)."""

    def _requirements(self):
        first = (
            RequirementBuilder("Q1", "revenue per brand")
            .measure(
                "revenue",
                "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)",
                "SUM",
            )
            .per("Part_p_brand")
            .build()
        )
        second = (
            RequirementBuilder("Q2", "quantity per brand")
            .measure("quantity", "Lineitem_l_quantity", "SUM")
            .per("Part_p_brand")
            .build()
        )
        return first, second

    def test_md_fact_merged(self, quarry):
        first, second = self._requirements()
        quarry.add_requirement(first)
        quarry.add_requirement(second)
        md, __ = quarry.unified_design()
        assert len(md.facts) == 1
        fact = next(iter(md.facts.values()))
        assert set(fact.measures) == {"revenue", "quantity"}
        assert fact.requirements == {"Q1", "Q2"}

    def test_etl_aggregation_fused(self, quarry):
        first, second = self._requirements()
        quarry.add_requirement(first)
        report = quarry.add_requirement(second)
        __, etl = quarry.unified_design()
        aggregations = [n for n in etl.nodes() if n.kind == "Aggregation"]
        assert len(aggregations) == 1
        outputs = {spec.output for spec in aggregations[0].aggregates}
        assert outputs == {"revenue", "quantity"}

    def test_deployed_fact_answers_both(self, quarry, loaded_db):
        first, second = self._requirements()
        quarry.add_requirement(first)
        quarry.add_requirement(second)
        quarry.deploy("native", source_database=loaded_db)
        fact_table = next(iter(quarry.unified_design()[0].facts))
        rows = loaded_db.scan(fact_table).rows
        assert rows
        assert all(
            row["revenue"] is not None and row["quantity"] is not None
            for row in rows
        )
        # Cross-check quantity against raw sources.
        parts = {
            r["p_partkey"]: r["p_brand"] for r in loaded_db.scan("part").rows
        }
        expected = {}
        for row in loaded_db.scan("lineitem").rows:
            brand = parts[row["l_partkey"]]
            expected[brand] = expected.get(brand, 0) + row["l_quantity"]
        got = {row["p_brand"]: row["quantity"] for row in rows}
        assert got == expected


class TestCorrectnessAgainstRecomputation:
    def test_three_requirement_warehouse_is_exact(self, quarry, loaded_db):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        quarry.add_requirement(build_quantity_requirement())
        quarry.deploy("native", source_database=loaded_db)

        # IR3: quantity per (l_shipmode, n_name) — recompute by hand.
        nations = {
            r["n_nationkey"]: r["n_name"] for r in loaded_db.scan("nation").rows
        }
        customers = {
            r["c_custkey"]: nations[r["c_nationkey"]]
            for r in loaded_db.scan("customer").rows
        }
        orders = {
            r["o_orderkey"]: customers[r["o_custkey"]]
            for r in loaded_db.scan("orders").rows
        }
        expected = {}
        for row in loaded_db.scan("lineitem").rows:
            key = (row["l_shipmode"], orders[row["l_orderkey"]])
            expected[key] = expected.get(key, 0) + row["l_quantity"]
        got = {
            (row["l_shipmode"], row["n_name"]): row["quantity"]
            for row in loaded_db.scan("fact_table_quantity").rows
        }
        assert got == expected

    def test_olap_rollup_over_complemented_hierarchy(self, quarry, loaded_db):
        """Roll revenue up from supplier to region via dim_Supplier."""
        quarry.add_requirement(build_revenue_requirement())
        quarry.deploy("native", source_database=loaded_db)
        answer = query_star(
            loaded_db,
            OlapQuery(
                fact_table="fact_table_revenue",
                group_by=["r_name"],
                aggregates=[("COUNT", "revenue", "cells")],
                joins=[("dim_Supplier", "s_name", "s_name")],
            ),
        )
        total_cells = sum(row["cells"] for row in answer.rows)
        assert total_cells == loaded_db.row_count("fact_table_revenue")


class TestMultiDomainIsolation:
    def test_two_quarries_do_not_interfere(self, loaded_db):
        tpch_quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        retail_quarry = Quarry(
            retail.ontology(), retail.schema(), retail.mappings()
        )
        tpch_quarry.add_requirement(build_revenue_requirement())
        retail_quarry.add_requirement(
            RequirementBuilder("R1", "sales per country")
            .measure("sales", "TicketLine_amount", "SUM")
            .per("Store_country")
            .build()
        )
        retail_db = Database()
        retail_db.load_source(retail.schema(), retail.generate(0.3, seed=2))
        tpch_quarry.deploy("native", source_database=loaded_db)
        retail_quarry.deploy("native", source_database=retail_db)
        assert loaded_db.has_table("fact_table_revenue")
        assert retail_db.has_table("fact_table_sales")
        assert not retail_db.has_table("fact_table_revenue")


class TestFullPersistenceCycle:
    def test_save_resume_change_deploy(self, tmp_path, loaded_db):
        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        path = tmp_path / "session.json"
        quarry.save_to(path)

        resumed = Quarry.load_from(path, tpch.schema(), tpch.mappings())
        resumed.remove_requirement("IR1")
        resumed.add_requirement(build_quantity_requirement())
        result = resumed.deploy("native", source_database=loaded_db)
        assert result.stats.loaded["fact_table_netprofit"] > 0
        assert result.stats.loaded["fact_table_quantity"] > 0
        assert "fact_table_revenue" not in result.stats.loaded
