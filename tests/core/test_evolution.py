"""Design-evolution operators and SCD policy threading, end to end.

Four operator families (`rename_concept`, `split_concept`,
`merge_concepts`, `retype_property`) evolve a live design session:
affected partial designs are re-interpreted and the unified design
re-folds from the earliest affected checkpoint — never from scratch.
The invariants pinned here:

* the incrementally evolved design is byte-identical to ``rebuild()``
  and to the artifact-bus replay (``replay_unified_design``),
* every operator publishes a typed ``design.evolved`` envelope,
* a failing operator rolls back *everything* (ontology, mappings,
  partials, bus) — the design is indistinguishable from before,
* SCD policies thread from the session constructor to the generated
  MD levels, ETL flows and DDL,
* a versioned dimension keeps its history across native redeploys.
"""

import pytest

from repro import Quarry
from repro.core.services import evolution as evolution_module
from repro.engine import Database
from repro.errors import EvolutionError, QuarryError
from repro.expressions.types import ScalarType
from repro.mdmodel.model import SCDPolicy
from repro.sources import tpch
from repro.xformats import xlm, xmd

from tests.core.conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)


def make_quarry(**kwargs) -> Quarry:
    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings(), **kwargs)
    quarry.add_requirement(build_revenue_requirement("IR1"))
    quarry.add_requirement(build_netprofit_requirement("IR2"))
    quarry.add_requirement(build_quantity_requirement("IR3"))
    return quarry


def fingerprint(quarry: Quarry):
    md_schema, etl_flow = quarry.unified_design()
    return xmd.dumps(md_schema), xlm.dumps(etl_flow)


def assert_invariants(quarry: Quarry):
    """Incremental == replay == rebuild, byte for byte."""
    incremental = fingerprint(quarry)
    md_schema, etl_flow = quarry.replay_unified_design()
    assert (xmd.dumps(md_schema), xlm.dumps(etl_flow)) == incremental
    quarry.rebuild()
    assert fingerprint(quarry) == incremental


class TestRename:
    def test_rename_updates_only_affected(self):
        quarry = make_quarry()
        report = quarry.rename_concept("Supplier", "Vendor")
        assert report.operator == "rename_concept"
        assert report.affected == ["IR1"]  # IR2/IR3 never mention Supplier
        assert report.refolded_from == 0
        md_schema, __ = quarry.unified_design()
        assert "Vendor" in md_schema.dimensions
        assert "Supplier" not in md_schema.dimensions
        assert_invariants(quarry)

    def test_rename_rekeys_scd_policy(self):
        quarry = make_quarry(scd_policies={"Supplier": "type2"})
        quarry.rename_concept("Supplier", "Vendor")
        md_schema, __ = quarry.unified_design()
        level = md_schema.dimension("Vendor").level("Vendor")
        assert level.scd_policy is SCDPolicy.TYPE2

    def test_rename_to_existing_concept_fails(self):
        quarry = make_quarry()
        before = fingerprint(quarry)
        with pytest.raises(EvolutionError):
            quarry.rename_concept("Supplier", "Part")
        assert fingerprint(quarry) == before

    def test_evolution_envelope_published(self):
        quarry = make_quarry()
        quarry.rename_concept("Supplier", "Vendor")
        envelopes = quarry.bus.events(evolution_module.TOPIC_EVOLUTION)
        assert [e.kind for e in envelopes] == [evolution_module.KIND_EVOLVED]
        payload = envelopes[0].payload
        assert payload["operator"] == "rename_concept"
        assert payload["affected"] == ["IR1"]


class TestSplitAndMerge:
    def test_split_carves_same_table_concept(self):
        quarry = make_quarry()
        report = quarry.split_concept("Part", "Brand", ["Part_p_brand"])
        assert sorted(report.affected) == ["IR1", "IR2"]
        md_schema, __ = quarry.unified_design()
        # IR2 groups by Part_p_brand, so Brand shows up as a dimension.
        assert "Brand" in md_schema.dimensions
        assert_invariants(quarry)

    def test_split_then_merge_restores_design(self):
        quarry = make_quarry()
        before = fingerprint(quarry)
        quarry.split_concept("Part", "Brand", ["Part_p_brand"])
        quarry.merge_concepts("Brand", "Part")
        assert fingerprint(quarry) == before
        assert_invariants(quarry)

    def test_split_design_deploys_natively(self):
        quarry = make_quarry()
        quarry.split_concept("Part", "Brand", ["Part_p_brand"])
        database = Database()
        database.load_source(tpch.schema(), tpch.generate(0.2, seed=21))
        result = quarry.deploy("native", source_database=database)
        assert result.database.has_table("dim_Brand")
        assert result.database.scan("dim_Brand").rows

    def test_merge_different_tables_fails_and_rolls_back(self):
        quarry = make_quarry()
        before = fingerprint(quarry)
        events_before = len(quarry.bus.events())
        with pytest.raises(EvolutionError, match="different tables"):
            quarry.merge_concepts("Region", "Supplier")
        assert fingerprint(quarry) == before
        # Rollback erased the marker: no half-published envelopes.
        assert len(quarry.bus.events()) == events_before
        assert_invariants(quarry)

    def test_split_unknown_property_fails(self):
        quarry = make_quarry()
        with pytest.raises(EvolutionError):
            quarry.split_concept("Part", "Brand", ["Supplier_s_name"])


class TestRetype:
    def test_retype_reinterprets_referencing_requirements(self):
        quarry = make_quarry()
        report = quarry.retype_property("Lineitem_l_quantity", "decimal")
        assert sorted(report.affected) == ["IR2", "IR3"]
        md_schema, __ = quarry.unified_design()
        measure = md_schema.fact("fact_table_quantity").measure("quantity")
        assert measure.type is ScalarType.DECIMAL
        assert_invariants(quarry)

    def test_retype_breaking_a_requirement_rolls_back(self):
        quarry = make_quarry()
        before = fingerprint(quarry)
        # IR1 slices on Nation_n_name = 'SPAIN'; a decimal n_name can
        # no longer be compared against a string literal.
        with pytest.raises(QuarryError):
            quarry.retype_property("Nation_n_name", "decimal")
        assert fingerprint(quarry) == before
        ontology = quarry.evolution._ontology
        prop = ontology.datatype_property("Nation_n_name")
        assert prop.range is ScalarType.STRING  # domain state restored
        assert_invariants(quarry)


class TestScdThreading:
    """SCD policies flow constructor -> MD -> ETL -> DDL."""

    def test_policy_lands_on_base_level(self):
        quarry = make_quarry(scd_policies={"Supplier": "type2"})
        md_schema, __ = quarry.unified_design()
        dimension = md_schema.dimension("Supplier")
        assert dimension.level("Supplier").scd_policy is SCDPolicy.TYPE2
        # Conformed non-base levels stay type0.
        assert dimension.level("Nation").scd_policy is SCDPolicy.TYPE0

    def test_etl_grows_scd_update_node(self):
        quarry = make_quarry(
            scd_policies={"Supplier": "type2"},
            scd_effective_date="2024-01-01",
        )
        __, etl_flow = quarry.unified_design()
        nodes = [n for n in etl_flow.nodes() if n.kind == "SCDUpdate"]
        assert [n.table for n in nodes] == ["dim_Supplier"]
        assert nodes[0].policy == "type2"
        assert nodes[0].business_keys == ("s_name",)
        assert nodes[0].effective_date == "2024-01-01"

    def test_type0_design_has_no_scd_nodes(self):
        quarry = make_quarry()
        __, etl_flow = quarry.unified_design()
        assert not [n for n in etl_flow.nodes() if n.kind == "SCDUpdate"]

    def test_ddl_has_window_columns_and_views(self):
        quarry = make_quarry(scd_policies={"Supplier": "type2"})
        result = quarry.deploy("postgres")
        ddl_text = result.artifacts["ddl"]
        assert "scd_version" in ddl_text
        assert "scd_valid_from" in ddl_text
        assert '"dim_Supplier_current"' in ddl_text
        assert "_pit" in ddl_text  # point-in-time join view

    def test_lint_stays_clean_with_policies(self):
        quarry = make_quarry(scd_policies={"Supplier": "type2"})
        report = quarry.lint()
        assert report.errors == []


class TestHistoryAcrossDeploys:
    def test_versioned_dimension_keeps_history(self):
        """A nation change between loads closes the old supplier row
        and opens version 2; the redeploy must not truncate history."""
        database = Database()
        rows = tpch.generate(0.2, seed=21)
        database.load_source(tpch.schema(), rows)

        first = make_quarry(
            scd_policies={"Supplier": "type2"},
            scd_effective_date="2024-01-01",
        )
        first.deploy("native", source_database=database)
        loaded = database.scan("dim_Supplier").rows
        assert all(row["scd_version"] == 1 for row in loaded)
        supplier = loaded[0]["s_name"]
        old_nation = loaded[0]["n_name"]

        # Move the first supplier to a different nation at the source.
        database.truncate("supplier")
        for index, row in enumerate(rows["supplier"]):
            row = dict(row)
            if index == 0:
                row["s_nationkey"] = (row["s_nationkey"] + 1) % 25
            database.insert("supplier", row)

        second = make_quarry(
            scd_policies={"Supplier": "type2"},
            scd_effective_date="2024-06-15",
        )
        second.deploy("native", source_database=database)
        history = [
            row
            for row in database.scan("dim_Supplier").rows
            if row["s_name"] == supplier
        ]
        closed = [row for row in history if row["scd_is_current"] is False]
        open_rows = [row for row in history if row["scd_is_current"] is True]
        assert len(closed) == 1 and len(open_rows) == 1
        assert closed[0]["n_name"] == old_nation
        assert str(closed[0]["scd_valid_to"]) == "2024-06-15"
        assert open_rows[0]["scd_version"] == 2
        assert open_rows[0]["n_name"] != old_nation

    def test_unversioned_dimensions_still_truncate(self):
        database = Database()
        database.load_source(tpch.schema(), tpch.generate(0.2, seed=21))
        quarry = make_quarry()
        quarry.deploy("native", source_database=database)
        first = [dict(r) for r in database.scan("dim_Supplier").rows]
        quarry.deploy("native", source_database=database)
        assert database.scan("dim_Supplier").rows == first  # no doubling
