"""save_to/load_from round-trips the *full* design state.

A reloaded store must resume incrementally: the fold checkpoints, the
requirement insertion order and the bus event log all survive the trip,
so restoring costs zero integration calls and later changes stay
sub-linear.  Stores written before session state existed still load via
the legacy re-interpretation path.
"""

import pytest

from repro import Quarry
from repro.ontology import io as ontology_io
from repro.ontology.model import Concept
from repro.sources import tpch
from repro.xformats import xlm, xmd

from .conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)


@pytest.fixture
def saved_store(tmp_path):
    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    # IR2 before IR1: insertion order differs from sorted order, so a
    # loader that trusted the (sorted) unified-design requirement list
    # would fold in the wrong order.
    quarry.add_requirement(build_netprofit_requirement())
    quarry.add_requirement(build_revenue_requirement())
    path = tmp_path / "store.json"
    quarry.save_to(path)
    return quarry, path


def reload(path, **kwargs):
    return Quarry.load_from(path, tpch.schema(), tpch.mappings(), **kwargs)


class TestRoundTrip:
    def test_reload_restores_identical_design(self, saved_store):
        quarry, path = saved_store
        resumed = reload(path)
        md, etl = resumed.unified_design()
        original_md, original_etl = quarry.unified_design()
        assert xmd.dumps(md) == xmd.dumps(original_md)
        assert xlm.dumps(etl) == xlm.dumps(original_etl)
        assert [r.id for r in resumed.requirements()] == ["IR2", "IR1"]

    def test_reload_is_incremental_not_reinterpreted(self, saved_store):
        __, path = saved_store
        resumed = reload(path)
        # Restoring from checkpoints costs zero integration calls ...
        assert resumed.integration_counts == {"md": 0, "etl": 0}
        # ... and the session continues incrementally from there.
        resumed.add_requirement(build_quantity_requirement())
        assert resumed.integration_counts == {"md": 1, "etl": 1}
        resumed.remove_requirement("IR3")  # newest: checkpoint restore
        assert resumed.integration_counts == {"md": 1, "etl": 1}

    def test_reload_restores_checkpoints_and_bus_log(self, saved_store):
        quarry, path = saved_store
        resumed = reload(path)
        assert resumed.repository.checkpoint_count() == 2
        assert (
            resumed.repository.bus_event_count()
            == quarry.repository.bus_event_count()
        )
        # The restored log still replays to the restored design.
        replayed_md, __ = resumed.replay_unified_design()
        assert xmd.dumps(replayed_md) == xmd.dumps(resumed.unified_design()[0])

    def test_removal_after_reload_refolds_correctly(self, saved_store):
        quarry, path = saved_store
        quarry.remove_requirement("IR2")
        resumed = reload(path)
        resumed.remove_requirement("IR2")
        assert xmd.dumps(resumed.unified_design()[0]) == xmd.dumps(
            quarry.unified_design()[0]
        )
        # Only the suffix after IR2 (one requirement) was re-folded.
        assert resumed.integration_counts == {"md": 1, "etl": 1}

    def test_named_session_roundtrip(self, tmp_path):
        quarry = Quarry(
            tpch.ontology(), tpch.schema(), tpch.mappings(), session="s1"
        )
        quarry.add_requirement(build_revenue_requirement())
        path = tmp_path / "store.json"
        quarry.save_to(path)
        resumed = reload(path, session="s1")
        assert resumed.integration_counts == {"md": 0, "etl": 0}
        assert [r.id for r in resumed.requirements()] == ["IR1"]
        assert resumed.repository.namespace == "s1"

    def test_whitespace_only_description_survives_reload(self, tmp_path):
        # Whitespace-only text is content on a leaf: the stored xRQ
        # tree keeps it, so the resumed requirement reads it back.
        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        requirement = build_revenue_requirement()
        requirement.description = " "
        quarry.add_requirement(requirement)
        path = tmp_path / "store.json"
        quarry.save_to(path)
        resumed = reload(path)
        assert [r.description for r in resumed.requirements()] == [" "]


class TestLegacyStores:
    def test_store_without_session_state_falls_back(self, tmp_path):
        # A legacy store only records the unified design's (sorted)
        # requirement list, so it can only have been written by code
        # whose insertion order is recoverable from it.
        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        path = tmp_path / "store.json"
        quarry.save_to(path)

        # Simulate a store written before checkpoints/session state
        # existed: drop the new collections, keep the classic five.
        from repro.repository import MetadataRepository

        repository = MetadataRepository.load_from(path)
        for name in ("session_state", "checkpoints", "bus_events"):
            repository.store.drop_collection(name)
        legacy_path = tmp_path / "legacy.json"
        repository.save_to(legacy_path)

        resumed = reload(legacy_path)
        # Legacy path re-interprets, so integration work was done ...
        assert resumed.integration_counts == {"md": 2, "etl": 2}
        # ... but the design converges to the same artefacts.
        assert xmd.dumps(resumed.unified_design()[0]) == xmd.dumps(
            quarry.unified_design()[0]
        )
        assert [r.id for r in resumed.requirements()] == ["IR1", "IR2"]


def demo_session(ontology=None, mappings=None):
    quarry = Quarry(
        ontology or tpch.ontology(), tpch.schema(), mappings or tpch.mappings()
    )
    for requirement in (
        build_revenue_requirement(),
        build_netprofit_requirement(),
        build_quantity_requirement(),
    ):
        quarry.add_requirement(requirement)
    return quarry


def design_text(quarry):
    md, etl = quarry.unified_design()
    return xmd.dumps(md), xlm.dumps(etl), quarry.integration.order()


class TestEvolvedDomain:
    def test_reloaded_session_evolves_the_stored_domain(self, tmp_path):
        quarry = demo_session()
        quarry.rename_concept("Supplier", "Vendor")
        assert quarry.repository.load_ontology("tpch").has_concept("Vendor")
        renamed = tpch.mappings().rename_concept("Supplier", "Vendor")
        stored = quarry.repository.load_mappings("tpch")
        assert stored.snapshot() == renamed.snapshot()
        path = tmp_path / "store.json"
        quarry.save_to(path)
        # The caller's base mappings serve only stores that hold none.
        resumed = reload(path)
        assert resumed.integration_counts == {"md": 0, "etl": 0}
        resumed.rename_concept("Vendor", "Seller")
        ontology, mappings = tpch.ontology(), tpch.mappings()
        ontology.rename_concept("Supplier", "Seller")
        mappings.rename_concept("Supplier", "Seller")
        assert design_text(resumed) == design_text(
            demo_session(ontology, mappings)
        )

    @pytest.mark.parametrize("operator", ["rename", "merge"])
    def test_hierarchical_domain_survives_the_trip(self, tmp_path, operator):
        # Unmapped concepts around TPC-H's flat hierarchy: a child of
        # Supplier, and a parent Group with a child declared before
        # the concept it is merged into.
        ontology = tpch.ontology()
        for concept in (
            Concept(id="PreferredSupplier", parent="Supplier"),
            Concept(id="Group"),
            Concept(id="Subgroup", parent="Group"),
            Concept(id="Segment"),
        ):
            ontology.add_concept(concept)
        quarry = demo_session(ontology)
        if operator == "rename":
            quarry.rename_concept("Supplier", "Vendor")
            child, parent = "PreferredSupplier", "Vendor"
        else:
            quarry.merge_concepts("Group", "Segment")
            child, parent = "Subgroup", "Segment"
        path = tmp_path / "store.json"
        quarry.save_to(path)
        resumed = reload(path)
        assert resumed.elicitor().ontology.concept(child).parent == parent
        assert ontology_io.dumps(resumed.elicitor().ontology) == (
            ontology_io.dumps(ontology)
        )
        assert resumed.integration_counts == {"md": 0, "etl": 0}
        assert design_text(resumed) == design_text(quarry)

    def test_operator_stores_mappings_only_when_it_changes_them(self):
        quarry = demo_session()
        quarry.retype_property("Customer_c_acctbal", "integer")
        stored = quarry.repository.load_ontology("tpch")
        assert stored.datatype_property("Customer_c_acctbal").range.value == (
            "integer"
        )
        assert quarry.repository.load_mappings("tpch") is None
        quarry.rename_concept("Supplier", "Vendor")
        assert quarry.repository.load_mappings("tpch").has_concept_mapping(
            "Vendor"
        )

    def test_unevolved_store_holds_no_mappings(self, saved_store):
        quarry, __ = saved_store
        assert quarry.repository.load_mappings("tpch") is None
        assert "mappings" not in quarry.repository.store
