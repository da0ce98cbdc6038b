"""End-to-end tests of the Quarry lifecycle (Figure 1 / the demo scenarios)."""

import pytest

from repro import Quarry, QuarryError, RequirementBuilder
from repro.core.services.evolution import TOPIC_EVOLUTION
from repro.core.services.integration import TOPIC_UNIFIED, IntegrationService
from repro.engine import Database, OlapQuery, query_star
from repro.sources import tpch
from repro.xformats import xlm, xmd

from .conftest import (
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
    database.load_source(tpch.schema(), tpch.generate(0.2, seed=3))
    return database


def designed(quarry):
    md, etl = quarry.unified_design()
    return xmd.dumps(md), xlm.dumps(etl)


def replayed(quarry):
    md, etl = quarry.replay_unified_design()
    return xmd.dumps(md), xlm.dumps(etl)


def observed(quarry):
    """What a refused design change must leave exactly as it was."""
    repository = quarry.repository
    return (
        [requirement.id for requirement in quarry.requirements()],
        designed(quarry),
        [
            (event.position, event.topic, event.kind)
            for event in quarry.bus.events()
        ],
        set(repository.requirement_ids()),
        set(repository.partial_design_ids()),
        [
            repository.checkpoint_trees(position)
            for position in range(repository.checkpoint_count())
        ],
        # Every document, the ``current`` design and the session state
        # included, in collection order.
        repository.store.snapshot()["collections"],
    )


def refuse_once(quarry, topic, when=lambda payload: True):
    """Subscribe a consumer of ``topic`` that refuses one envelope."""
    armed = [True]

    def refuse(envelope):
        if armed[0] and when(envelope.payload):
            armed[0] = False
            raise QuarryError(f"{topic} refused")

    quarry.bus.subscribe(topic, refuse)


def add_refused_at_commit(quarry, monkeypatch):
    refuse_once(quarry, TOPIC_UNIFIED)

    def add():
        quarry.add_requirement(build_quantity_requirement())

    return add, "unified refused", add


def add_refused_as_unsatisfiable(quarry, monkeypatch):
    check = IntegrationService.satisfiability_problems
    armed = [True]

    def problems(integration):
        if armed[0] and "IR3" in integration.order():
            armed[0] = False
            return ["IR3: refused"]
        return check(integration)

    monkeypatch.setattr(
        IntegrationService, "satisfiability_problems", problems
    )

    def add():
        quarry.add_requirement(build_quantity_requirement())

    return add, "IR3: refused", add


def remove_refused_at_commit(quarry, monkeypatch):
    refuse_once(quarry, TOPIC_UNIFIED)

    def remove():
        quarry.remove_requirement("IR1")

    return remove, "unified refused", remove


def change_failing_in_interpretation(quarry, monkeypatch):
    replacement = (
        RequirementBuilder("IR1", "broken")
        .measure("revenue", "Lineitem_l_nosuch", "SUM")
        .per("Part_p_name")
        .build()
    )
    return (
        lambda: quarry.change_requirement(replacement),
        "unknown datatype property 'Lineitem_l_nosuch'",
        lambda: quarry.change_requirement(build_revenue_requirement("IR2")),
    )


def change_refused_at_commit(quarry, monkeypatch):
    # The replacement commits, then a downstream consumer of the
    # unified topic refuses the commit.
    refuse_once(
        quarry,
        TOPIC_UNIFIED,
        lambda payload: payload["requirements"] == ["IR2", "IR1"],
    )

    def change():
        quarry.change_requirement(build_revenue_requirement())

    return change, "unified refused", change


def rename_refused_when_evolved(quarry, monkeypatch):
    refuse_once(quarry, TOPIC_EVOLUTION)

    def rename():
        quarry.rename_concept("Supplier", "Vendor")

    return rename, "evolution refused", rename


def retype_failing_in_reinterpretation(quarry, monkeypatch):
    # IR1 slices on Nation_n_name = 'SPAIN'; a decimal n_name can no
    # longer be compared against a string literal.
    return (
        lambda: quarry.retype_property("Nation_n_name", "decimal"),
        "cannot compare decimal with string",
        lambda: quarry.retype_property("Lineitem_l_quantity", "decimal"),
    )


#: Each refused design change: its set-up returns the operation, the
#: refusal it raises and a valid operation to run after it.
REFUSALS = {
    "add-commit": add_refused_at_commit,
    "add-satisfiability": add_refused_as_unsatisfiable,
    "remove-commit": remove_refused_at_commit,
    "interpretation": change_failing_in_interpretation,
    "commit": change_refused_at_commit,
    "rename-evolved": rename_refused_when_evolved,
    "retype-reinterpretation": retype_failing_in_reinterpretation,
}


def check_refusal(quarry, monkeypatch, case):
    """The refused change leaves everything observed as it was, and
    the next valid one succeeds; replay reproduces the design."""
    before = observed(quarry)
    operation, refusal, next_operation = REFUSALS[case](quarry, monkeypatch)
    with pytest.raises(QuarryError, match=refusal):
        operation()
    assert observed(quarry) == before
    assert replayed(quarry) == designed(quarry)
    next_operation()
    assert replayed(quarry) == designed(quarry)


class TestScenarioDWDesign:
    """Demo scenario 1: from requirement to initial design."""

    def test_add_requirement_produces_unified_design(self, quarry):
        report = quarry.add_requirement(build_revenue_requirement())
        assert report.action == "added"
        md, etl = quarry.unified_design()
        assert md.has_fact("fact_table_revenue")
        assert set(md.dimensions) == {"Part", "Supplier"}
        assert etl.validate() == []

    def test_elicitor_assists_requirement_definition(self, quarry):
        elicitor = quarry.elicitor()
        suggestions = elicitor.suggest_dimensions("Lineitem")
        assert {s.element_id for s in suggestions} >= {"Part", "Supplier"}
        resolution = quarry.vocabulary().resolve("nation name")
        assert resolution.element_id == "Nation_n_name"

    def test_artifacts_stored_in_repository(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        repo = quarry.repository
        assert repo.requirement_ids() == ["IR1"]
        assert repo.partial_design_ids() == ["IR1"]
        md, etl, requirements = repo.load_unified_design("current")
        assert requirements == ["IR1"]
        assert md.has_fact("fact_table_revenue")

    def test_duplicate_requirement_id_rejected(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        with pytest.raises(QuarryError):
            quarry.add_requirement(build_revenue_requirement())

    def test_status_snapshot(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        status = quarry.status()
        assert status.requirements == ["IR1"]
        assert status.facts == ["fact_table_revenue"]
        assert status.complexity > 0
        assert status.etl_operations > 10
        assert status.estimated_etl_cost > 0


class TestScenarioAccommodatingChanges:
    """Demo scenario 2: add / change / remove requirements."""

    def test_incremental_addition_keeps_all_satisfied(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        quarry.add_requirement(build_quantity_requirement())
        assert quarry.satisfiability_problems() == []
        md, __ = quarry.unified_design()
        assert len(md.facts) == 3
        # Part is conformed between IR1 and IR2.
        assert len([d for d in md.dimensions if d.startswith("Part")]) == 1

    def test_change_requirement(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        changed = (
            RequirementBuilder("IR1", "revenue per brand now")
            .measure(
                "revenue",
                "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)",
                "SUM",
            )
            .per("Part_p_brand")
            .build()
        )
        report = quarry.change_requirement(changed)
        assert report.action == "changed"
        md, __ = quarry.unified_design()
        fact = md.fact("fact_table_revenue")
        assert fact.grain == ["p_brand"]
        assert quarry.satisfiability_problems() == []

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_failed_change_leaves_the_design_as_it_was(
        self, quarry, monkeypatch, case
    ):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        check_refusal(quarry, monkeypatch, case)

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_failed_change_right_after_a_compaction_changes_nothing(
        self, quarry, monkeypatch, case
    ):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        # Rename back and forth until a commit compacts the bus log.
        generation = quarry.bus.marker()["generation"]
        names = ("Part", "Item")
        while quarry.bus.marker()["generation"] == generation:
            quarry.rename_concept(*names)
            names = names[::-1]
        check_refusal(quarry, monkeypatch, case)

    def test_remove_requirement_rebuilds(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        report = quarry.remove_requirement("IR1")
        assert report.action == "removed"
        md, etl = quarry.unified_design()
        assert not md.has_fact("fact_table_revenue")
        assert md.has_fact("fact_table_netprofit")
        assert etl.requirements == {"IR2"}
        assert quarry.repository.requirement_ids() == ["IR2"]

    def test_remove_unknown_rejected(self, quarry):
        with pytest.raises(QuarryError):
            quarry.remove_requirement("ghost")
        with pytest.raises(QuarryError):
            quarry.change_requirement(build_revenue_requirement("ghost"))

    def test_integration_reduces_cost_versus_separate(self, quarry):
        quarry.add_requirement(build_revenue_requirement())
        report = quarry.add_requirement(build_netprofit_requirement())
        assert report.etl_consolidation.cost_unified < (
            report.etl_consolidation.cost_separate
        )
        assert report.md_integration.saving > 0


class TestScenarioDeployment:
    """Demo scenario 3: generate executables and run them."""

    def test_deploy_all_platforms(self, quarry, loaded_db):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        ddl_result = quarry.deploy("postgres")
        assert "CREATE TABLE fact_table_revenue" in ddl_result.artifacts["ddl"]
        ktr_result = quarry.deploy("pdi")
        assert "<transformation>" in ktr_result.artifacts["ktr"]
        native = quarry.deploy("native", source_database=loaded_db)
        assert native.stats.loaded["fact_table_revenue"] > 0
        assert native.stats.loaded["fact_table_netprofit"] > 0
        deployments = quarry.repository.deployments_of("current")
        assert {d["platform"] for d in deployments} == {
            "postgres", "pdi", "native",
        }

    def test_deployed_star_answers_both_requirements(self, quarry, loaded_db):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        quarry.deploy("native", source_database=loaded_db)
        revenue = query_star(
            loaded_db,
            OlapQuery(
                fact_table="fact_table_revenue",
                group_by=["p_name"],
                aggregates=[("AVERAGE", "revenue", "avg_rev")],
            ),
        )
        netprofit = query_star(
            loaded_db,
            OlapQuery(
                fact_table="fact_table_netprofit",
                group_by=["p_brand"],
                aggregates=[("SUM", "netprofit", "total")],
            ),
        )
        assert len(netprofit) > 0
        assert all(row["total"] is not None for row in netprofit.rows)
        # dim_Part serves both facts (conformed dimension).
        part_columns = loaded_db.scan("dim_Part").attribute_names()
        assert {"p_name", "p_brand"} <= set(part_columns)


class TestPersistence:
    def test_save_and_resume_session(self, quarry, tmp_path):
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        path = tmp_path / "quarry.json"
        quarry.save_to(path)
        resumed = Quarry.load_from(path, tpch.schema(), tpch.mappings())
        md, etl = resumed.unified_design()
        original_md, original_etl = quarry.unified_design()
        assert set(md.facts) == set(original_md.facts)
        assert set(md.dimensions) == set(original_md.dimensions)
        assert set(etl.node_names()) == set(original_etl.node_names())
        assert [r.id for r in resumed.requirements()] == ["IR1", "IR2"]

    def test_load_from_empty_repository_rejected(self, tmp_path):
        from repro.repository import MetadataRepository

        path = tmp_path / "empty.json"
        MetadataRepository().save_to(path)
        with pytest.raises(QuarryError):
            Quarry.load_from(path, tpch.schema(), tpch.mappings())
