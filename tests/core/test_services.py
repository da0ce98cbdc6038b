"""The service decomposition: bus, envelopes, sessions, the Quarry API."""

from pathlib import Path

import pytest

import repro.core
from repro import ChangeReport, Quarry, QuarryError
from repro.core.services import ArtifactBus, ArtifactEnvelope
from repro.core.services.deployment import TOPIC_DEPLOYMENTS
from repro.core.services.elicitation import TOPIC_REQUIREMENTS
from repro.core.services.integration import TOPIC_UNIFIED
from repro.core.services.interpretation import TOPIC_PARTIALS
from repro.core.services.session import DesignSession
from repro.repository import MetadataRepository
from repro.sources import tpch
from repro.xformats import xlm, xmd

from .conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "design"


@pytest.fixture
def domain():
    return tpch.ontology(), tpch.schema(), tpch.mappings()


@pytest.fixture
def session(domain):
    return DesignSession(*domain)


class TestFacadeCompatibility:
    """The old Quarry API must behave byte-for-byte as before."""

    def test_unified_artifacts_match_pinned_examples(self, domain):
        quarry = Quarry(*domain)
        quarry.add_requirement(build_revenue_requirement())
        quarry.add_requirement(build_netprofit_requirement())
        md, etl = quarry.unified_design()
        assert xmd.dumps(md) == (EXAMPLES / "unified.xmd").read_text()
        assert xlm.dumps(etl) == (EXAMPLES / "unified.xlm").read_text()

    def test_quarry_is_the_design_session(self):
        # perfbench's tracer patches DesignSession methods and its
        # workloads build Quarry: the spans hold only if both are one.
        assert repro.Quarry is repro.core.Quarry is DesignSession

    def test_error_messages_preserved(self, domain):
        quarry = Quarry(*domain)
        quarry.add_requirement(build_revenue_requirement())
        with pytest.raises(QuarryError, match="already exists"):
            quarry.add_requirement(build_revenue_requirement())
        with pytest.raises(QuarryError, match="unknown requirement"):
            quarry.remove_requirement("IR9")
        with pytest.raises(QuarryError, match="unknown requirement"):
            quarry.partial_design("IR9")

    def test_facade_fronts_default_session(self, domain):
        quarry = Quarry(*domain)
        assert quarry.session == "default"
        # Default session uses the plain (unprefixed) collection names.
        assert quarry.repository.namespace == ""


class TestArtifactBus:
    def test_publish_logs_then_delivers_in_order(self):
        bus = ArtifactBus(MetadataRepository(), "default")
        seen = []
        bus.subscribe("topic", lambda e: seen.append(("first", e.sequence)))
        bus.subscribe("topic", lambda e: seen.append(("second", e.sequence)))
        bus.publish("topic", "k", {"n": 1}, producer="t")
        bus.publish("topic", "k", {"n": 2}, producer="t")
        assert seen == [
            ("first", 1), ("second", 1), ("first", 2), ("second", 2),
        ]

    def test_sequences_are_per_topic_positions_bus_wide(self):
        bus = ArtifactBus(MetadataRepository(), "default")
        a1 = bus.publish("a", "k", {}, producer="t")
        b1 = bus.publish("b", "k", {}, producer="t")
        a2 = bus.publish("a", "k", {}, producer="t")
        assert (a1.sequence, b1.sequence, a2.sequence) == (1, 1, 2)
        assert (a1.position, b1.position, a2.position) == (0, 1, 2)
        assert [e.position for e in bus.events("a")] == [0, 2]

    def test_log_is_persisted_and_resumed(self):
        repository = MetadataRepository()
        bus = ArtifactBus(repository, "default")
        bus.publish("topic", "k", {"n": 1}, producer="t")
        resumed = ArtifactBus(repository, "default")
        envelope = resumed.publish("topic", "k", {"n": 2}, producer="t")
        assert envelope.sequence == 2  # continues the persisted sequence
        assert [e.payload["n"] for e in resumed.events("topic")] == [1, 2]

    def test_rollback_drops_events_after_marker(self):
        bus = ArtifactBus(MetadataRepository(), "default")
        bus.publish("topic", "k", {"n": 1}, producer="t")
        marker = bus.marker()
        bus.publish("topic", "k", {"n": 2}, producer="t")
        bus.publish("other", "k", {"n": 3}, producer="t")
        assert bus.rollback(marker) == 2
        assert [e.payload["n"] for e in bus.events()] == [1]
        # Sequences rewind too: the next publish reuses the dropped slot.
        assert bus.publish("topic", "k", {}, producer="t").sequence == 2

    def test_logged_events_carry_payloads_not_attachments(self):
        bus = ArtifactBus(MetadataRepository(), "default")
        bus.publish("topic", "k", {"n": 1}, producer="t", attachment=object())
        bus.publish("other", "k", {"n": 0}, producer="t")
        bus.publish("topic", "k", {"n": 2}, producer="t")
        logged = bus.events("topic")
        assert [e.payload["n"] for e in logged] == [1, 2]
        assert all(e.attachment is None for e in logged)

    def test_envelope_roundtrip_excludes_attachment(self):
        envelope = ArtifactEnvelope(
            topic="t", kind="k", session="s", sequence=1, position=0,
            producer="p", payload={"x": 1}, attachment=object(),
        )
        document = envelope.to_dict()
        assert "attachment" not in document
        restored = ArtifactEnvelope.from_dict(document)
        assert restored.kind == "k" and restored.payload == {"x": 1}
        assert restored.attachment is None


class TestDesignSession:
    def test_pipeline_publishes_on_every_topic(self, session):
        session.add_requirement(build_revenue_requirement())
        by_topic = {
            topic: len(session.bus.events(topic))
            for topic in (TOPIC_REQUIREMENTS, TOPIC_PARTIALS, TOPIC_UNIFIED)
        }
        assert by_topic == {
            TOPIC_REQUIREMENTS: 1, TOPIC_PARTIALS: 1, TOPIC_UNIFIED: 1,
        }

    def test_two_sessions_share_a_store_without_leakage(self, domain):
        repository = MetadataRepository()
        left = DesignSession(*domain, repository=repository, session="left")
        right = DesignSession(*domain, repository=repository, session="right")
        left.add_requirement(build_revenue_requirement())
        right.add_requirement(build_netprofit_requirement())
        # Same requirement id in both sessions: namespaces keep them apart.
        right.add_requirement(build_quantity_requirement("IR1"))
        assert [r.id for r in left.requirements()] == ["IR1"]
        assert [r.id for r in right.requirements()] == ["IR2", "IR1"]
        left_md, __ = left.unified_design()
        right_md, __ = right.unified_design()
        assert set(left_md.facts) == {"fact_table_revenue"}
        assert "fact_table_revenue" not in right_md.facts
        assert repository.session_names() == ["left", "right"]

    def test_session_repositories_are_namespaced_views(self, domain):
        repository = MetadataRepository()
        session = DesignSession(*domain, repository=repository, session="s1")
        session.add_requirement(build_revenue_requirement())
        assert session.repository.namespace == "s1"
        assert session.repository.requirement_ids() == ["IR1"]
        assert repository.requirement_ids() == []  # default view sees nothing
        assert "session::s1::requirements" in repository.store.collection_names()

    def test_replay_from_event_log_rebuilds_unified_design(self, session):
        session.add_requirement(build_revenue_requirement())
        session.add_requirement(build_netprofit_requirement())
        session.change_requirement(build_netprofit_requirement())
        session.remove_requirement("IR1")
        replayed_md, replayed_etl = session.replay_unified_design()
        md, etl = session.unified_design()
        assert xmd.dumps(replayed_md) == xmd.dumps(md)
        assert xlm.dumps(replayed_etl) == xlm.dumps(etl)

    def test_failed_operation_leaves_no_bus_events(self, session, domain):
        session.add_requirement(build_revenue_requirement())
        logged = session.repository.bus_event_count()
        ontology, __, __ = domain
        from repro.core.requirements import RequirementBuilder

        bogus = (
            RequirementBuilder("IRX", "refers to a property nobody has")
            .measure("m", "Lineitem_l_quantity", "SUM")
            .per("Ghost_property")
            .build()
        )
        with pytest.raises(QuarryError):
            session.add_requirement(bogus)
        assert session.repository.bus_event_count() == logged
        assert [r.id for r in session.requirements()] == ["IR1"]

    def test_deploy_publishes_deployment_envelope(self, session):
        session.add_requirement(build_revenue_requirement())
        session.deploy("postgres")
        events = session.bus.events(TOPIC_DEPLOYMENTS)
        assert len(events) == 1
        assert events[0].payload["platform"] == "postgres"
        assert "ddl" in events[0].payload["artifacts"]


class TestReports:
    def test_change_report_equality_and_repr(self, domain):
        first = Quarry(*domain)
        second = Quarry(*domain)
        left = first.add_requirement(build_revenue_requirement())
        right = second.add_requirement(build_revenue_requirement())
        assert left == right  # structural, across distinct instances
        assert left != ChangeReport(requirement_id="IR1", action="removed")
        assert repr(left) == "ChangeReport(added 'IR1', partial)"

    def test_change_report_to_dict_is_json_serialisable(self, domain):
        import json

        quarry = Quarry(*domain)
        report = quarry.add_requirement(build_revenue_requirement())
        document = json.loads(json.dumps(report.to_dict()))
        assert document["requirement_id"] == "IR1"
        assert document["action"] == "added"
        assert document["partial"]["facts"] == ["fact_table_revenue"]
        assert document["md_integration"]["decisions"]
        assert "cost_unified" in document["etl_consolidation"]

    def test_design_status_equality_and_repr(self, domain):
        first = Quarry(*domain)
        second = Quarry(*domain)
        first.add_requirement(build_revenue_requirement())
        second.add_requirement(build_revenue_requirement())
        assert first.status() == second.status()
        second.add_requirement(build_netprofit_requirement())
        assert first.status() != second.status()
        assert "fact_table_revenue" in repr(first.status())
        assert first.status().to_dict()["requirements"] == ["IR1"]
