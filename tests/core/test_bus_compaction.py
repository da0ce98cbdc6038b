"""The bus log is compacted after committed design changes.

A compacted log keeps, for each live requirement, its newest
requirement event, the ``partial.created`` that placed it in the fold
order and the newest ``partial.replaced`` after it, plus the newest
``design.committed``, each topic's newest event and the whole
``evolution`` and ``deployments`` audit topics.  These tests check that
this is enough: the log stops growing with the number of design
changes, replay and a reloaded session still reproduce the design, and
a rollback across a compaction is refused.
"""

import pytest

from repro import Quarry
from repro.core.services.deployment import TOPIC_DEPLOYMENTS
from repro.core.services.evolution import TOPIC_EVOLUTION
from repro.errors import StaleMarkerError
from repro.sources import tpch
from repro.xformats import xlm, xmd

from benchmarks._workloads import ROW_COUNTS, requirement_corpus

from .conftest import corpus_session

AUDIT = (TOPIC_EVOLUTION, TOPIC_DEPLOYMENTS)


def fingerprint(design):
    md_schema, etl_flow = design
    return xmd.dumps(md_schema), xlm.dumps(etl_flow)


def design_events(quarry):
    """The logged events outside the audit topics."""
    return [event for event in quarry.bus.events() if event.topic not in AUDIT]


def generation(quarry):
    return quarry.bus.marker()["generation"]


def rename(quarry, op):
    """Op ``op`` of the rename churn: Customer -> Client and back."""
    names = ("Customer", "Client") if op % 2 == 0 else ("Client", "Customer")
    return quarry.rename_concept(*names)


def compact_once(quarry):
    """Rename back and forth until the log has been compacted."""
    start = generation(quarry)
    op = 0
    while generation(quarry) == start:
        rename(quarry, op)
        op += 1
    return op


class TestRenameChurn:
    def test_log_stays_bounded_and_replays_the_design(self):
        quarry = corpus_session(6)
        sizes = []
        for op in range(60):
            assert rename(quarry, op).affected
            sizes.append(len(design_events(quarry)))
        # Compaction ran, and the design events do not grow with the
        # number of ops: the second half never exceeds the first.
        assert generation(quarry) >= 3
        assert max(sizes[30:]) <= max(sizes[:30])
        # The evolution audit trail stays whole.
        assert len(quarry.bus.events(TOPIC_EVOLUTION)) == 60
        assert quarry.repository.bus_event_count() == sizes[-1] + 60
        # After an even number of renames the domain is the base one.
        scratch = corpus_session(6)
        assert fingerprint(quarry.replay_unified_design()) == fingerprint(
            quarry.unified_design()
        )
        assert fingerprint(quarry.unified_design()) == fingerprint(
            scratch.unified_design()
        )

    def test_compaction_deletes_with_one_repository_call(self, monkeypatch):
        quarry = corpus_session(6)
        calls = []
        delete = type(quarry.repository).delete_bus_events

        def counting(repository, positions):
            calls.append(len(positions))
            return delete(repository, positions)

        monkeypatch.setattr(
            type(quarry.repository), "delete_bus_events", counting
        )
        ops = compact_once(quarry)
        assert len(calls) == 1 and calls[0] > 0
        assert ops > 1  # not on every commit


class TestAddRemoveCycles:
    def test_log_keeps_nothing_of_removed_requirements(self):
        corpus = requirement_corpus(8)
        quarry = corpus_session(1)
        sizes = []
        for cycle in range(14):
            requirement = corpus[1 + cycle % 7]
            quarry.add_requirement(requirement)
            quarry.deploy("sql")
            quarry.remove_requirement(requirement.id)
            sizes.append(len(design_events(quarry)))
        assert generation(quarry) > 0
        assert max(sizes[7:]) <= max(sizes[:7])
        events = quarry.bus.events()
        newest = {event.topic: event.position for event in events}
        for event in events:
            removed = event.payload.get("requirement") not in (None, "IR1")
            if event.topic not in AUDIT and removed:
                assert event.position == newest[event.topic], event
        assert len(quarry.bus.events(TOPIC_DEPLOYMENTS)) == 14
        assert fingerprint(quarry.replay_unified_design()) == fingerprint(
            quarry.unified_design()
        )
        assert fingerprint(quarry.unified_design()) == fingerprint(
            corpus_session(1).unified_design()
        )


class TestResume:
    def test_compacted_store_resumes_like_the_live_session(self, tmp_path):
        quarry = corpus_session(6)
        compact_once(quarry)
        path = tmp_path / "store.json"
        quarry.save_to(path)
        resumed = Quarry.load_from(
            path, tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
        )
        assert resumed.integration_counts == {"md": 0, "etl": 0}
        assert resumed.integration.order() == quarry.integration.order()
        assert fingerprint(resumed.unified_design()) == fingerprint(
            quarry.unified_design()
        )
        assert fingerprint(resumed.replay_unified_design()) == fingerprint(
            quarry.unified_design()
        )
        # The next changes log the same events, at the same sequences
        # and positions, on both, and compact the same way.
        for session in (quarry, resumed):
            session.remove_requirement("IR3")
            compact_once(session)

        def logged(session):
            return [
                (event.position, event.topic, event.sequence, event.kind)
                for event in session.bus.events()
            ]

        assert logged(resumed) == logged(quarry)
        assert fingerprint(resumed.unified_design()) == fingerprint(
            quarry.unified_design()
        )


class TestStaleMarker:
    def test_rollback_refuses_a_marker_from_before_a_compaction(self):
        quarry = corpus_session(6)
        marker = quarry.bus.marker()
        compact_once(quarry)
        logged = [event.position for event in quarry.bus.events()]
        with pytest.raises(StaleMarkerError):
            quarry.bus.rollback(marker)
        assert [event.position for event in quarry.bus.events()] == logged
        # A marker of the current generation still rolls back.
        current = quarry.bus.marker()
        quarry.bus.publish("probe", "k", {}, producer="test")
        assert quarry.bus.rollback(current) == 1
        assert [event.position for event in quarry.bus.events()] == logged
