"""Regression: the artifact bus under concurrent publishers.

Before the bus lock, ``publish`` read a topic sequence, appended the
event, then wrote the sequence back — two handler threads publishing on
one session's bus could draw the same sequence and collide on the
persisted position id.  ``marker`` read position and sequences in two
steps, so a concurrent publish produced a marker describing a log state
that never existed.  These tests hammer one bus from a pool and check
the invariants the fix guarantees; the foreign-marker test pins the new
rollback rejection.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Quarry
from repro.core.services.bus import ArtifactBus
from repro.core.services.interpretation import (
    KIND_CREATED,
    KIND_REMOVED,
    KIND_REPLACED,
    TOPIC_PARTIALS,
)
from repro.errors import QuarryError
from repro.repository.metadata import MetadataRepository
from repro.sources import tpch

from .conftest import (
    build_netprofit_requirement,
    build_quantity_requirement,
    build_revenue_requirement,
)

THREADS = 8
PER_THREAD = 25


def test_concurrent_publishes_never_collide():
    bus = ArtifactBus(MetadataRepository(), "default")
    barrier = threading.Barrier(THREADS)

    def publisher(worker: int):
        barrier.wait(timeout=10)
        return [
            bus.publish("topic", "k", {"worker": worker}, producer="t")
            for _ in range(PER_THREAD)
        ]

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        batches = list(pool.map(publisher, range(THREADS)))

    envelopes = [envelope for batch in batches for envelope in batch]
    total = THREADS * PER_THREAD
    # Unique, gapless sequences and positions: no publish was lost, no
    # two publishes drew the same slot.
    assert sorted(e.sequence for e in envelopes) == list(
        range(1, total + 1)
    )
    assert sorted(e.position for e in envelopes) == list(range(total))
    logged = bus.events("topic")
    assert len(logged) == total
    assert [e.position for e in logged] == list(range(total))


def test_marker_is_atomic_under_concurrent_publishing():
    bus = ArtifactBus(MetadataRepository(), "default")
    stop = threading.Event()
    errors = []

    def publisher(worker: int):
        topic = f"topic{worker % 3}"
        while not stop.is_set():
            bus.publish(topic, "k", {}, producer="t")

    def observer():
        # Invariant of every log state that actually existed: the next
        # free position equals the number of events logged so far, i.e.
        # the sum of all per-topic sequences.  A marker captured
        # non-atomically (position, then sequences) breaks it as soon
        # as a publish lands in between.
        for _ in range(200):
            marker = bus.marker()
            if marker["position"] + 1 != sum(marker["sequences"].values()):
                errors.append(marker)

    publishers = [
        threading.Thread(target=publisher, args=(n,), daemon=True)
        for n in range(3)
    ]
    for thread in publishers:
        thread.start()
    try:
        observer()
    finally:
        stop.set()
        for thread in publishers:
            thread.join(timeout=10)
    assert not errors, f"inconsistent markers: {errors[:3]}"


def test_rollback_of_marker_under_load_keeps_log_consistent():
    bus = ArtifactBus(MetadataRepository(), "default")
    for n in range(5):
        bus.publish("kept", "k", {"n": n}, producer="t")
    marker = bus.marker()

    barrier = threading.Barrier(4)

    def publisher():
        barrier.wait(timeout=10)
        for _ in range(PER_THREAD):
            bus.publish("doomed", "k", {}, producer="t")

    with ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(4):
            pool.submit(publisher)

    dropped = bus.rollback(marker)
    assert dropped == 4 * PER_THREAD
    assert [e.payload["n"] for e in bus.events("kept")] == list(range(5))
    assert bus.events("doomed") == []
    # Sequences resumed from the marker, not from the dropped events.
    assert bus.publish("kept", "k", {"n": 5}, producer="t").sequence == 6


def test_rollback_rejects_marker_from_another_bus():
    repository = MetadataRepository()
    bus = ArtifactBus(repository, "default")
    other = ArtifactBus(MetadataRepository(), "default")
    bus.publish("topic", "k", {}, producer="t")
    foreign = other.marker()
    with pytest.raises(QuarryError, match="marker from bus"):
        bus.rollback(foreign)
    # The log is untouched by the rejected rollback.
    assert len(bus.events("topic")) == 1


def test_rollback_rejects_marker_from_reloaded_bus():
    repository = MetadataRepository()
    first = ArtifactBus(repository, "default")
    first.publish("topic", "k", {}, producer="t")
    stale = first.marker()
    reloaded = ArtifactBus(repository, "default")
    with pytest.raises(QuarryError, match="marker from bus"):
        reloaded.rollback(stale)


def replayed_order(events, problems):
    """The fold order a replay of ``events`` produces; a replacement of
    a requirement that has no creation before it is a problem."""
    order = {}
    for event in events:
        if event.topic != TOPIC_PARTIALS:
            continue
        requirement_id = event.payload["requirement"]
        if event.kind == KIND_CREATED:
            order.pop(requirement_id, None)
            order[requirement_id] = event
        elif event.kind == KIND_REPLACED and requirement_id not in order:
            problems.append(f"{event!r} replaces nothing")
        elif event.kind == KIND_REMOVED:
            order.pop(requirement_id, None)
    return tuple(order)


def test_readers_see_a_log_that_replays_during_compactions():
    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    quarry.add_requirement(build_revenue_requirement())
    quarry.add_requirement(build_netprofit_requirement())
    committed = {tuple(quarry.integration.order())}
    deleted = []  # the positions each compaction deleted
    compact = quarry.bus.compact

    def recording(positions):
        kept = compact(positions)
        deleted.append(frozenset(positions) - frozenset(kept))
        return kept

    quarry.bus.compact = recording
    snapshots, seen, problems = set(), set(), []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            events = quarry.bus.events()
            snapshots.add(frozenset(event.position for event in events))
            seen.add(replayed_order(events, problems))

    readers = [threading.Thread(target=reader) for __ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        names = ("Part", "Item")
        for op in range(24):
            if op % 4 == 1:
                quarry.add_requirement(build_quantity_requirement())
            elif op % 4 == 3:
                quarry.remove_requirement("IR3")
            else:
                quarry.rename_concept(*names)
                names = names[::-1]
            committed.add(tuple(quarry.integration.order()))
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert deleted and all(deleted)
    assert problems == []
    assert seen and seen <= committed
    # Each compaction is atomic: a reader saw none of the events it
    # deleted, or every one already logged when the reader looked.
    for snapshot in snapshots:
        for doomed in deleted:
            logged = {position for position in doomed if position <= max(snapshot)}
            assert not snapshot & doomed or logged <= snapshot
