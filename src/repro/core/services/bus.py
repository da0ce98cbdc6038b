"""The synchronous artifact bus.

The in-process stand-in for the paper's RESTful service fabric: services
``subscribe`` to topics and ``publish`` envelopes; delivery is
synchronous and in subscription order, so the design pipeline keeps its
deterministic left-fold semantics (and exceptions propagate to the
caller exactly as direct calls would).

Every published envelope is appended to a per-session event log in the
metadata repository *before* delivery, which makes the bus:

* **observable** — ``events()`` exposes the full per-topic history,
  rebuilt from the logged documents in publication order, so a reader
  (the session's ``replay_unified_design``) consumes exactly what was
  persisted and never an attachment,
* **transactional at the session level** — ``marker()`` /
  ``rollback(marker)`` let an orchestrator drop the events of a failed
  lifecycle operation so the log only ever contains committed history.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.core.services.envelope import ArtifactEnvelope
from repro.errors import QuarryError
from repro.locks import new_rlock

Handler = Callable[[ArtifactEnvelope], None]

#: Process-wide bus instance ids; markers carry their bus's id so a
#: marker can never be rolled back on a bus it was not taken from.
_BUS_IDS = itertools.count(1)


class ArtifactBus:
    """Synchronous publish/subscribe over a persisted event log."""

    def __init__(self, repository, session: str) -> None:
        self._repository = repository  # session-scoped MetadataRepository
        self._session = session
        self._subscribers: Dict[str, List[Handler]] = {}
        #: Guards sequences, positions and marker capture.  Reentrant
        #: because a subscriber delivered under the lock may itself
        #: publish (service pipelines chain topic to topic).
        self._lock = new_rlock("ArtifactBus._lock")
        self._id = next(_BUS_IDS)
        # Resume sequences from a persisted log (session reload).
        self._sequences: Dict[str, int] = {}  # guarded-by: ArtifactBus._lock
        self._next_position = 0  # guarded-by: ArtifactBus._lock
        for event in self._repository.bus_events():
            topic = event["topic"]
            self._sequences[topic] = max(
                self._sequences.get(topic, 0), event["sequence"]
            )
            self._next_position = max(
                self._next_position, event["position"] + 1
            )

    @property
    def session(self) -> str:
        return self._session

    # -- pub/sub -----------------------------------------------------------

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Deliver every future envelope on ``topic`` to ``handler``."""
        self._subscribers.setdefault(topic, []).append(handler)

    def publish(
        self,
        topic: str,
        kind: str,
        payload: dict,
        producer: str,
        attachment=None,
    ) -> ArtifactEnvelope:
        """Log an envelope, then deliver it synchronously.

        The append-then-deliver order is what makes ``rollback`` sound:
        if a subscriber raises, the orchestrator can still see (and
        drop) everything the failed operation logged.

        The whole publish — sequence draw, log append, delivery — runs
        under the bus lock, so concurrent publishers (the served front
        end hammers one session from many handler threads) can never
        draw the same sequence or interleave a marker between the
        sequence read and the position bump.
        """
        with self._lock:
            sequence = self._sequences.get(topic, 0) + 1
            envelope = ArtifactEnvelope(
                topic=topic,
                kind=kind,
                session=self._session,
                sequence=sequence,
                position=self._next_position,
                producer=producer,
                payload=payload,
                attachment=attachment,
            )
            self._repository.append_bus_event(envelope.to_dict())
            self._sequences[topic] = sequence
            self._next_position += 1
            for handler in self._subscribers.get(topic, []):
                handler(envelope)
            return envelope

    # -- the event log -----------------------------------------------------

    def events(self, topic: Optional[str] = None) -> List[ArtifactEnvelope]:
        """Logged envelopes in publication order (optionally one topic)."""
        return [
            ArtifactEnvelope.from_dict(document)
            for document in self._repository.bus_events(topic)
        ]

    # -- session-level transactions ---------------------------------------

    def marker(self) -> dict:
        """An opaque snapshot of the log's current extent.

        Captured atomically under the bus lock: a publish can never
        land between the position read and the sequence copy, so a
        marker always describes a log state that actually existed —
        ``rollback`` can honor every marker ever taken.
        """
        with self._lock:
            return {
                "bus": self._id,
                "position": self._next_position - 1,
                "sequences": dict(self._sequences),
            }

    def rollback(self, marker: dict) -> int:
        """Drop every envelope logged after ``marker``; returns the count.

        Markers are bus-specific: rolling back a marker taken from a
        different bus instance (another session, or a reloaded one)
        raises instead of silently truncating the wrong log.

        Subscribers are *not* notified: rollback compensates a failed
        lifecycle operation whose in-memory effects the orchestrator
        undoes itself (the integration service's transaction); the log
        just must not advertise uncommitted events.
        """
        if marker.get("bus") != self._id:
            raise QuarryError(
                f"cannot roll back bus {self._id} (session "
                f"{self._session!r}) to a marker from bus "
                f"{marker.get('bus')!r}"
            )
        with self._lock:
            dropped = self._repository.delete_bus_events_after(
                marker["position"]
            )
            self._sequences = dict(marker["sequences"])
            self._next_position = marker["position"] + 1
            return dropped
