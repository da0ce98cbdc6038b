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
  lifecycle operation so the log only ever contains committed history,
* **compactable** — ``compact(positions)`` deletes events the log no
  longer needs in one repository call.  The integration service decides
  which (after each committed design change, never inside one); the bus
  always keeps each topic's newest event, from which a reloaded bus
  resumes its sequences and positions.  A compaction starts a new
  generation, and ``rollback`` refuses a marker of an older one with
  :class:`~repro.errors.StaleMarkerError`: the events it describes may
  be gone.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.core.services.envelope import ArtifactEnvelope
from repro.errors import QuarryError, StaleMarkerError
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
        #: Compactions so far; a marker is only good in its generation.
        self._generation = 0  # guarded-by: ArtifactBus._lock
        # Resume sequences from a persisted log (session reload).
        self._sequences: Dict[str, int] = {}  # guarded-by: ArtifactBus._lock
        #: Position of each topic's newest logged event.
        self._newest: Dict[str, int] = {}  # guarded-by: ArtifactBus._lock
        self._next_position = 0  # guarded-by: ArtifactBus._lock
        for event in self._repository.bus_events():
            topic = event["topic"]
            self._sequences[topic] = max(
                self._sequences.get(topic, 0), event["sequence"]
            )
            self._newest[topic] = event["position"]
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
            self._newest[topic] = envelope.position
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
                "generation": self._generation,
                "position": self._next_position - 1,
                "sequences": dict(self._sequences),
                "newest": dict(self._newest),
            }

    def rollback(self, marker: dict) -> int:
        """Drop every envelope logged after ``marker``; returns the count.

        Markers are bus-specific: rolling back a marker taken from a
        different bus instance (another session, or a reloaded one)
        raises instead of silently truncating the wrong log.  So does a
        marker taken before a compaction (:class:`StaleMarkerError`),
        since the log it describes may have lost events; both refusals
        leave the log untouched.

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
            if marker["generation"] != self._generation:
                raise StaleMarkerError(
                    f"cannot roll back session {self._session!r} to a "
                    f"marker taken before its bus log was compacted"
                )
            dropped = self._repository.delete_bus_events_after(
                marker["position"]
            )
            self._sequences = dict(marker["sequences"])
            self._newest = dict(marker["newest"])
            self._next_position = marker["position"] + 1
            return dropped

    # -- compaction --------------------------------------------------------

    def compact(self, positions: List[int]) -> List[int]:
        """Delete the logged events at ``positions``, in one repository call.

        Each topic's newest event stays even when ``positions`` names
        it, because a reloaded bus resumes its sequences and positions
        from it; the positions kept for that reason are returned, so a
        later compaction can drop them.  Deleting starts a new
        generation: :meth:`rollback` refuses every older marker.
        """
        with self._lock:
            newest = set(self._newest.values())
            doomed = [position for position in positions if position not in newest]
            if doomed:
                self._repository.delete_bus_events(doomed)
                self._generation += 1
            return [position for position in positions if position in newest]
