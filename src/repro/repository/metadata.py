"""The typed metadata catalog over the document store.

"the Communication & Metadata layer also serves as a repository for the
metadata that are produced and used during the DW design lifecycle"
(§2.5): information requirements, partial designs (per requirement),
unified designs, domain ontologies, source schema mappings and the SCD
policies the interpreter applies per concept.

Artefacts cross the boundary in their XML formats (xRQ/xMD/xLM) and are
stored as JSON documents via the generic converter — mirroring the
MongoDB + XML-JSON-XML parser of §2.6.  The repository never encodes:
the service that produces an artefact converts it to its XML→JSON tree
once, and the ``save_*`` methods store that tree as given, shared with
the bus payload that announced it.  Stored trees must therefore never
be mutated in place.  The ``load_*`` methods decode them back.

A repository is a *view* over a shared document store, scoped by a
session **namespace**: the default namespace (``""``) uses the plain
collection names, every other namespace prefixes them
(``session::<ns>::<collection>``), so many design sessions coexist in
one store without ever seeing each other's artefacts.  Catalog indexes
are declared per namespace.  The global ``sessions`` collection (never
namespaced) registers which sessions live in the store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.requirements.model import InformationRequirement
from repro.etlmodel.flow import EtlFlow
from repro.mdmodel.model import MDSchema, SCDPolicy
from repro.ontology import io as ontology_io
from repro.ontology.model import Ontology
from repro.repository.documents import Collection, DocumentStore
from repro.repository import store as file_store
from repro.sources.mappings import (
    ConceptMapping,
    PropertyMapping,
    SourceMappings,
)
from repro.xformats import xlm, xmd, xrq
from repro.xformats.xmljson import json_to_xml

REQUIREMENTS = "requirements"
PARTIAL_DESIGNS = "partial_designs"
UNIFIED_DESIGNS = "unified_designs"
ONTOLOGIES = "ontologies"
MAPPINGS = "mappings"
SCD_POLICIES = "scd_policies"
DEPLOYMENTS = "deployments"
BUS_EVENTS = "bus_events"
CHECKPOINTS = "checkpoints"
SESSION_STATE = "session_state"
#: Global (never namespaced) registry of the sessions in a store.
SESSIONS = "sessions"

#: The session name that maps to the unprefixed namespace — what every
#: pre-session store (and a `Quarry` built without ``session=``) uses.
DEFAULT_SESSION = "default"


def decode_design(xmd_tree: dict, xlm_tree: dict) -> Tuple[MDSchema, EtlFlow]:
    """The (MD schema, ETL flow) pair stored as xMD/xLM trees."""
    return xmd.loads(json_to_xml(xmd_tree)), xlm.loads(json_to_xml(xlm_tree))


def namespaced(collection_name: str, namespace: str) -> str:
    """The physical collection name for a logical one in a namespace."""
    if not namespace:
        return collection_name
    return f"session::{namespace}::{collection_name}"


def _event_id(position: int) -> str:
    """The ``_id`` of the bus event logged at ``position``."""
    return f"evt::{position:08d}"


def namespace_for_session(session: str) -> str:
    """Map a session name to its store namespace (default -> ``""``)."""
    return "" if session in ("", DEFAULT_SESSION) else session


#: Secondary indexes the catalog declares on its collections.  The
#: partial-design ``requirement`` index serves the hot lookup of the
#: lifecycle (cascade-deleting the partial designs of a requirement);
#: ``kind`` indexes serve catalog-wide audits; ``design`` serves the
#: deployment history lookup; ``topic`` serves per-topic bus replay.
CATALOG_INDEXES = {
    REQUIREMENTS: ("kind",),
    PARTIAL_DESIGNS: ("requirement", "kind"),
    UNIFIED_DESIGNS: ("kind",),
    DEPLOYMENTS: ("design", "platform"),
    BUS_EVENTS: ("topic",),
    CHECKPOINTS: ("kind",),
}


class MetadataRepository:
    """Typed facade over one session namespace of a document store."""

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        namespace: str = "",
    ) -> None:
        self._store = store if store is not None else DocumentStore()
        self._namespace = namespace
        for collection_name, paths in CATALOG_INDEXES.items():
            collection = self._collection(collection_name)
            for path in paths:
                collection.create_index(path)

    @property
    def store(self) -> DocumentStore:
        return self._store

    @property
    def namespace(self) -> str:
        return self._namespace

    def _collection(self, name: str) -> Collection:
        return self._store.collection(namespaced(name, self._namespace))

    # -- session views ----------------------------------------------------------

    def for_session(self, session: str) -> "MetadataRepository":
        """A repository view scoped to ``session``, over the same store.

        The default session maps to the unprefixed namespace, so
        ``for_session("default")`` on a default-namespace repository is
        the repository itself — pre-session code keeps its exact
        collection layout.
        """
        namespace = namespace_for_session(session)
        if namespace == self._namespace:
            return self
        return MetadataRepository(store=self._store, namespace=namespace)

    def register_session(self, session: str) -> str:
        """Record a session in the store-global session registry."""
        self._store.collection(SESSIONS).replace(
            {"_id": session, "kind": "session"}
        )
        return session

    def session_names(self) -> List[str]:
        """Registered sessions, in registration order."""
        return self._store.collection(SESSIONS).ids()

    # -- requirements -----------------------------------------------------------

    def save_requirement(
        self, requirement: InformationRequirement, xrq_tree: dict
    ) -> str:
        """Store a requirement as its xRQ tree."""
        document = {
            "_id": requirement.id,
            "kind": "requirement",
            "description": requirement.description,
            "xrq": xrq_tree,
        }
        self._collection(REQUIREMENTS).replace(document)
        return requirement.id

    def requirement_tree(self, requirement_id: str) -> dict:
        """The stored xRQ tree of a requirement."""
        return self._collection(REQUIREMENTS).get(requirement_id)["xrq"]

    def load_requirement(self, requirement_id: str) -> InformationRequirement:
        return xrq.loads(json_to_xml(self.requirement_tree(requirement_id)))

    def delete_requirement(self, requirement_id: str) -> None:
        self._collection(REQUIREMENTS).delete(requirement_id)
        self._collection(PARTIAL_DESIGNS).delete_many(
            {"requirement": requirement_id}
        )

    def requirement_ids(self) -> List[str]:
        return self._collection(REQUIREMENTS).ids()

    # -- partial designs ---------------------------------------------------------

    def save_partial_design(
        self, requirement_id: str, xmd_tree: dict, xlm_tree: dict
    ) -> str:
        """Store one requirement's partial design as its xMD/xLM trees."""
        doc_id = f"partial::{requirement_id}"
        document = {
            "_id": doc_id,
            "kind": "partial_design",
            "requirement": requirement_id,
            "xmd": xmd_tree,
            "xlm": xlm_tree,
        }
        self._collection(PARTIAL_DESIGNS).replace(document)
        return doc_id

    def partial_design_trees(self, requirement_id: str) -> Tuple[dict, dict]:
        """The stored (xMD, xLM) trees of a requirement's partial design."""
        document = self._collection(PARTIAL_DESIGNS).get(
            f"partial::{requirement_id}"
        )
        return document["xmd"], document["xlm"]

    def load_partial_design(
        self, requirement_id: str
    ) -> Tuple[MDSchema, EtlFlow]:
        return decode_design(*self.partial_design_trees(requirement_id))

    def partial_design_ids(self) -> List[str]:
        return [
            document["requirement"]
            for document in self._collection(PARTIAL_DESIGNS).find()
        ]

    # -- unified designs --------------------------------------------------------------

    def save_unified_design(
        self,
        name: str,
        xmd_tree: dict,
        xlm_tree: dict,
        satisfied_requirements: List[str],
    ) -> str:
        """Store a unified design solution version as its xMD/xLM trees."""
        document = {
            "_id": name,
            "kind": "unified_design",
            "requirements": sorted(satisfied_requirements),
            "xmd": xmd_tree,
            "xlm": xlm_tree,
        }
        self._collection(UNIFIED_DESIGNS).replace(document)
        return name

    def load_unified_design(self, name: str) -> Tuple[MDSchema, EtlFlow, List[str]]:
        document = self._collection(UNIFIED_DESIGNS).get(name)
        return (
            *decode_design(document["xmd"], document["xlm"]),
            list(document["requirements"]),
        )

    def unified_design_names(self) -> List[str]:
        return self._collection(UNIFIED_DESIGNS).ids()

    # -- integration checkpoints --------------------------------------------------------

    def save_checkpoint(
        self, position: int, xmd_tree: dict, xlm_tree: dict
    ) -> str:
        """Store the unified design checkpoint after fold position
        ``position`` as its xMD/xLM trees."""
        doc_id = f"ckpt::{position:06d}"
        self._collection(CHECKPOINTS).replace(
            {
                "_id": doc_id,
                "kind": "checkpoint",
                "position": position,
                "xmd": xmd_tree,
                "xlm": xlm_tree,
            }
        )
        return doc_id

    def checkpoint_trees(self, position: int) -> Tuple[dict, dict]:
        """The stored (xMD, xLM) trees of the checkpoint at ``position``."""
        document = self._collection(CHECKPOINTS).get(f"ckpt::{position:06d}")
        return document["xmd"], document["xlm"]

    def truncate_checkpoints(self, start: int) -> int:
        """Drop every checkpoint at fold position >= ``start``."""
        return self._collection(CHECKPOINTS).delete_many(
            {"position": {"$gte": start}}
        )

    def checkpoint_count(self) -> int:
        return len(self._collection(CHECKPOINTS))

    # -- session state ------------------------------------------------------------------

    def save_session_state(self, order: List[str]) -> None:
        """Persist the session's requirement *insertion* order.

        ``save_unified_design`` stores the satisfied requirements sorted
        (a set, essentially); incremental integration is a fold over the
        insertion order, so resuming a session needs the true order too.
        """
        self._collection(SESSION_STATE).replace(
            {"_id": "state", "kind": "session_state", "order": list(order)}
        )

    def load_session_state(self) -> Optional[Dict]:
        """The persisted session state, or ``None`` for legacy stores."""
        collection = self._collection(SESSION_STATE)
        if not collection.has("state"):
            return None
        return collection.get("state")

    # -- ontologies and mappings --------------------------------------------------------

    def save_ontology(self, ontology: Ontology) -> str:
        document = {
            "_id": ontology.name,
            "kind": "ontology",
            "text": ontology_io.dumps(ontology),
        }
        self._collection(ONTOLOGIES).replace(document)
        return ontology.name

    def load_ontology(self, name: str) -> Ontology:
        document = self._collection(ONTOLOGIES).get(name)
        return ontology_io.loads(document["text"])

    def ontology_names(self) -> List[str]:
        return self._collection(ONTOLOGIES).ids()

    def save_mappings(self, mappings: SourceMappings) -> str:
        """Store an ontology's source mappings, keyed by the ontology name."""
        snapshot = mappings.snapshot()
        document = {
            "_id": mappings.ontology_name,
            "kind": "mappings",
            "source": mappings.source_name,
            "concepts": [
                [binding.concept, binding.table, list(binding.key_columns)]
                for binding in snapshot["concepts"].values()
            ],
            "properties": [
                [binding.property, binding.table, binding.column]
                for binding in snapshot["properties"].values()
            ],
        }
        self._collection(MAPPINGS).replace(document)
        return mappings.ontology_name

    def load_mappings(self, ontology_name: str) -> Optional[SourceMappings]:
        """The stored mappings of an ontology, or ``None`` if none are stored.

        Reading never creates the collection, so a store that holds no
        mappings saves as it did before.
        """
        if namespaced(MAPPINGS, self._namespace) not in self._store:
            return None
        collection = self._collection(MAPPINGS)
        if not collection.has(ontology_name):
            return None
        document = collection.get(ontology_name)
        mappings = SourceMappings(ontology_name, document["source"])
        mappings.restore(
            {
                "concepts": {
                    concept: ConceptMapping(concept, table, tuple(keys))
                    for concept, table, keys in document["concepts"]
                },
                "properties": {
                    property_id: PropertyMapping(property_id, table, column)
                    for property_id, table, column in document["properties"]
                },
            }
        )
        return mappings

    def save_scd_policies(
        self, ontology_name: str, policies: Dict[str, SCDPolicy]
    ) -> str:
        """Store the per-concept SCD policies, keyed by the ontology name."""
        self._collection(SCD_POLICIES).replace(
            {
                "_id": ontology_name,
                "kind": "scd_policies",
                "policies": {
                    concept: policy.value
                    for concept, policy in policies.items()
                },
            }
        )
        return ontology_name

    def load_scd_policies(
        self, ontology_name: str
    ) -> Optional[Dict[str, SCDPolicy]]:
        """The stored SCD policies of an ontology, or ``None`` if none are
        stored.  Reading never creates the collection."""
        if namespaced(SCD_POLICIES, self._namespace) not in self._store:
            return None
        collection = self._collection(SCD_POLICIES)
        if not collection.has(ontology_name):
            return None
        stored = collection.get(ontology_name)["policies"]
        return {concept: SCDPolicy(value) for concept, value in stored.items()}

    # -- deployment records -------------------------------------------------------------

    def record_deployment(
        self, design_name: str, platform: str, artifacts: dict
    ) -> str:
        """Record what was generated/deployed for a design on a platform."""
        doc_id = f"{design_name}::{platform}"
        self._collection(DEPLOYMENTS).replace(
            {
                "_id": doc_id,
                "kind": "deployment",
                "design": design_name,
                "platform": platform,
                "artifacts": artifacts,
            }
        )
        return doc_id

    def deployments_of(self, design_name: str) -> List[dict]:
        return self._collection(DEPLOYMENTS).find(
            {"design": design_name}
        )

    # -- bus event log ------------------------------------------------------------------

    def append_bus_event(self, event: dict) -> str:
        """Append one artifact-bus event (already envelope-shaped)."""
        document = dict(event)
        document["_id"] = _event_id(event["position"])
        document["kind"] = "bus_event"
        self._collection(BUS_EVENTS).insert(document)
        return document["_id"]

    def bus_events(self, topic: Optional[str] = None) -> List[dict]:
        """Logged events (bus-wide order), optionally for one topic."""
        collection = self._collection(BUS_EVENTS)
        events = (
            collection.find() if topic is None
            else collection.find({"topic": topic})
        )
        events.sort(key=lambda event: event["position"])
        return events

    def delete_bus_events_after(self, position: int) -> int:
        """Drop every event logged after bus position ``position``."""
        return self._collection(BUS_EVENTS).delete_many(
            {"position": {"$gt": position}}
        )

    def delete_bus_events(self, positions: List[int]) -> int:
        """Drop the events logged at the given bus positions, in one call."""
        return self._collection(BUS_EVENTS).delete_many(
            {"_id": {"$in": [_event_id(position) for position in positions]}}
        )

    def bus_event_count(self) -> int:
        return len(self._collection(BUS_EVENTS))

    # -- persistence -------------------------------------------------------------------

    def save_to(self, path) -> None:
        """Persist the whole underlying store (every session) to a file."""
        file_store.save(self._store, path)

    @classmethod
    def load_from(cls, path) -> "MetadataRepository":
        return cls(store=file_store.load(path))
