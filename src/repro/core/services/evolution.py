"""The Design Evolution service: time as a first-class scenario.

Requirements change, but so does the *understanding of the domain*.
This service applies design-evolution operators — ``rename_concept``,
``split_concept``, ``merge_concepts``, ``retype_property`` — to a live
session: the domain ontology and source mappings are rewritten, every
requirement whose partial design touches the evolved elements is
re-interpreted against the new domain, and the unified design is
brought up to date **incrementally**: affected partials are swapped in
place (keeping their fold position) and the fold is re-run only from
the minimum affected checkpoint, never from scratch.

Every operator runs in one integration transaction: if
re-interpretation, re-folding or a subscriber fails, ontology,
mappings, SCD policies, partials and the bus event log are restored,
nothing is stored, and the original exception propagates.  Once it
commits, the rewritten ontology and mappings are stored too, so a
reloaded session evolves the domain its design was built over.

Each applied operator publishes two kinds of envelopes:

* one ``partial.replaced`` envelope per re-interpreted requirement on
  the ``partials`` topic (carrying the full xRQ/xMD/xLM payloads), so
  :meth:`~repro.core.services.session.DesignSession.replay_unified_design`
  reproduces the evolved design purely from the log,
* one typed ``design.evolved`` envelope on the ``evolution`` topic
  describing the operator, its parameters, the affected requirements
  and the fold position the re-integration restarted from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.interpreter import PartialDesign
from repro.core.services.bus import ArtifactBus
from repro.core.services.integration import IntegrationService
from repro.core.services.interpretation import InterpretationService
from repro.errors import EvolutionError
from repro.expressions.types import ScalarType
from repro.mdmodel.conformance import strongest_policy
from repro.mdmodel.model import SCDPolicy
from repro.ontology.model import (
    Concept,
    DatatypeProperty,
    Multiplicity,
    ObjectProperty,
    Ontology,
)
from repro.sources.mappings import SourceMappings
from repro.sources.schema import SourceSchema

TOPIC_EVOLUTION = "evolution"

KIND_EVOLVED = "design.evolved"


@dataclass
class EvolutionReport:
    """What one design-evolution operator did to the session."""

    operator: str
    detail: Dict[str, object] = field(default_factory=dict)
    #: Requirement ids whose partial designs were re-interpreted, in
    #: fold order.
    affected: List[str] = field(default_factory=list)
    #: Fold position the incremental re-integration restarted from
    #: (``None`` when no requirement was affected).
    refolded_from: Optional[int] = None


class EvolutionService:
    """Applies design-evolution operators to a live session."""

    name = "evolution"

    def __init__(
        self,
        ontology: Ontology,
        schema: SourceSchema,
        mappings: SourceMappings,
        interpretation: InterpretationService,
        integration: IntegrationService,
        bus: ArtifactBus,
        repository,
    ) -> None:
        self._ontology = ontology
        self._schema = schema
        self._mappings = mappings
        self._interpretation = interpretation
        self._integration = integration
        self._bus = bus
        self._repository = repository  # session-scoped MetadataRepository

    # -- operators ---------------------------------------------------------

    def rename_concept(self, old_id: str, new_id: str) -> EvolutionReport:
        """Rename a concept; dimensions named after it follow."""
        if not self._ontology.has_concept(old_id):
            raise EvolutionError(f"unknown concept {old_id!r}")
        if new_id != old_id and new_id in self._ontology:
            raise EvolutionError(
                f"cannot rename {old_id!r}: id {new_id!r} is taken"
            )

        def mutate() -> None:
            self._ontology.rename_concept(old_id, new_id)
            if self._mappings.has_concept_mapping(old_id):
                self._mappings.rename_concept(old_id, new_id)
            policies = self._interpretation.interpreter.scd_policies
            if old_id in policies:
                policies[new_id] = policies.pop(old_id)

        return self._apply(
            "rename_concept",
            {"from": old_id, "to": new_id},
            mutate,
            lambda partial: self._mentions_concept(partial, old_id),
        )

    def split_concept(
        self,
        concept: str,
        new_concept: str,
        properties: Sequence[str],
        relationship: Optional[str] = None,
    ) -> EvolutionReport:
        """Carve a new concept out of an existing one.

        The listed datatype properties move to ``new_concept``, which is
        bound to the *same* source table (a design-level split) and
        linked from ``concept`` by a new to-one relationship — so the
        moved attributes become a coarser dimension level (or their own
        dimension) without touching the sources.
        """
        if not self._ontology.has_concept(concept):
            raise EvolutionError(f"unknown concept {concept!r}")
        if new_concept in self._ontology:
            raise EvolutionError(
                f"cannot split {concept!r}: id {new_concept!r} is taken"
            )
        moved = list(properties)
        if not moved:
            raise EvolutionError("split_concept needs at least one property")
        for property_id in moved:
            if not self._ontology.has_datatype_property(property_id):
                raise EvolutionError(f"unknown property {property_id!r}")
            owner = self._ontology.datatype_property(property_id).concept
            if owner != concept:
                raise EvolutionError(
                    f"property {property_id!r} belongs to {owner!r}, "
                    f"not {concept!r}"
                )
        relationship_id = relationship or f"{concept}_has_{new_concept}"
        if relationship_id in self._ontology:
            raise EvolutionError(
                f"relationship id {relationship_id!r} is taken"
            )

        def mutate() -> None:
            self._ontology.add_concept(Concept(id=new_concept))
            for property_id in moved:
                self._ontology.move_datatype_property(property_id, new_concept)
            self._ontology.add_object_property(
                ObjectProperty(
                    id=relationship_id,
                    domain=concept,
                    range=new_concept,
                    multiplicity=Multiplicity.MANY_TO_ONE,
                )
            )
            if self._mappings.has_concept_mapping(concept):
                binding = self._mappings.concept_mapping(concept)
                self._mappings.map_concept(
                    new_concept, binding.table, binding.key_columns
                )

        return self._apply(
            "split_concept",
            {
                "concept": concept,
                "new_concept": new_concept,
                "properties": moved,
                "relationship": relationship_id,
            },
            mutate,
            lambda partial: (
                self._mentions_concept(partial, concept)
                or self._references_any(partial, moved)
            ),
        )

    def merge_concepts(self, source: str, target: str) -> EvolutionReport:
        """Fold ``source`` into ``target`` (the inverse of a split).

        Allowed only when both concepts are realised by the same source
        table; ``source``'s datatype properties move to ``target``,
        relationships are redirected (collapsed self-loops dropped) and
        ``source`` disappears.  A history-keeping SCD policy on either
        side survives on the merged concept.
        """
        for concept in (source, target):
            if not self._ontology.has_concept(concept):
                raise EvolutionError(f"unknown concept {concept!r}")
        if source == target:
            raise EvolutionError("cannot merge a concept into itself")
        if self._mappings.has_concept_mapping(
            source
        ) and self._mappings.has_concept_mapping(target):
            source_table = self._mappings.table_of(source)
            target_table = self._mappings.table_of(target)
            if source_table != target_table:
                raise EvolutionError(
                    f"cannot merge {source!r} (table {source_table!r}) into "
                    f"{target!r} (table {target_table!r}): the concepts are "
                    f"realised by different tables"
                )

        def mutate() -> None:
            ontology = self._ontology
            for prop in list(ontology.datatype_properties(source)):
                ontology.move_datatype_property(prop.id, target)
            for prop in list(ontology.object_properties()):
                if prop.domain != source and prop.range != source:
                    continue
                domain = target if prop.domain == source else prop.domain
                range_ = target if prop.range == source else prop.range
                if domain == range_:
                    ontology.remove_object_property(prop.id)
                else:
                    ontology.replace_object_property(
                        ObjectProperty(
                            id=prop.id,
                            domain=domain,
                            range=range_,
                            multiplicity=prop.multiplicity,
                            label=prop.label,
                            description=prop.description,
                        )
                    )
            for concept in list(ontology.concepts()):
                if concept.parent == source:
                    ontology.replace_concept(
                        Concept(
                            id=concept.id,
                            label=concept.label,
                            parent=target,
                            description=concept.description,
                        )
                    )
            if self._mappings.has_concept_mapping(source):
                self._mappings.unmap_concept(source)
            ontology.remove_concept(source)
            policies = self._interpretation.interpreter.scd_policies
            if source in policies:
                merged = strongest_policy(
                    policies.pop(source),
                    policies.get(target, SCDPolicy.TYPE0),
                )
                if merged is not SCDPolicy.TYPE0:
                    policies[target] = merged

        return self._apply(
            "merge_concepts",
            {"source": source, "target": target},
            mutate,
            lambda partial: (
                self._mentions_concept(partial, source)
                or self._mentions_concept(partial, target)
            ),
        )

    def retype_property(
        self, property_id: str, new_type: object
    ) -> EvolutionReport:
        """Change a datatype property's range type."""
        if not self._ontology.has_datatype_property(property_id):
            raise EvolutionError(f"unknown property {property_id!r}")
        scalar = (
            new_type
            if isinstance(new_type, ScalarType)
            else ScalarType(str(new_type))
        )
        old = self._ontology.datatype_property(property_id)

        def mutate() -> None:
            self._ontology.replace_datatype_property(
                DatatypeProperty(
                    id=old.id,
                    concept=old.concept,
                    range=scalar,
                    label=old.label,
                    description=old.description,
                )
            )

        return self._apply(
            "retype_property",
            {
                "property": property_id,
                "from": old.range.value,
                "to": scalar.value,
            },
            mutate,
            lambda partial: self._references_any(partial, [property_id]),
        )

    # -- the shared transactional skeleton ---------------------------------

    def _apply(
        self,
        operator: str,
        detail: Dict[str, object],
        mutate: Callable[[], None],
        is_affected: Callable[[PartialDesign], bool],
    ) -> EvolutionReport:
        policies = self._interpretation.interpreter.scd_policies
        snapshot = (
            self._ontology.snapshot(),
            self._mappings.snapshot(),
            dict(policies),
        )
        order = self._integration.order()
        affected = [
            requirement_id
            for requirement_id in order
            if is_affected(self._integration.partial_design(requirement_id))
        ]
        start = min(
            (order.index(requirement_id) for requirement_id in affected),
            default=None,
        )
        try:
            with self._integration.transaction():
                mutate()
                fresh = [
                    self._interpretation.reinterpret(partial)
                    for partial in map(self._integration.partial_design, affected)
                ]
                for requirement_id, partial in zip(affected, fresh):
                    self._interpretation.publish_replacement(partial)
                    self._integration.replace_partial(requirement_id, partial)
                if start is not None:
                    self._integration.reintegrate_from(start)
                self._bus.publish(
                    TOPIC_EVOLUTION,
                    KIND_EVOLVED,
                    payload={
                        "operator": operator,
                        "detail": dict(detail),
                        "affected": list(affected),
                        "refolded_from": start,
                    },
                    producer=self.name,
                )
        except Exception:
            self._restore(snapshot)
            raise
        self._repository.save_ontology(self._ontology)
        if self._mappings.snapshot() != snapshot[1]:  # a retype leaves them
            self._repository.save_mappings(self._mappings)
        return EvolutionReport(
            operator=operator,
            detail=dict(detail),
            affected=list(affected),
            refolded_from=start,
        )

    def _restore(self, snapshot) -> None:
        ontology_snapshot, mappings_snapshot, policy_snapshot = snapshot
        self._ontology.restore(ontology_snapshot)
        self._mappings.restore(mappings_snapshot)
        policies = self._interpretation.interpreter.scd_policies
        policies.clear()
        policies.update(policy_snapshot)

    # -- affectedness ------------------------------------------------------

    @staticmethod
    def _mentions_concept(partial: PartialDesign, concept: str) -> bool:
        """Whether a partial design depends on an ontology concept."""
        md_schema = partial.md_schema
        if any(fact.concept == concept for fact in md_schema.facts.values()):
            return True
        return any(
            level.concept == concept
            for __, level in md_schema.iter_levels()
        )

    @staticmethod
    def _references_any(
        partial: PartialDesign, property_ids: Sequence[str]
    ) -> bool:
        """Whether a partial uses any of the properties (requirement
        text or level-attribute provenance)."""
        wanted = set(property_ids)
        if wanted & set(partial.requirement.referenced_properties()):
            return True
        return any(
            attribute.property in wanted
            for __, level in partial.md_schema.iter_levels()
            for attribute in level.attributes
        )
