"""The Requirements Interpretation service.

Consumes xRQ envelopes from the ``requirements`` topic and publishes
one partial design (xMD + xLM) envelope per requirement on the
``partials`` topic.  Two intake kinds:

* ``requirement.added`` — run the interpreter (mapper -> MD generation
  -> ETL generation, §2.2),
* ``requirement.external`` — a design built by an external tool rides
  along in the envelope; re-validate the §2.2 assumptions (sound MD
  schema, valid typed flow that claims the requirement and carries its
  measures) instead of generating.

The service encodes each partial design it produces into its xMD/xLM
trees exactly once, and reuses the requirement's xRQ tree from the
elicitation envelope; the published payload, the repository documents
and later re-publications all share those trees.
"""

from __future__ import annotations

from repro.core.interpreter import Interpreter, PartialDesign
from repro.core.services.bus import ArtifactBus
from repro.core.services.envelope import ArtifactEnvelope
from repro.errors import QuarryError
from repro.ontology.model import Ontology
from repro.repository.metadata import decode_design
from repro.sources.mappings import SourceMappings
from repro.sources.schema import SourceSchema
from repro.xformats import xlm, xmd, xrq
from repro.xformats.xmljson import json_to_xml

from repro.core.services import elicitation as _elicitation

TOPIC_PARTIALS = "partials"

KIND_CREATED = "partial.created"
#: Published by the integration service when a requirement is retired;
#: defined here so the topic's vocabulary lives in one place.
KIND_REMOVED = "partial.removed"
#: Published by the evolution service when a design-evolution operator
#: re-interprets a requirement: the partial is swapped *in place* (the
#: fold position is kept), unlike created, which appends to the fold.
KIND_REPLACED = "partial.replaced"


def partial_from_trees(trees: dict) -> PartialDesign:
    """A partial design decoded from its ``xrq``/``xmd``/``xlm`` trees,
    which it keeps (extra keys, such as a payload's ``requirement``,
    are ignored)."""
    md_schema, etl_flow = decode_design(trees["xmd"], trees["xlm"])
    return PartialDesign(
        requirement=xrq.loads(json_to_xml(trees["xrq"])),
        mapping=None,
        md_schema=md_schema,
        etl_flow=etl_flow,
        trees={key: trees[key] for key in ("xrq", "xmd", "xlm")},
    )


class InterpretationService:
    """Translates requirement envelopes into partial-design envelopes."""

    name = "interpretation"

    def __init__(
        self,
        ontology: Ontology,
        schema: SourceSchema,
        mappings: SourceMappings,
        bus: ArtifactBus,
        complement: bool = True,
        scd_policies=None,
        scd_effective_date: str = "1970-01-01",
    ) -> None:
        self._ontology = ontology
        self._schema = schema
        self._interpreter = Interpreter(
            ontology,
            schema,
            mappings,
            complement=complement,
            scd_policies=scd_policies,
            scd_effective_date=scd_effective_date,
        )
        self._bus = bus
        bus.subscribe(
            _elicitation.TOPIC_REQUIREMENTS, self._on_requirement
        )

    @property
    def interpreter(self) -> Interpreter:
        return self._interpreter

    # -- intake ------------------------------------------------------------

    def _on_requirement(self, envelope: ArtifactEnvelope) -> None:
        if envelope.kind == _elicitation.KIND_ADDED:
            partial = self._interpret(envelope)
        elif envelope.kind == _elicitation.KIND_EXTERNAL:
            partial = self._validate_external(envelope)
        else:  # unknown kinds are not for this service
            return
        self._publish(KIND_CREATED, partial)

    def _publish(self, kind: str, partial: PartialDesign) -> None:
        """Announce a partial on the bus; its trees are the payload."""
        self._bus.publish(
            TOPIC_PARTIALS,
            kind,
            payload={"requirement": partial.requirement.id, **partial.trees},
            producer=self.name,
            attachment=partial,
        )

    @staticmethod
    def _encode(partial: PartialDesign, xrq_tree: dict) -> PartialDesign:
        """Attach the partial's trees: the requirement's as elicitation
        encoded it, the design's encoded here, once."""
        partial.trees = {
            "xrq": xrq_tree,
            "xmd": xmd.to_tree(partial.md_schema),
            "xlm": xlm.to_tree(partial.etl_flow),
        }
        return partial

    def _interpret(self, envelope: ArtifactEnvelope) -> PartialDesign:
        requirement = envelope.attachment
        if requirement is None:
            requirement = xrq.loads(json_to_xml(envelope.payload["xrq"]))
        return self._encode(
            self._interpreter.interpret(requirement), envelope.payload["xrq"]
        )

    def _validate_external(self, envelope: ArtifactEnvelope) -> PartialDesign:
        """Re-check the §2.2 soundness assumptions on an external design.

        Elicitation encoded the whole triple, so the payload's trees
        are the partial's trees.
        """
        from repro.etlmodel.propagation import propagate
        from repro.mdmodel import constraints

        payload = envelope.payload
        if envelope.attachment is not None:
            requirement, md_schema, etl_flow = envelope.attachment
        else:
            requirement = xrq.loads(json_to_xml(payload["xrq"]))
            md_schema, etl_flow = self.decode_partial(envelope)
        requirement.check(self._ontology)
        constraints.check(md_schema)
        etl_flow.check()
        propagate(etl_flow, self._schema)
        if requirement.id not in etl_flow.requirements:
            raise QuarryError(
                f"external flow does not claim requirement {requirement.id!r}"
            )
        for measure in requirement.measures:
            carried = any(
                measure.name in fact.measures
                for fact in md_schema.facts.values()
            )
            if not carried:
                raise QuarryError(
                    f"external MD schema has no measure {measure.name!r}; "
                    f"it does not satisfy requirement {requirement.id!r}"
                )
        return PartialDesign(
            requirement=requirement,
            mapping=None,
            md_schema=md_schema,
            etl_flow=etl_flow,
            trees={key: payload[key] for key in ("xrq", "xmd", "xlm")},
        )

    # -- evolution support -------------------------------------------------

    def reinterpret(self, partial: PartialDesign) -> PartialDesign:
        """Interpret a partial's requirement against the *current*
        (evolved) domain; the requirement itself, and so its tree, is
        unchanged."""
        return self._encode(
            self._interpreter.interpret(partial.requirement),
            partial.trees["xrq"],
        )

    def publish_replacement(self, partial: PartialDesign) -> None:
        """Announce an in-place partial swap (design evolution) on the bus."""
        self._publish(KIND_REPLACED, partial)

    # -- replay support ----------------------------------------------------

    @staticmethod
    def decode_partial(envelope: ArtifactEnvelope):
        """(md_schema, etl_flow) rebuilt purely from a logged envelope."""
        return decode_design(envelope.payload["xmd"], envelope.payload["xlm"])
