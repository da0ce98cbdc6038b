"""The Requirements Elicitation service.

Front door of the pipeline (§2.1): accepts information requirements —
built programmatically, via the assistance backends (fact/perspective
suggestions, business-vocabulary resolution), or as raw xRQ documents —
and publishes each accepted requirement as an xRQ artifact envelope on
the ``requirements`` topic.  Downstream services only ever see those
envelopes.
"""

from __future__ import annotations

from repro.core.requirements import Elicitor
from repro.core.requirements.model import InformationRequirement
from repro.core.requirements.vocabulary import Vocabulary
from repro.core.services.bus import ArtifactBus
from repro.core.services.envelope import ArtifactEnvelope
from repro.etlmodel.flow import EtlFlow
from repro.mdmodel.model import MDSchema
from repro.ontology.model import Ontology
from repro.xformats import xlm, xmd, xrq

TOPIC_REQUIREMENTS = "requirements"

KIND_ADDED = "requirement.added"
KIND_EXTERNAL = "requirement.external"


class ElicitationService:
    """Accepts requirements and emits xRQ artifact envelopes."""

    name = "elicitation"

    def __init__(self, ontology: Ontology, bus: ArtifactBus) -> None:
        self._ontology = ontology
        self._bus = bus

    # -- assistance backends ----------------------------------------------

    def elicitor(self) -> Elicitor:
        """The suggestion backend over this domain."""
        return Elicitor(self._ontology)

    def vocabulary(self) -> Vocabulary:
        """Business-vocabulary resolution over this domain."""
        return Vocabulary(self._ontology)

    # -- intake ------------------------------------------------------------

    def submit(self, requirement: InformationRequirement) -> ArtifactEnvelope:
        """Publish one requirement as an xRQ envelope."""
        return self._bus.publish(
            TOPIC_REQUIREMENTS,
            KIND_ADDED,
            payload={
                "requirement": requirement.id,
                "xrq": xrq.to_tree(requirement),
            },
            producer=self.name,
            attachment=requirement,
        )

    def submit_xrq(self, xrq_text: str) -> ArtifactEnvelope:
        """Publish a requirement delivered as an xRQ document.

        This is the wire format the Requirements Elicitor posts to the
        Requirements Interpreter in the original service architecture.
        """
        return self.submit(xrq.loads(xrq_text))

    def submit_external(
        self,
        requirement: InformationRequirement,
        md_schema: MDSchema,
        etl_flow: EtlFlow,
    ) -> ArtifactEnvelope:
        """Publish a requirement whose partial design an *external* tool built.

        The envelope carries the full xRQ+xMD+xLM triple; the
        interpretation service validates the claimed design instead of
        generating one (§2.2).
        """
        return self._bus.publish(
            TOPIC_REQUIREMENTS,
            KIND_EXTERNAL,
            payload={
                "requirement": requirement.id,
                "xrq": xrq.to_tree(requirement),
                "xmd": xmd.to_tree(md_schema),
                "xlm": xlm.to_tree(etl_flow),
            },
            producer=self.name,
            attachment=(requirement, md_schema, etl_flow),
        )
