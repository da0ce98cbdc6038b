"""Session-scoped design services over a synchronous artifact bus.

The in-process realisation of the paper's service-oriented
architecture (§2): four services — Requirements Elicitation,
Requirements Interpretation, Design Integration, Design Deployment —
that communicate *only* through typed, versioned artifact envelopes
(xRQ/xMD/xLM payloads) published on an :class:`ArtifactBus` and
persisted in the metadata repository.  A :class:`DesignSession` wires
one set of services onto one bus over a session-scoped repository
view; ``Quarry`` is the same class under the paper's name.
"""

from repro.core.services.bus import ArtifactBus
from repro.core.services.deployment import DeploymentService
from repro.core.services.elicitation import ElicitationService
from repro.core.services.envelope import ENVELOPE_VERSION, ArtifactEnvelope
from repro.core.services.integration import IntegrationService
from repro.core.services.interpretation import InterpretationService
from repro.core.services.reports import ChangeReport, DesignStatus
from repro.core.services.session import DesignSession

__all__ = [
    "ArtifactBus",
    "ArtifactEnvelope",
    "ChangeReport",
    "DesignSession",
    "DesignStatus",
    "DeploymentService",
    "ENVELOPE_VERSION",
    "ElicitationService",
    "IntegrationService",
    "InterpretationService",
]
