"""The Design Deployment service.

Terminal stage of the pipeline (§2.4): takes the session's unified
design, runs the lint gate, hands the design to the
:class:`~repro.core.deployer.Deployer` (a platform generator or the
embedded ``native`` engine), records the produced artifacts in the
metadata repository, and announces every deployment as a
``design.deployed`` envelope on the ``deployments`` topic.
"""

from __future__ import annotations

from typing import Optional

from repro.core.deployer import Deployer, DeploymentResult
from repro.core.services.bus import ArtifactBus
from repro.engine.database import Database
from repro.errors import LintError
from repro.etlmodel.flow import EtlFlow
from repro.mdmodel.model import MDSchema
from repro.ontology.model import Ontology
from repro.sources.schema import SourceSchema

TOPIC_DEPLOYMENTS = "deployments"

KIND_DEPLOYED = "design.deployed"


class DeploymentService:
    """Lints, deploys and records the unified design."""

    name = "deployment"

    def __init__(
        self,
        ontology: Ontology,
        schema: SourceSchema,
        repository,
        bus: ArtifactBus,
    ) -> None:
        self._ontology = ontology
        self._schema = schema
        self._repository = repository
        self._bus = bus
        self._deployer = Deployer(source_schema=schema)

    @property
    def deployer(self) -> Deployer:
        return self._deployer

    # -- static analysis ---------------------------------------------------

    def lint(self, md_schema: MDSchema, etl_flow: EtlFlow, *, disable=(),
             only=None):
        """Lint a unified design: ETL flow plus MD schema.

        Returns a merged :class:`repro.analysis.LintReport`.  The flow
        is linted against the source schema (typed datastores) and the
        MD schema against the domain ontology (to-one reachability).
        """
        from repro.analysis import lint as run_lint

        flow_report = run_lint(
            etl_flow,
            source_schema=self._schema,
            disable=disable,
            only=only,
        )
        md_report = run_lint(
            md_schema,
            ontology=self._ontology,
            disable=disable,
            only=only,
        )
        return flow_report.merged_with(md_report)

    # -- deployment --------------------------------------------------------

    def build(
        self,
        md_schema: MDSchema,
        etl_flow: EtlFlow,
        platform: str,
        source_database: Optional[Database] = None,
        lint_gate: bool = True,
    ) -> DeploymentResult:
        """The slow, pure-compute phase of a deploy.

        Lints (ERROR-severity findings raise
        :class:`repro.errors.LintError` before anything is deployed;
        warnings ride along in the ``lint`` artifact) and runs the
        platform backend.  Touches **neither the repository nor the
        bus** — it is safe to call against a design snapshot *outside*
        the session lock, which is how the HTTP front door keeps
        ``status``/``design`` reads responsive during a long deploy.
        """
        lint_report = None
        if lint_gate:
            lint_report = self.lint(md_schema, etl_flow)
            if not lint_report.ok:
                raise LintError(lint_report.errors)
        result = self._deployer.deploy(
            md_schema,
            etl_flow,
            platform,
            source_database=source_database,
        )
        if lint_report is not None:
            result.artifacts["lint"] = lint_report.render()
        return result

    def record(
        self,
        result: DeploymentResult,
        platform: str,
        lint_gate: bool = True,
    ) -> None:
        """The bookkeeping phase of a deploy: repository + bus announce.

        Fast, but it **must run under the session lock** — bus
        publishes race with the elicitation pipeline's marker/rollback
        machinery, which truncates the log on failed folds.
        """
        self._repository.record_deployment(
            "current", platform, dict(result.artifacts)
        )
        self._bus.publish(
            TOPIC_DEPLOYMENTS,
            KIND_DEPLOYED,
            payload={
                "design": result.design,
                "platform": platform,
                "artifacts": sorted(result.artifacts),
                "lint_gate": lint_gate,
            },
            producer=self.name,
            attachment=result,
        )

    def deploy(
        self,
        md_schema: MDSchema,
        etl_flow: EtlFlow,
        platform: str,
        source_database: Optional[Database] = None,
        lint_gate: bool = True,
    ) -> DeploymentResult:
        """Deploy a unified design; records the artefacts in the repo.

        ``build`` + ``record`` in one call — the shape every embedded
        (non-HTTP) caller wants.
        """
        result = self.build(
            md_schema,
            etl_flow,
            platform,
            source_database=source_database,
            lint_gate=lint_gate,
        )
        self.record(result, platform, lint_gate=lint_gate)
        return result
