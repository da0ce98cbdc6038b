"""Design sessions: one named, isolated design lifecycle per session.

A :class:`DesignSession` wires the four services — elicitation,
interpretation, integration, deployment — onto one synchronous
:class:`~repro.core.services.bus.ArtifactBus` over a session-scoped
view of a (possibly shared) metadata repository.  Many sessions can
share one document store: each gets its own namespaced collections,
its own bus event log and its own fold state, so concurrent sessions
never observe each other's artefacts.

The session is also the *transaction boundary* of the lifecycle: every
design change runs in one integration ``transaction()``, which writes
the repository once on success and puts the fold state and the bus
event log back if any stage raises, so the persisted documents and log
only ever contain committed history.

``Quarry`` is another name for :class:`DesignSession`: the end-to-end
DW design lifecycle of Figure 1.  Typical use::

    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    report = quarry.add_requirement(requirement)     # incremental design
    md, etl = quarry.unified_design()
    result = quarry.deploy("native", source_database=db)

``add_requirement`` / ``change_requirement`` / ``remove_requirement``
implement the demo's "accommodating a DW design to changes" scenario;
after every step the unified design is validated for soundness (MD
integrity constraints) and satisfiability of all requirements met so
far.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.deployer import Deployer, DeploymentResult
from repro.core.integrator import EtlIntegrator, MDIntegrator
from repro.core.interpreter import PartialDesign
from repro.core.requirements import Elicitor
from repro.core.requirements.model import InformationRequirement
from repro.core.requirements.vocabulary import Vocabulary
from repro.core.services import interpretation as _interpretation
from repro.core.services.bus import ArtifactBus
from repro.core.services.deployment import DeploymentService
from repro.core.services.elicitation import ElicitationService
from repro.core.services.evolution import EvolutionReport, EvolutionService
from repro.core.services.integration import (
    IntegrationService,
    retarget_loaders,
)
from repro.core.services.interpretation import InterpretationService
from repro.core.services.reports import ChangeReport, DesignStatus
from repro.engine.database import Database
from repro.errors import (
    DuplicateRequirementError,
    QuarryError,
    UnknownRequirementError,
)
from repro.etlmodel.cost import CostModel
from repro.etlmodel.flow import EtlFlow
from repro.mdmodel.complexity import ComplexityWeights, DEFAULT_WEIGHTS, analyze
from repro.mdmodel.model import MDSchema
from repro.ontology.model import Ontology
from repro.repository.metadata import DEFAULT_SESSION, MetadataRepository
from repro.sources.mappings import SourceMappings
from repro.sources.schema import SourceSchema
from repro.xformats import xrq


class DesignSession:
    """One named design lifecycle over a session-scoped repository."""

    def __init__(
        self,
        ontology: Ontology,
        schema: SourceSchema,
        mappings: SourceMappings,
        repository: Optional[MetadataRepository] = None,
        session: str = DEFAULT_SESSION,
        md_weights: ComplexityWeights = DEFAULT_WEIGHTS,
        cost_model: Optional[CostModel] = None,
        align_etl: bool = True,
        complement: bool = True,
        row_counts: Optional[Dict[str, int]] = None,
        scd_policies: Optional[Dict[str, object]] = None,
        scd_effective_date: str = "1970-01-01",
    ) -> None:
        base = repository if repository is not None else MetadataRepository()
        self._session = session
        self._repository = base.for_session(session)
        base.register_session(session)
        self._repository.save_ontology(ontology)
        self._align_etl = align_etl
        self._row_counts = row_counts
        self._bus = ArtifactBus(self._repository, session)
        self._elicitation = ElicitationService(ontology, self._bus)
        self._interpretation = InterpretationService(
            ontology,
            schema,
            mappings,
            self._bus,
            complement=complement,
            scd_policies=scd_policies,
            scd_effective_date=scd_effective_date,
        )
        self._integration = IntegrationService(
            self._repository,
            self._bus,
            md_weights=md_weights,
            cost_model=cost_model,
            align_etl=align_etl,
            row_counts=row_counts,
        )
        self._deployment = DeploymentService(
            ontology, schema, self._repository, self._bus
        )
        self._evolution = EvolutionService(
            ontology,
            schema,
            mappings,
            self._interpretation,
            self._integration,
            self._bus,
            self._repository,
        )

    # -- component access --------------------------------------------------

    @property
    def session(self) -> str:
        return self._session

    @property
    def repository(self) -> MetadataRepository:
        """The session-scoped metadata repository view."""
        return self._repository

    @property
    def bus(self) -> ArtifactBus:
        return self._bus

    @property
    def elicitation(self) -> ElicitationService:
        return self._elicitation

    @property
    def interpretation(self) -> InterpretationService:
        return self._interpretation

    @property
    def integration(self) -> IntegrationService:
        return self._integration

    @property
    def deployment(self) -> DeploymentService:
        return self._deployment

    @property
    def deployer(self) -> Deployer:
        return self._deployment.deployer

    @property
    def integration_counts(self) -> Dict[str, int]:
        return self._integration.integration_counts

    def elicitor(self) -> Elicitor:
        """The Requirements Elicitor backend over this domain."""
        return self._elicitation.elicitor()

    def vocabulary(self) -> Vocabulary:
        """Business-vocabulary resolution over this domain."""
        return self._elicitation.vocabulary()

    # -- lifecycle ---------------------------------------------------------

    def add_requirement(
        self, requirement: InformationRequirement
    ) -> ChangeReport:
        """Run one new requirement through the full service pipeline."""
        if self._integration.has(requirement.id):
            raise DuplicateRequirementError(requirement.id)
        return self._pipeline(
            lambda: self._elicitation.submit(requirement), action="added"
        )

    def add_requirement_xrq(self, xrq_text: str) -> ChangeReport:
        """Add a requirement delivered as an xRQ document."""
        return self.add_requirement(xrq.loads(xrq_text))

    def add_partial_design(
        self,
        requirement: InformationRequirement,
        md_schema: MDSchema,
        etl_flow: EtlFlow,
    ) -> ChangeReport:
        """Integrate a partial design produced by an *external* tool.

        The interpretation service re-validates the §2.2 soundness
        assumptions on the submitted design instead of generating one.
        """
        if self._integration.has(requirement.id):
            raise DuplicateRequirementError(requirement.id)
        return self._pipeline(
            lambda: self._elicitation.submit_external(
                requirement, md_schema, etl_flow
            ),
            action="added",
        )

    def change_requirement(
        self, requirement: InformationRequirement
    ) -> ChangeReport:
        """Replace an existing requirement and rebuild the design.

        Atomic: the remove and the add run in one transaction, so if
        the replacement fails the design, the repository and the bus
        log stay as they were.
        """
        if not self._integration.has(requirement.id):
            raise UnknownRequirementError(requirement.id)
        with self._integration.transaction():
            self.remove_requirement(requirement.id)
            report = self.add_requirement(requirement)
        return ChangeReport(
            requirement_id=requirement.id,
            action="changed",
            partial=report.partial,
            md_integration=report.md_integration,
            etl_consolidation=report.etl_consolidation,
        )

    def remove_requirement(self, requirement_id: str) -> ChangeReport:
        """Drop a requirement; only the fold suffix is re-integrated."""
        with self._integration.transaction():
            self._integration.remove(requirement_id)
        return ChangeReport(requirement_id=requirement_id, action="removed")

    def rebuild(self) -> None:
        """Re-integrate every partial design from scratch.

        The pre-incremental code path, kept as the reference the
        incremental updates are verified (and benchmarked) against:
        both fold the same requirement order deterministically, so
        their results are identical.
        """
        with self._integration.transaction():
            self._integration.reintegrate_from(0)

    # -- design evolution --------------------------------------------------

    @property
    def evolution(self) -> EvolutionService:
        return self._evolution

    def rename_concept(self, old_id: str, new_id: str) -> EvolutionReport:
        """Rename an ontology concept; affected designs follow."""
        return self._evolution.rename_concept(old_id, new_id)

    def split_concept(
        self,
        concept: str,
        new_concept: str,
        properties,
        relationship: Optional[str] = None,
    ) -> EvolutionReport:
        """Carve a new concept (same source table) out of an existing one."""
        return self._evolution.split_concept(
            concept, new_concept, properties, relationship=relationship
        )

    def merge_concepts(self, source: str, target: str) -> EvolutionReport:
        """Fold one concept into another (same source table)."""
        return self._evolution.merge_concepts(source, target)

    def retype_property(self, property_id: str, new_type) -> EvolutionReport:
        """Change a datatype property's range type."""
        return self._evolution.retype_property(property_id, new_type)

    def _pipeline(self, publish, action: str) -> ChangeReport:
        """Run one elicitation through the bus in one transaction.

        Delivery is synchronous, so by the time ``publish`` returns the
        interpretation and integration services have committed.
        """
        with self._integration.transaction():
            publish()
            commit = self._integration.take_last_commit()
            if commit is None:  # no subscriber committed — nothing to report
                raise QuarryError("pipeline produced no committed design")
        partial, md_result, etl_result = commit
        return ChangeReport(
            requirement_id=partial.requirement.id,
            action=action,
            partial=partial,
            md_integration=md_result,
            etl_consolidation=etl_result,
        )

    # -- views -------------------------------------------------------------

    def unified_design(self) -> Tuple[MDSchema, EtlFlow]:
        """The current unified MD schema and ETL flow."""
        return self._integration.unified_design()

    def requirements(self) -> List[InformationRequirement]:
        return self._integration.requirements()

    def partial_design(self, requirement_id: str) -> PartialDesign:
        return self._integration.partial_design(requirement_id)

    def satisfiability_problems(self) -> List[str]:
        return self._integration.satisfiability_problems()

    def status(self) -> DesignStatus:
        """Summary metrics of the current unified design."""
        unified_md, unified_etl = self._integration.unified_design()
        report = analyze(unified_md, self._integration.md_weights)
        return DesignStatus(
            requirements=self._integration.order(),
            facts=list(unified_md.facts),
            dimensions=list(unified_md.dimensions),
            complexity=report.score,
            etl_operations=len(unified_etl),
            estimated_etl_cost=self._integration.cost_model.total(
                unified_etl, self._row_counts
            ),
        )

    # -- static analysis ---------------------------------------------------

    def lint(self, *, disable=(), only=None):
        """Lint the unified design: ETL flow plus MD schema."""
        unified_md, unified_etl = self._integration.unified_design()
        return self._deployment.lint(
            unified_md, unified_etl, disable=disable, only=only
        )

    # -- deployment --------------------------------------------------------

    def deploy(
        self,
        platform: str,
        source_database: Optional[Database] = None,
        lint_gate: bool = True,
    ) -> DeploymentResult:
        """Deploy the unified design; records the artefacts in the repo."""
        unified_md, unified_etl = self._integration.unified_design()
        return self._deployment.deploy(
            unified_md,
            unified_etl,
            platform,
            source_database=source_database,
            lint_gate=lint_gate,
        )

    # -- persistence and replay --------------------------------------------

    def restore(self) -> bool:
        """Resume the fold state a previous session persisted.

        Returns ``False`` on stores that predate persisted session
        state (the caller falls back to re-adding requirements).
        """
        return self._integration.restore_from_repository()

    def save_to(self, path) -> None:
        """Persist the metadata repository (requirements + designs).

        The whole underlying document store is saved — including the
        fold checkpoints, the session state and the bus event log — so
        ``load_from`` resumes the session *incrementally* instead of
        re-interpreting every requirement.
        """
        self._repository.save_to(path)

    @classmethod
    def load_from(
        cls,
        path,
        schema: SourceSchema,
        mappings: SourceMappings,
        session: str = DEFAULT_SESSION,
        **kwargs,
    ) -> "DesignSession":
        """Resume a design session from a persisted repository.

        The ontology is read back from the repository, and so are its
        mappings once an evolution operator has stored them; the
        ``mappings`` argument serves stores that hold none.  Stores
        written by this version carry the full fold state (partial
        designs, checkpoints, insertion order), which is restored
        directly — zero integration calls, so later changes stay
        incremental.  Legacy stores without session state fall back to
        re-adding the requirements in their stored order.
        """
        repository = MetadataRepository.load_from(path)
        scoped = repository.for_session(session)
        ontology_names = scoped.ontology_names()
        if not ontology_names:
            raise QuarryError("repository holds no ontology")
        ontology = scoped.load_ontology(ontology_names[0])
        stored_mappings = scoped.load_mappings(ontology.name)
        resumed = cls(
            ontology,
            schema,
            stored_mappings if stored_mappings is not None else mappings,
            repository=repository,
            session=session,
            **kwargs,
        )
        if resumed.restore():
            return resumed
        # Legacy store: re-run the pipeline over the stored order.
        if "current" in scoped.unified_design_names():
            __, __, stored_order = scoped.load_unified_design("current")
        else:
            stored_order = []
        for requirement_id in stored_order:
            resumed.add_requirement(scoped.load_requirement(requirement_id))
        return resumed

    def replay_unified_design(self) -> Tuple[MDSchema, EtlFlow]:
        """Re-derive the unified design purely from the bus event log.

        Folds the logged ``partials``-topic envelopes (creations minus
        removals, in publication order) through fresh integrators —
        proof that the event log alone carries the whole design.
        """
        partials: Dict[str, Tuple[MDSchema, EtlFlow]] = {}
        for envelope in self._bus.events(_interpretation.TOPIC_PARTIALS):
            requirement_id = envelope.payload["requirement"]
            if envelope.kind == _interpretation.KIND_CREATED:
                partials.pop(requirement_id, None)
                partials[requirement_id] = (
                    InterpretationService.decode_partial(envelope)
                )
            elif envelope.kind == _interpretation.KIND_REPLACED:
                # Evolution swaps a partial *in place*: overwrite without
                # disturbing the fold position (dict order is kept when
                # assigning to an existing key).
                partials[requirement_id] = (
                    InterpretationService.decode_partial(envelope)
                )
            elif envelope.kind == _interpretation.KIND_REMOVED:
                partials.pop(requirement_id, None)
        md_integrator = MDIntegrator(weights=self._integration.md_weights)
        etl_integrator = EtlIntegrator(
            cost_model=self._integration.cost_model, align=self._align_etl
        )
        unified_md = MDSchema(name="unified")
        unified_etl = EtlFlow(name="unified")
        for partial_md, partial_etl in partials.values():
            md_result = md_integrator.integrate(unified_md, partial_md)
            etl_result = etl_integrator.consolidate(
                unified_etl,
                retarget_loaders(partial_etl, md_result),
                row_counts=self._row_counts,
            )
            unified_md = md_result.schema
            unified_etl = etl_result.flow
        return unified_md, unified_etl


#: The lifecycle's public name (Figure 1's "Quarry").
Quarry = DesignSession
