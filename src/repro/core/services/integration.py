"""The Design Integration service.

Consumes partial-design envelopes from the ``partials`` topic, folds
each into the session's unified design (MD integration + ETL
consolidation, §2.3) and owns everything about that fold: the
requirement order, the per-position checkpoints that make incremental
change/remove sub-linear, the ``integration_counts`` observable, and
the satisfiability validation of the unified design.

State is persisted through the session-scoped metadata repository
once per committed operation (:meth:`IntegrationService.transaction`)
— requirements, partial designs, unified design, fold checkpoints and
insertion order — so a reloaded session resumes incrementally instead
of re-integrating from scratch.  Each commit is announced as a
``design.committed`` envelope on the ``unified`` topic.

The service also bounds the bus log.  It indexes every design event as
it is logged by the slot it fills in a compacted log (:data:`_SLOTS`):
for each live requirement its newest requirement event, the
``partial.created`` that placed it in the fold order and the newest
``partial.replaced`` after it, plus the newest ``design.committed``.
An event pushed out of its slot is superseded.  After a transaction
commits, and never inside one, the superseded events are deleted once
they outnumber the live ones, so the design events in the log stop
growing with the number of design changes while replay and a reloaded
bus still find all they need.  The ``evolution`` and ``deployments``
audit topics carry no design trees and stay whole: they grow by one
event per evolution or deploy.

The service encodes each unified fold snapshot into its xMD/xLM trees
exactly once, when the fold step produces it, and keeps the trees with
the checkpoint: the checkpoint document and the ``current`` unified
design share them, and restoring a checkpoint encodes nothing.  A fold
step's xMD tree shares every ``<fact>`` and ``<dimension>`` subtree the
step did not change with the checkpoint it folds from.
Requirement and partial-design documents store the trees that arrived
in the partial's envelope.  The checkpoint also keeps the unified
flow's cost, so the next fold step prices only what it builds.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.integrator import (
    EtlConsolidation,
    EtlIntegrator,
    MDIntegration,
    MDIntegrator,
)
from repro.core.interpreter import PartialDesign
from repro.core.requirements.model import InformationRequirement
from repro.core.services import elicitation as _elicitation
from repro.core.services import interpretation as _interpretation
from repro.core.services.bus import ArtifactBus
from repro.core.services.envelope import ArtifactEnvelope
from repro.errors import IntegrationError, UnknownRequirementError
from repro.etlmodel.cost import CostModel
from repro.etlmodel.flow import EtlFlow
from repro.mdmodel.complexity import ComplexityWeights, DEFAULT_WEIGHTS
from repro.mdmodel.model import MDSchema
from repro.repository.metadata import decode_design
from repro.xformats import xlm, xmd

TOPIC_UNIFIED = "unified"

KIND_COMMITTED = "design.committed"

#: What each design event does to the compacted log: the slots of its
#: requirement (``payload["requirement"]``) it empties, and the slot it
#: fills, or ``None`` when it is superseded as soon as it is logged.
_SLOTS = {
    _elicitation.KIND_ADDED: (("requirement",), "requirement"),
    _elicitation.KIND_EXTERNAL: (("requirement",), "requirement"),
    _interpretation.KIND_CREATED: (("created", "replaced"), "created"),
    _interpretation.KIND_REPLACED: (("replaced",), "replaced"),
    _interpretation.KIND_REMOVED: (
        ("requirement", "created", "replaced"),
        None,
    ),
    KIND_COMMITTED: (("committed",), "committed"),
}


class _Snapshot(NamedTuple):
    """One unified design state, its xMD/xLM trees and its ETL cost.

    ``cost_unified`` is the fold's estimate of ``etl_flow``, or
    ``None`` for a checkpoint restored from the store.
    """

    md_schema: MDSchema
    etl_flow: EtlFlow
    xmd_tree: dict
    xlm_tree: dict
    cost_unified: Optional[float]


def _snapshot(
    md_schema: MDSchema,
    etl_flow: EtlFlow,
    cost_unified: Optional[float],
    base: Optional[_Snapshot] = None,
) -> _Snapshot:
    """A unified design state, encoded once.

    ``base`` is the checkpoint the fold step started from: the xMD tree
    takes from it every ``<fact>`` and ``<dimension>`` subtree the step
    did not change.  A checkpoint restored from the store
    (``cost_unified`` is ``None``) shares nothing, because its trees
    were read back, not written by :func:`xmd.to_tree`.
    """
    previous = None
    if base is not None and base.cost_unified is not None:
        previous = (base.md_schema, base.xmd_tree)
    return _Snapshot(
        md_schema,
        etl_flow,
        xmd.to_tree(md_schema, previous),
        xlm.to_tree(etl_flow),
        cost_unified,
    )


def retarget_loaders(flow: EtlFlow, md_result: MDIntegration) -> EtlFlow:
    """Follow the MD integrator's renames/merges on the ETL side.

    When a partial fact merged into (or was renamed to) a differently
    named unified fact, or a partial dimension merged into another, the
    partial flow's loaders must target the *unified* table names before
    consolidation.  Returns a rewritten copy (or the input flow when no
    rename applies).
    """
    from repro.etlmodel.ops import Loader

    renames = {}
    for decision in md_result.decisions:
        if decision.partial_element == decision.unified_element:
            continue
        if decision.kind == "fact":
            renames[decision.partial_element] = decision.unified_element
        else:
            renames[f"dim_{decision.partial_element}"] = (
                f"dim_{decision.unified_element}"
            )
    if not renames:
        return flow
    rewritten = flow.copy()
    for name in rewritten.node_names():
        operation = rewritten.node(name)
        if isinstance(operation, Loader) and operation.table in renames:
            rewritten.replace_node(
                name,
                Loader(
                    name,
                    table=renames[operation.table],
                    mode=operation.mode,
                ),
            )
    return rewritten


class IntegrationService:
    """Folds partial designs into the session's unified design."""

    name = "integration"

    def __init__(
        self,
        repository,
        bus: ArtifactBus,
        md_weights: ComplexityWeights = DEFAULT_WEIGHTS,
        cost_model: Optional[CostModel] = None,
        align_etl: bool = True,
        row_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self._repository = repository
        self._bus = bus
        self._md_weights = md_weights
        self._md_integrator = MDIntegrator(weights=md_weights)
        self._cost_model = cost_model if cost_model is not None else CostModel()
        self._etl_integrator = EtlIntegrator(
            cost_model=self._cost_model, align=align_etl
        )
        self._row_counts = row_counts
        self._partials: Dict[str, PartialDesign] = {}
        self._order: List[str] = []
        # The design before any fold step; integrate()/consolidate()
        # copy their inputs, so it is never mutated and is reused
        # whenever the fold restarts from scratch.  An empty flow costs
        # nothing.
        self._empty = _snapshot(
            MDSchema(name="unified"), EtlFlow(name="unified"), 0.0
        )
        self._unified = self._empty
        # Unified design after each commit, aligned with self._order:
        # _checkpoints[i] is the state after integrating _order[:i + 1].
        # Stored by reference — integrate()/consolidate() copy their
        # inputs, so a committed snapshot is never mutated afterwards.
        self._checkpoints: List[_Snapshot] = []
        #: How many MD / ETL integration calls this service has made —
        #: the observable that incremental changes stay sub-linear.
        self.integration_counts: Dict[str, int] = {"md": 0, "etl": 0}
        #: The (partial, md_result, etl_result) triple of the most
        #: recent commit, collected by the session orchestrator into a
        #: :class:`~repro.core.services.reports.ChangeReport`.
        self._last_commit = None
        #: The fold state the open transaction started from, or ``None``.
        self._start: Optional[tuple] = None
        #: Bus position of the live design event in each (slot,
        #: requirement) pair, and the positions of superseded events.
        self._live: Dict[tuple, int] = {}
        self._superseded: List[int] = []
        for envelope in bus.events():  # a reloaded session's log
            self._observe(envelope)
        for topic in (
            _elicitation.TOPIC_REQUIREMENTS,
            _interpretation.TOPIC_PARTIALS,
            TOPIC_UNIFIED,
        ):
            bus.subscribe(topic, self._observe)
        bus.subscribe(_interpretation.TOPIC_PARTIALS, self._on_partial)

    # -- introspection -----------------------------------------------------

    @property
    def md_weights(self) -> ComplexityWeights:
        return self._md_weights

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def has(self, requirement_id: str) -> bool:
        return requirement_id in self._partials

    def order(self) -> List[str]:
        return list(self._order)

    def unified_design(self) -> Tuple[MDSchema, EtlFlow]:
        """The current unified MD schema and ETL flow."""
        return self._unified.md_schema, self._unified.etl_flow

    def requirements(self) -> List[InformationRequirement]:
        return [
            self._partials[requirement_id].requirement
            for requirement_id in self._order
        ]

    def partial_design(self, requirement_id: str) -> PartialDesign:
        try:
            return self._partials[requirement_id]
        except KeyError:
            raise UnknownRequirementError(requirement_id) from None

    def take_last_commit(self):
        """Pop the (partial, md_result, etl_result) of the latest commit."""
        result, self._last_commit = self._last_commit, None
        return result

    # -- transactions ------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Run one design change as a whole or not at all.

        Fold steps inside it change only memory and the bus log.  On
        success the repository is written once (:meth:`_persist`) and
        the log is compacted if it is due (:meth:`_compact`); on any
        exception the fold state it started from goes back, the bus log
        is rolled back and the exception propagates.  A transaction
        opened inside another one joins it.
        """
        if self._start is not None:
            yield
            return
        self._start = start = (
            list(self._order),
            dict(self._partials),
            list(self._checkpoints),
            self._unified,
        )
        index = dict(self._live), list(self._superseded)
        marker = self._bus.marker()
        try:
            yield
        except BaseException:
            self._order, self._partials, self._checkpoints, self._unified = start
            self._live, self._superseded = index
            self._last_commit = None
            self._bus.rollback(marker)
            raise
        finally:
            self._start = None
        self._persist(start)
        self._compact()

    def _persist(self, start: tuple) -> None:
        """Store what the fold changed since ``start``.

        Fold steps replace partials and checkpoints and never mutate
        them, so identity tells what changed: requirements that left
        the fold are deleted, new or replaced partials are stored, and
        checkpoints are stored from the first one that is not the
        object ``start`` held.
        """
        order, partials, checkpoints, __ = start
        repository = self._repository
        for requirement_id in order:
            if requirement_id not in self._partials:
                repository.delete_requirement(requirement_id)
        for requirement_id in self._order:
            partial = self._partials[requirement_id]
            if partial is not partials.get(requirement_id):
                trees = partial.trees
                repository.save_requirement(partial.requirement, trees["xrq"])
                repository.save_partial_design(
                    requirement_id, trees["xmd"], trees["xlm"]
                )
        first, common = 0, min(len(checkpoints), len(self._checkpoints))
        while first < common and checkpoints[first] is self._checkpoints[first]:
            first += 1
        if first == len(self._checkpoints) == len(checkpoints):
            return  # the fold did not change
        if first < len(checkpoints):
            repository.truncate_checkpoints(first)
        for position in range(first, len(self._checkpoints)):
            snapshot = self._checkpoints[position]
            repository.save_checkpoint(
                position, snapshot.xmd_tree, snapshot.xlm_tree
            )
        repository.save_unified_design(
            "current",
            self._unified.xmd_tree,
            self._unified.xlm_tree,
            list(self._order),
        )
        repository.save_session_state(self._order)

    # -- the bus log -------------------------------------------------------

    def _observe(self, envelope: ArtifactEnvelope) -> None:
        """Index a logged design event by its slot (:data:`_SLOTS`)."""
        slots = _SLOTS.get(envelope.kind)
        if slots is None:
            return  # not a design event: the audit topics stay whole
        vacated, filled = slots
        requirement_id = envelope.payload.get("requirement")
        for slot in vacated:
            position = self._live.pop((slot, requirement_id), None)
            if position is not None:
                self._superseded.append(position)
        if filled is None:
            self._superseded.append(envelope.position)
        else:
            self._live[(filled, requirement_id)] = envelope.position

    def _compact(self) -> None:
        """Delete the superseded design events once they outnumber the
        live ones.

        Counting as events are logged keeps this check O(1) per commit.
        Waiting until the superseded events outnumber the live ones
        batches the deletes, and each event is deleted once; how many
        commits one repository call covers depends on how many live
        design events there are (a session of few requirements whose
        traffic adds and removes them compacts on almost every commit).
        It runs after a transaction commits, never inside one, whose
        rollback needs the events after its marker; the bus keeps each
        topic's newest event.
        """
        if len(self._superseded) > len(self._live):
            self._superseded = self._bus.compact(self._superseded)

    # -- the fold ----------------------------------------------------------

    def _on_partial(self, envelope: ArtifactEnvelope) -> None:
        if envelope.kind != _interpretation.KIND_CREATED:
            return
        partial = envelope.attachment
        if partial is None:  # consumed from a log: decode the payload
            partial = _interpretation.partial_from_trees(envelope.payload)
        md_result, etl_result = self._integrate_partial(partial)
        self._commit(partial, md_result, etl_result)
        self._last_commit = (partial, md_result, etl_result)

    def _integrate_partial(
        self, partial: PartialDesign
    ) -> Tuple[MDIntegration, EtlConsolidation]:
        """Integrate one partial design into the current unified pair."""
        md_result = self._md_integrator.integrate(
            self._unified.md_schema, partial.md_schema
        )
        self.integration_counts["md"] += 1
        etl_flow = retarget_loaders(partial.etl_flow, md_result)
        etl_result = self._etl_integrator.consolidate(
            self._unified.etl_flow,
            etl_flow,
            row_counts=self._row_counts,
            unified_cost=self._unified.cost_unified,
        )
        self.integration_counts["etl"] += 1
        return md_result, etl_result

    def _commit(self, partial, md_result, etl_result) -> None:
        requirement_id = partial.requirement.id
        self._unified = _snapshot(
            md_result.schema,
            etl_result.flow,
            etl_result.cost_unified,
            self._unified,
        )
        self._partials[requirement_id] = partial
        self._order.append(requirement_id)
        self._checkpoints.append(self._unified)
        self.verify_satisfiability()
        self._announce_commit()

    def remove(self, requirement_id: str) -> None:
        """Drop a requirement and re-integrate the ones after it.

        Integration is a deterministic left fold over the requirement
        order, so the design up to the removed requirement is untouched:
        the checkpoint just before it is restored and only the suffix is
        re-integrated.  Removing the most recent requirement therefore
        costs no integration calls at all.
        """
        if requirement_id not in self._partials:
            raise UnknownRequirementError(requirement_id)
        index = self._order.index(requirement_id)
        del self._partials[requirement_id]
        self._order.pop(index)
        self._bus.publish(
            _interpretation.TOPIC_PARTIALS,
            _interpretation.KIND_REMOVED,
            payload={"requirement": requirement_id},
            producer=self.name,
        )
        self.reintegrate_from(index)

    def replace_partial(
        self, requirement_id: str, partial: PartialDesign
    ) -> int:
        """Swap one requirement's partial design *in place*.

        The fold position is kept — evolution operators swap every
        affected partial first, then re-fold once from the minimum
        affected position via :meth:`reintegrate_from`; nothing before
        that checkpoint is recomputed.  Returns the fold position.
        """
        if requirement_id not in self._partials:
            raise UnknownRequirementError(requirement_id)
        index = self._order.index(requirement_id)
        self._partials[requirement_id] = partial
        return index

    def reintegrate_from(self, start: int) -> None:
        """Restore the checkpoint before ``start`` and re-fold the rest."""
        del self._checkpoints[start:]
        self._unified = self._checkpoints[start - 1] if start else self._empty
        for requirement_id in self._order[start:]:
            partial = self._partials[requirement_id]
            md_result, etl_result = self._integrate_partial(partial)
            self._unified = _snapshot(
                md_result.schema,
                etl_result.flow,
                etl_result.cost_unified,
                self._unified,
            )
            self._checkpoints.append(self._unified)
        self.verify_satisfiability()
        self._announce_commit()

    def _announce_commit(self) -> None:
        self._bus.publish(
            TOPIC_UNIFIED,
            KIND_COMMITTED,
            payload={
                "requirements": list(self._order),
                "facts": sorted(self._unified.md_schema.facts),
                "dimensions": sorted(self._unified.md_schema.dimensions),
                "etl_operations": len(self._unified.etl_flow),
                "integration_counts": dict(self.integration_counts),
            },
            producer=self.name,
        )

    # -- validation --------------------------------------------------------

    def verify_satisfiability(self) -> None:
        """Every requirement processed so far must still be answerable."""
        problems = self.satisfiability_problems()
        if problems:
            raise IntegrationError(
                "unified design no longer satisfies all requirements: "
                + "; ".join(problems)
            )

    def satisfiability_problems(self) -> List[str]:
        """Structural satisfiability check of the unified design."""
        problems: List[str] = []
        level_properties = {
            attribute.property
            for __, level in self._unified.md_schema.iter_levels()
            for attribute in level.attributes
            if attribute.property is not None
        }
        for requirement_id in self._order:
            requirement = self._partials[requirement_id].requirement
            fact = self._find_serving_fact(requirement)
            if fact is None:
                problems.append(
                    f"{requirement_id}: no fact carries its measures"
                )
                continue
            for dimension in requirement.dimensions:
                if dimension.property not in level_properties:
                    problems.append(
                        f"{requirement_id}: dimension atom "
                        f"{dimension.property!r} not in any level"
                    )
            if requirement_id not in self._unified.etl_flow.requirements:
                problems.append(
                    f"{requirement_id}: unified ETL does not cover it"
                )
        return problems

    def _find_serving_fact(self, requirement):
        for fact in self._unified.md_schema.facts.values():
            if all(
                measure.name in fact.measures
                and fact.measures[measure.name].expression == measure.expression
                for measure in requirement.measures
            ):
                return fact
        return None

    # -- session resume ----------------------------------------------------

    def restore_from_repository(self) -> bool:
        """Resume the fold state persisted by a previous session.

        Restores the insertion order, every partial design, every fold
        checkpoint and the unified pair — without a single integration
        call, so ``integration_counts`` stays zero and later changes
        remain incremental.  Returns ``False`` (leaving the service
        empty) when the store predates persisted session state; the
        caller then falls back to re-adding requirements.
        """
        repository = self._repository
        state = repository.load_session_state()
        if state is None:
            return False
        order = list(state.get("order", []))
        if repository.checkpoint_count() != len(order):
            return False  # half-written legacy store: re-add instead
        try:
            partials = {}
            for requirement_id in order:
                xmd_tree, xlm_tree = repository.partial_design_trees(
                    requirement_id
                )
                partials[requirement_id] = _interpretation.partial_from_trees(
                    {
                        "xrq": repository.requirement_tree(requirement_id),
                        "xmd": xmd_tree,
                        "xlm": xlm_tree,
                    }
                )
            checkpoints = []
            for position in range(len(order)):
                xmd_tree, xlm_tree = repository.checkpoint_trees(position)
                checkpoints.append(
                    _Snapshot(
                        *decode_design(xmd_tree, xlm_tree),
                        xmd_tree,
                        xlm_tree,
                        None,
                    )
                )
        except Exception:
            return False  # damaged store: the legacy path re-derives
        self._partials = partials
        self._order = order
        self._checkpoints = checkpoints
        if checkpoints:
            self._unified = checkpoints[-1]
        self.verify_satisfiability()
        return True
