"""The Requirements Interpreter facade.

Wires mapper -> MD generation -> ETL generation and validates both
outputs before releasing them ("Quarry automates the process of
validating each requirement with regard to the MD integrity constraints
and its translation into MD schema and ETL process designs", §1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.interpreter.etl_generation import EtlGenerator
from repro.core.interpreter.mapper import RequirementMapper
from repro.core.interpreter.md_generation import MDGenerator
from repro.core.requirements.model import InformationRequirement
from repro.errors import InterpretationError
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.propagation import propagate
from repro.mdmodel import constraints
from repro.mdmodel.model import MDSchema
from repro.ontology.model import Ontology
from repro.sources.mappings import SourceMappings
from repro.sources.schema import SourceSchema


@dataclass
class PartialDesign:
    """A partial design for one requirement.

    Usually the interpreter's output; ``mapping`` is ``None`` when the
    partial design came from an external design tool (§2.2 allows
    plugging those in, assuming sound designs that satisfy the
    requirement — which :meth:`repro.core.quarry.Quarry.add_partial_design`
    re-checks anyway).

    ``trees`` holds the artefact's XML→JSON trees, keyed ``xrq``,
    ``xmd`` and ``xlm``: encoded once (the requirement by elicitation,
    the design by interpretation) and then shared by the bus payload,
    the repository documents and every later save, so they must never
    be mutated in place.  A bare interpreter result carries none; the
    interpretation service attaches them.
    """

    requirement: InformationRequirement
    mapping: "RequirementMapping | None"
    md_schema: MDSchema
    etl_flow: EtlFlow
    trees: Dict[str, dict] = field(
        default_factory=dict, compare=False, repr=False
    )


class Interpreter:
    """Translates information requirements into partial designs."""

    def __init__(
        self,
        ontology: Ontology,
        schema: SourceSchema,
        mappings: SourceMappings,
        complement: bool = True,
        scd_policies: Optional[Dict[str, object]] = None,
        scd_effective_date: str = "1970-01-01",
    ) -> None:
        problems = mappings.validate(ontology, schema)
        if problems:
            raise InterpretationError(
                "source mappings are inconsistent: " + "; ".join(problems)
            )
        self._ontology = ontology
        self._schema = schema
        self._mappings = mappings
        self._mapper = RequirementMapper(ontology)
        self._md_generator = MDGenerator(
            ontology,
            mappings,
            complement=complement,
            scd_policies=scd_policies,
        )
        self._etl_generator = EtlGenerator(
            ontology, schema, mappings, scd_effective_date=scd_effective_date
        )

    @property
    def scd_policies(self):
        """The MD generator's concept -> SCD policy map (mutable)."""
        return self._md_generator.scd_policies

    def interpret(self, requirement: InformationRequirement) -> PartialDesign:
        """Produce validated partial MD + ETL designs for a requirement.

        Raises :class:`InterpretationError` when the requirement cannot
        be grounded, and propagates MD/ETL validation errors when a
        generated design would be unsound (which would indicate a bug —
        the generators are constructive).
        """
        mapping = self._mapper.map(requirement)
        md_schema = self._md_generator.generate(mapping)
        constraints.check(md_schema)
        etl_flow = self._etl_generator.generate(mapping, md_schema)
        etl_flow.check()
        propagate(etl_flow, self._schema)
        return PartialDesign(
            requirement=requirement,
            mapping=mapping,
            md_schema=md_schema,
            etl_flow=etl_flow,
        )
