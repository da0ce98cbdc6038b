"""Tests: assembling requirements from accepted suggestions, and the
xRQ ingestion path on ``Quarry``."""

import pytest

from repro import Quarry
from repro.core.requirements import Elicitor
from repro.errors import RequirementError, UnknownPropertyError
from repro.sources import tpch
from repro.xformats import xrq

from .conftest import build_revenue_requirement


@pytest.fixture(scope="module")
def elicitor():
    return Elicitor(tpch.ontology())


class TestDraftRequirement:
    def test_defaults_take_top_suggestions(self, elicitor):
        requirement = elicitor.draft_requirement("D1", "Lineitem").build()
        assert requirement.measures  # top measure accepted
        assert requirement.dimensions  # top dimension accepted
        requirement.check(tpch.ontology())

    def test_accepted_lists_respected(self, elicitor):
        requirement = (
            elicitor.draft_requirement(
                "D2",
                "Lineitem",
                accept_measures=["Lineitem_l_quantity"],
                accept_dimensions=["Part", "Nation"],
            )
            .where("Nation_n_name = 'SPAIN'")
            .build()
        )
        assert requirement.measures[0].expression == "Lineitem_l_quantity"
        atoms = requirement.dimension_properties()
        assert atoms == ["Part_p_name", "Nation_n_name"]

    def test_attribute_accepted_directly(self, elicitor):
        requirement = elicitor.draft_requirement(
            "D3",
            "Lineitem",
            accept_measures=["Lineitem_l_tax"],
            accept_dimensions=["Part_p_brand"],
        ).build()
        assert requirement.dimension_properties() == ["Part_p_brand"]

    def test_drafted_requirement_interprets_end_to_end(self, elicitor):
        from repro.core.interpreter import Interpreter

        requirement = elicitor.draft_requirement(
            "D4",
            "Lineitem",
            accept_measures=["Lineitem_l_extendedprice"],
            accept_dimensions=["Supplier"],
        ).build()
        interpreter = Interpreter(
            tpch.ontology(), tpch.schema(), tpch.mappings()
        )
        design = interpreter.interpret(requirement)
        assert design.md_schema.has_dimension("Supplier")

    def test_unknown_measure_rejected(self, elicitor):
        with pytest.raises(UnknownPropertyError):
            elicitor.draft_requirement(
                "D5", "Lineitem", accept_measures=["Nope"]
            )

    def test_dimension_without_attributes_rejected(self):
        from repro.ontology import OntologyBuilder
        from repro.expressions import ScalarType

        bare = (
            OntologyBuilder("bare")
            .concept("Thing")
            .concept("Evt")
            .attribute("Evt_v", "Evt", ScalarType.DECIMAL)
            .relationship("Evt_thing", "Evt", "Thing", "N-1")
            .build()
        )
        elicitor = Elicitor(bare)
        with pytest.raises(RequirementError):
            elicitor.draft_requirement(
                "D6", "Evt", accept_dimensions=["Thing"]
            )


class TestXrqIngestion:
    def test_add_requirement_from_xrq_text(self):
        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        text = xrq.dumps(build_revenue_requirement())
        report = quarry.add_requirement_xrq(text)
        assert report.requirement_id == "IR1"
        md, __ = quarry.unified_design()
        assert md.has_fact("fact_table_revenue")

    def test_malformed_xrq_rejected(self):
        from repro.errors import XrqFormatError

        quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
        with pytest.raises(XrqFormatError):
            quarry.add_requirement_xrq("<garbage/>")
