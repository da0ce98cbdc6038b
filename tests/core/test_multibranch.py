"""Tests for multi-branch dimension hierarchies and ``Quarry`` options.

A synthetic healthcare domain where a concept has *two* outgoing to-one
chains (Visit -> Doctor -> Department, Visit -> Doctor is linear, but
Patient -> City -> Country and Patient -> InsurancePlan fork), so the
complement stage must produce multiple hierarchies and the ETL dimension
branch must join both chains into one denormalised table.
"""

import pytest

from repro import Quarry, RequirementBuilder
from repro.core.interpreter import Interpreter
from repro.engine import Database, Executor
from repro.expressions import ScalarType
from repro.ontology import OntologyBuilder
from repro.sources.mappings import SourceMappings
from repro.sources.schema import ForeignKey, SourceSchema, make_table

INT = ScalarType.INTEGER
STR = ScalarType.STRING
DEC = ScalarType.DECIMAL


def clinic_ontology():
    return (
        OntologyBuilder("clinic")
        .concept("Country")
        .concept("City")
        .concept("Plan")
        .concept("Patient")
        .concept("Visit")
        .attribute("Country_country_name", "Country", STR)
        .attribute("City_city_name", "City", STR)
        .attribute("Plan_plan_name", "Plan", STR)
        .attribute("Patient_patient_name", "Patient", STR)
        .attribute("Visit_fee", "Visit", DEC)
        .relationship("City_country", "City", "Country", "N-1")
        .relationship("Patient_city", "Patient", "City", "N-1")
        .relationship("Patient_plan", "Patient", "Plan", "N-1")
        .relationship("Visit_patient", "Visit", "Patient", "N-1")
        .build()
    )


def clinic_schema():
    schema = SourceSchema(name="clinic")
    schema.add_table(make_table(
        "country", [("country_id", INT), ("country_name", STR)],
        primary_key=["country_id"],
    ))
    schema.add_table(make_table(
        "city",
        [("city_id", INT), ("city_name", STR), ("country_id", INT)],
        primary_key=["city_id"],
        foreign_keys=[ForeignKey(("country_id",), "country", ("country_id",))],
    ))
    schema.add_table(make_table(
        "plan", [("plan_id", INT), ("plan_name", STR)],
        primary_key=["plan_id"],
    ))
    schema.add_table(make_table(
        "patient",
        [("patient_id", INT), ("patient_name", STR), ("city_id", INT),
         ("plan_id", INT)],
        primary_key=["patient_id"],
        foreign_keys=[
            ForeignKey(("city_id",), "city", ("city_id",)),
            ForeignKey(("plan_id",), "plan", ("plan_id",)),
        ],
    ))
    schema.add_table(make_table(
        "visit",
        [("visit_id", INT), ("patient_id", INT), ("fee", DEC)],
        primary_key=["visit_id"],
        foreign_keys=[ForeignKey(("patient_id",), "patient", ("patient_id",))],
    ))
    schema.validate()
    return schema


def clinic_mappings():
    mappings = SourceMappings(ontology_name="clinic", source_name="clinic")
    mappings.map_concept("Country", "country", ("country_id",))
    mappings.map_concept("City", "city", ("city_id",))
    mappings.map_concept("Plan", "plan", ("plan_id",))
    mappings.map_concept("Patient", "patient", ("patient_id",))
    mappings.map_concept("Visit", "visit", ("visit_id",))
    for prop, column in [
        ("Country_country_name", "country_name"),
        ("City_city_name", "city_name"),
        ("Plan_plan_name", "plan_name"),
        ("Patient_patient_name", "patient_name"),
        ("Visit_fee", "fee"),
    ]:
        mappings.map_property(prop, column)
    return mappings


def clinic_data():
    return {
        "country": [
            {"country_id": 1, "country_name": "Spain"},
            {"country_id": 2, "country_name": "France"},
        ],
        "city": [
            {"city_id": 1, "city_name": "Barcelona", "country_id": 1},
            {"city_id": 2, "city_name": "Paris", "country_id": 2},
        ],
        "plan": [
            {"plan_id": 1, "plan_name": "Basic"},
            {"plan_id": 2, "plan_name": "Premium"},
        ],
        "patient": [
            {"patient_id": 1, "patient_name": "Ann", "city_id": 1, "plan_id": 1},
            {"patient_id": 2, "patient_name": "Bob", "city_id": 2, "plan_id": 2},
            {"patient_id": 3, "patient_name": "Cat", "city_id": 1, "plan_id": 2},
        ],
        "visit": [
            {"visit_id": 1, "patient_id": 1, "fee": 50.0},
            {"visit_id": 2, "patient_id": 1, "fee": 70.0},
            {"visit_id": 3, "patient_id": 2, "fee": 90.0},
            {"visit_id": 4, "patient_id": 3, "fee": 30.0},
        ],
    }


def fee_requirement():
    return (
        RequirementBuilder("V1", "total fee per patient")
        .measure("total_fee", "Visit_fee", "SUM")
        .per("Patient_patient_name")
        .build()
    )


class TestMultiBranchComplement:
    @pytest.fixture(scope="class")
    def design(self):
        interpreter = Interpreter(
            clinic_ontology(), clinic_schema(), clinic_mappings()
        )
        return interpreter.interpret(fee_requirement())

    def test_patient_dimension_has_two_hierarchies(self, design):
        dimension = design.md_schema.dimension("Patient")
        assert set(dimension.levels) == {"Patient", "City", "Country", "Plan"}
        assert len(dimension.hierarchies) == 2
        paths = {tuple(h.levels) for h in dimension.hierarchies}
        assert ("Patient", "City", "Country") in paths
        assert ("Patient", "Plan") in paths

    def test_single_dimension_branch_joins_both_chains(self, design):
        flow = design.etl_flow
        joins = [
            name for name in flow.node_names()
            if name.startswith("JOIN_dim_Patient")
        ]
        # city, country and plan all joined into one branch.
        assert len(joins) == 3
        loaders = [n for n in flow.nodes() if n.kind == "Loader"]
        assert {l.table for l in loaders} == {
            "fact_table_total_fee", "dim_Patient",
        }

    def test_executes_and_denormalises_both_branches(self, design):
        database = Database()
        database.load_source(clinic_schema(), clinic_data())
        Executor(database).execute(design.etl_flow)
        rows = database.scan("dim_Patient").rows
        assert {
            (r["patient_name"], r["city_name"], r["country_name"], r["plan_name"])
            for r in rows
        } == {
            ("Ann", "Barcelona", "Spain", "Basic"),
            ("Bob", "Paris", "France", "Premium"),
            ("Cat", "Barcelona", "Spain", "Premium"),
        }
        facts = {
            row["patient_name"]: row["total_fee"]
            for row in database.scan("fact_table_total_fee").rows
        }
        assert facts == {"Ann": 120.0, "Bob": 90.0, "Cat": 30.0}


class TestFacadeOptions:
    def test_quarry_on_custom_domain(self):
        quarry = Quarry(clinic_ontology(), clinic_schema(), clinic_mappings())
        quarry.add_requirement(fee_requirement())
        database = Database()
        database.load_source(clinic_schema(), clinic_data())
        result = quarry.deploy("native", source_database=database)
        assert result.stats.loaded["fact_table_total_fee"] == 3

    def test_complement_off_gives_flat_dimension(self):
        quarry = Quarry(
            clinic_ontology(), clinic_schema(), clinic_mappings(),
            complement=False,
        )
        quarry.add_requirement(fee_requirement())
        md, __ = quarry.unified_design()
        assert set(md.dimension("Patient").levels) == {"Patient"}

    def test_align_off_still_integrates(self):
        quarry = Quarry(
            clinic_ontology(), clinic_schema(), clinic_mappings(),
            align_etl=False,
        )
        quarry.add_requirement(fee_requirement())
        second = (
            RequirementBuilder("V2", "avg fee per plan")
            .measure("avg_fee", "Visit_fee", "AVERAGE")
            .per("Plan_plan_name")
            .build()
        )
        quarry.add_requirement(second)
        assert quarry.satisfiability_problems() == []

    def test_custom_md_weights_flow_through(self):
        from repro.mdmodel.complexity import ComplexityWeights

        quarry = Quarry(
            clinic_ontology(), clinic_schema(), clinic_mappings(),
            md_weights=ComplexityWeights(fact=1, measure=1, dimension=1,
                                         level=1, attribute=1, hierarchy=1,
                                         link=1),
        )
        quarry.add_requirement(fee_requirement())
        status = quarry.status()
        # unit weights: 1 fact + 1 measure + 1 link + 1 dim + 4 levels
        # + 4 attributes + 2 hierarchies = 14
        assert status.complexity == 14
