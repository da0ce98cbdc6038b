"""Time-and-evolution rules (QRY5xx) over hand-built schemas.

Each rule targets a state the design-evolution operators can produce
(a retype breaking additivity, a merge pulling in a colliding or
reserved attribute name, a split leaving a policy above the base
level), so the fixtures mimic those outcomes directly.
"""

import pytest

from repro.analysis import lint
from repro.errors import LintError
from repro import Quarry
from repro.expressions.types import ScalarType
from repro.mdmodel.model import (
    AggregationFunction,
    Dimension,
    Fact,
    Hierarchy,
    Level,
    LevelAttribute,
    MDSchema,
    Measure,
    SCDPolicy,
)
from repro.sources import tpch

from tests.core.conftest import build_revenue_requirement


def attribute(name, type=ScalarType.STRING):
    return LevelAttribute(name=name, type=type)


def versioned_dimension(name="supplier", policy=SCDPolicy.TYPE2):
    dimension = Dimension(name=name)
    dimension.add_level(
        Level(
            name="base",
            attributes=[attribute("s_name"), attribute("s_phone")],
            scd_policy=policy,
        )
    )
    dimension.add_level(Level(name="nation", attributes=[attribute("n_name")]))
    dimension.add_hierarchy(Hierarchy(name="geo", levels=["base", "nation"]))
    return dimension


def star(dimension):
    schema = MDSchema(name="star")
    schema.add_dimension(dimension)
    fact = Fact(name="sales")
    fact.add_measure(Measure(name="amount", expression="price"))
    fact.link_dimension(dimension.name, "base")
    schema.add_fact(fact)
    return schema


def test_sound_versioned_star_is_clean():
    assert lint(star(versioned_dimension())).codes() == []


class TestQRY501:
    def test_summed_non_numeric_measure_is_an_error(self):
        schema = star(versioned_dimension())
        schema.fact("sales").add_measure(
            Measure(
                name="label",
                expression="name",
                type=ScalarType.STRING,
                aggregation=AggregationFunction.SUM,
            )
        )
        report = lint(schema)
        assert [d.attribute for d in report.by_code("QRY501")] == ["label"]
        assert report.by_code("QRY501")[0].severity.value == "error"

    def test_counted_string_measure_is_fine(self):
        schema = star(versioned_dimension())
        schema.fact("sales").add_measure(
            Measure(
                name="label",
                expression="name",
                type=ScalarType.STRING,
                aggregation=AggregationFunction.COUNT,
            )
        )
        assert not lint(schema).by_code("QRY501")


class TestQRY502:
    def test_versioned_level_without_key(self):
        dimension = versioned_dimension()
        dimension.level("base").key = None
        report = lint(star(dimension))
        diagnostics = report.by_code("QRY502")
        assert [d.attribute for d in diagnostics] == ["base"]
        assert diagnostics[0].severity.value == "error"

    def test_type2_level_with_only_its_key_warns(self):
        dimension = Dimension(name="supplier")
        dimension.add_level(
            Level(
                name="base",
                attributes=[attribute("s_name")],
                scd_policy=SCDPolicy.TYPE2,
            )
        )
        dimension.add_hierarchy(Hierarchy(name="h", levels=["base"]))
        diagnostics = lint(star(dimension)).by_code("QRY502")
        assert len(diagnostics) == 1
        assert diagnostics[0].severity.value == "warning"

    def test_type1_single_attribute_is_fine(self):
        dimension = Dimension(name="supplier")
        dimension.add_level(
            Level(
                name="base",
                attributes=[attribute("s_name")],
                scd_policy=SCDPolicy.TYPE1,
            )
        )
        dimension.add_hierarchy(Hierarchy(name="h", levels=["base"]))
        assert not lint(star(dimension)).by_code("QRY502")


class TestQRY503:
    def test_window_column_shadowing(self):
        dimension = versioned_dimension()
        dimension.level("base").attributes.append(
            attribute("scd_valid_from", ScalarType.DATE)
        )
        diagnostics = lint(star(dimension)).by_code("QRY503")
        assert [d.attribute for d in diagnostics] == ["scd_valid_from"]

    def test_reserved_name_in_unversioned_dimension_is_fine(self):
        dimension = versioned_dimension(policy=SCDPolicy.TYPE0)
        dimension.level("base").attributes.append(
            attribute("scd_valid_from", ScalarType.DATE)
        )
        assert not lint(star(dimension)).by_code("QRY503")


class TestQRY504:
    def test_policy_above_base_level_warns(self):
        dimension = versioned_dimension(policy=SCDPolicy.TYPE0)
        dimension.level("nation").scd_policy = SCDPolicy.TYPE2
        diagnostics = lint(star(dimension)).by_code("QRY504")
        assert [d.attribute for d in diagnostics] == ["nation"]
        assert diagnostics[0].severity.value == "warning"

    def test_policy_at_base_level_is_fine(self):
        assert not lint(star(versioned_dimension())).by_code("QRY504")


class TestQRY505:
    def test_duplicate_attribute_in_versioned_dimension(self):
        dimension = versioned_dimension()
        dimension.level("nation").attributes.append(attribute("s_phone"))
        diagnostics = lint(star(dimension)).by_code("QRY505")
        assert [d.attribute for d in diagnostics] == ["s_phone"]

    def test_duplicate_in_unversioned_dimension_stays_qry406(self):
        dimension = versioned_dimension(policy=SCDPolicy.TYPE0)
        dimension.level("nation").attributes.append(attribute("s_phone"))
        report = lint(star(dimension))
        assert not report.by_code("QRY505")
        assert report.by_code("QRY406")  # the generic duplicate rule


class TestDeployGate:
    def test_qry5xx_error_blocks_deploy(self):
        """An ERROR-severity time rule gates deploy() like any other."""
        quarry = Quarry(
            tpch.ontology(),
            tpch.schema(),
            tpch.mappings(),
            scd_policies={"Supplier": "type2"},
        )
        quarry.add_requirement(build_revenue_requirement("IR1"))
        md_schema, __ = quarry.unified_design()
        # Simulate a bad merge: an attribute shadowing a window column.
        md_schema.dimension("Supplier").level("Supplier").attributes.append(
            attribute("scd_is_current")
        )
        with pytest.raises(LintError) as excinfo:
            quarry.deploy("postgres")
        assert "QRY503" in {d.code for d in excinfo.value.diagnostics}
