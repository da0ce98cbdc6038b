"""Unit tests for the xMD format."""

import copy
from dataclasses import replace

import pytest

from repro.errors import XmdFormatError
from repro.mdmodel.model import FactDimensionLink, SCDPolicy
from repro.xformats import xmd

from tests.mdmodel.conftest import (
    make_part_dimension,
    make_revenue_fact,
    make_supplier_dimension,
)
from repro.mdmodel import MDSchema


def revenue_star():
    schema = MDSchema(name="demo")
    schema.add_dimension(make_part_dimension())
    schema.add_dimension(make_supplier_dimension())
    schema.add_fact(make_revenue_fact())
    return schema


class TestSerialisation:
    def test_figure3_shape(self):
        text = xmd.dumps(revenue_star())
        assert "<MDschema" in text
        assert "<facts>" in text
        assert "<name>fact_table_revenue</name>" in text
        assert "<dimensions>" in text
        assert "<name>Part</name>" in text

    def test_roundtrip_preserves_everything(self):
        schema = revenue_star()
        parsed = xmd.loads(xmd.dumps(schema))
        assert parsed.name == schema.name
        assert set(parsed.facts) == set(schema.facts)
        assert set(parsed.dimensions) == set(schema.dimensions)
        fact = parsed.fact("fact_table_revenue")
        original = schema.fact("fact_table_revenue")
        assert fact.concept == original.concept
        assert fact.requirements == original.requirements
        assert fact.links == original.links
        measure = fact.measure("revenue")
        assert measure.expression == original.measure("revenue").expression
        assert measure.aggregation == original.measure("revenue").aggregation
        assert measure.additivity == original.measure("revenue").additivity
        supplier = parsed.dimension("Supplier")
        assert set(supplier.levels) == {"Supplier", "Nation", "Region"}
        assert supplier.hierarchies[0].levels == ["Supplier", "Nation", "Region"]
        level = supplier.level("Nation")
        assert level.concept == "Nation"
        assert level.attributes[0].property == "Nation_n_name"

    def test_roundtrip_is_stable(self):
        text = xmd.dumps(revenue_star())
        assert xmd.dumps(xmd.loads(text)) == text

    def test_validation_survives_roundtrip(self):
        from repro.mdmodel.constraints import is_sound

        parsed = xmd.loads(xmd.dumps(revenue_star()))
        assert is_sound(parsed)


class TestParsingErrors:
    def test_not_xml(self):
        with pytest.raises(XmdFormatError):
            xmd.loads("nope")

    def test_wrong_root(self):
        with pytest.raises(XmdFormatError):
            xmd.loads("<cube/>")

    def test_missing_name_attribute(self):
        with pytest.raises(XmdFormatError):
            xmd.loads("<MDschema/>")

    def test_bad_scalar_type(self):
        text = (
            '<MDschema name="s"><dimensions><dimension><name>D</name>'
            "<levels><level><name>L</name><attributes><attribute>"
            "<name>a</name><type>blob</type></attribute></attributes>"
            "</level></levels><hierarchies/></dimension></dimensions>"
            "</MDschema>"
        )
        with pytest.raises(XmdFormatError):
            xmd.loads(text)

    def test_bad_additivity(self):
        text = (
            '<MDschema name="s"><facts><fact><name>F</name><measures>'
            "<measure><name>m</name><expression>x</expression>"
            "<type>decimal</type><aggregation>SUM</aggregation>"
            "<additivity>sometimes</additivity></measure></measures>"
            "<links/></fact></facts></MDschema>"
        )
        with pytest.raises(XmdFormatError):
            xmd.loads(text)

    def test_bad_aggregation(self):
        text = (
            '<MDschema name="s"><facts><fact><name>F</name><measures>'
            "<measure><name>m</name><expression>x</expression>"
            "<type>decimal</type><aggregation>MEDIAN</aggregation>"
            "<additivity>additive</additivity></measure></measures>"
            "<links/></fact></facts></MDschema>"
        )
        with pytest.raises(XmdFormatError):
            xmd.loads(text)

    def test_empty_schema_parses(self):
        parsed = xmd.loads('<MDschema name="empty"/>')
        assert parsed.name == "empty"
        assert not parsed.facts and not parsed.dimensions


# ---------------------------------------------------------------------------
# Subtree sharing: to_tree(schema, previous) == to_tree(schema)
# ---------------------------------------------------------------------------


def _facts(schema):
    return list(schema.facts.values())


def _measures(schema):
    return [m for fact in schema.facts.values() for m in fact.measures.values()]


def _dimensions(schema):
    return list(schema.dimensions.values())


def _levels(schema):
    return [level for __, level in schema.iter_levels()]


def _hierarchies(schema):
    return [h for dimension in schema.dimensions.values() for h in dimension.hierarchies]


def _other(member):
    """The next member of ``member``'s enum."""
    members = list(type(member))
    return members[(members.index(member) + 1) % len(members)]


def _text(value):
    return "changed" if value is None else value + "2"


def _set(field, change):
    return lambda element: setattr(element, field, change(getattr(element, field)))


def _attributes(field, change):
    return lambda level: setattr(
        level,
        "attributes",
        [
            replace(attribute, **{field: change(getattr(attribute, field))})
            for attribute in level.attributes
        ],
    )


#: Every field the xMD writer emits for a fact or a dimension, each as
#: (the elements that carry it, a change of it in one element).
ONE_FIELD_MUTATIONS = {
    "fact name": (_facts, _set("name", _text)),
    "fact concept": (_facts, _set("concept", _text)),
    "fact grain": (_facts, lambda fact: fact.grain.append("p_size")),
    "fact slicers": (_facts, lambda fact: fact.slicers.append("Part_p_size > 3")),
    "fact requirements": (_facts, lambda fact: fact.requirements.add("IR9")),
    "measure name": (_measures, _set("name", _text)),
    "measure expression": (_measures, _set("expression", _text)),
    "measure type": (_measures, _set("type", _other)),
    "measure aggregation": (_measures, _set("aggregation", _other)),
    "measure additivity": (_measures, _set("additivity", _other)),
    "measure requirements": (_measures, lambda measure: measure.requirements.add("IR9")),
    "fact links": (
        _facts,
        lambda fact: fact.links.append(FactDimensionLink("Customer", "Customer")),
    ),
    "dimension name": (_dimensions, _set("name", _text)),
    "dimension requirements": (_dimensions, lambda dimension: dimension.requirements.add("IR9")),
    "level name": (_levels, _set("name", _text)),
    "level concept": (_levels, _set("concept", _text)),
    "level key": (_levels, _set("key", _text)),
    "level SCD policy": (_levels, _set("scd_policy", _other)),
    "attribute name": (_levels, _attributes("name", _text)),
    "attribute type": (_levels, _attributes("type", _other)),
    "attribute property": (_levels, _attributes("property", _text)),
    "hierarchy name": (_hierarchies, _set("name", _text)),
    "hierarchy levels": (_hierarchies, lambda hierarchy: hierarchy.levels.append("Top")),
}


def mutated(schema, mutation):
    """A copy of ``schema`` with one field changed in every element that
    carries it."""
    changed = copy.deepcopy(schema)
    elements, change = ONE_FIELD_MUTATIONS[mutation]
    for element in elements(changed):
        change(element)
    return changed


def full_star():
    """The revenue star with every optional xMD field present."""
    schema = revenue_star()
    fact = schema.fact("fact_table_revenue")
    fact.grain = ["p_name", "s_name"]
    fact.slicers = ["Nation_n_name = 'FRANCE'"]
    schema.dimension("Part").level("Part").scd_policy = SCDPolicy.TYPE2
    return schema


class TestSubtreeSharing:
    @pytest.mark.parametrize("mutation", sorted(ONE_FIELD_MUTATIONS))
    def test_a_changed_field_is_never_shared(self, mutation):
        original = full_star()
        changed = mutated(original, mutation)
        shared = xmd.to_tree(changed, (original, xmd.to_tree(original)))
        assert shared == xmd.to_tree(changed)
        assert shared != xmd.to_tree(original)

    def test_unchanged_elements_take_the_previous_subtrees(self):
        original = full_star()
        previous = xmd.to_tree(original)
        changed = mutated(original, "fact concept")
        facts, dimensions = xmd.to_tree(changed, (original, previous))["children"]
        previous_facts, previous_dimensions = previous["children"]
        assert all(
            subtree is before
            for subtree, before in zip(
                dimensions["children"], previous_dimensions["children"]
            )
        )
        assert facts["children"][0] is not previous_facts["children"][0]
