"""Property-based tests: format round-trips and model algebra.

* random ontologies survive the text serialisation,
* random requirements (over the TPC-H vocabulary) survive xRQ,
* each xRQ/xMD/xLM writer's tree is what parsing its rendering gives,
  and the committed documents re-save byte-identically,
* dimension merge is idempotent and absorbs subsets,
* the ETL cost model behaves monotonically.
"""

import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.expressions import ScalarType

# ---------------------------------------------------------------------------
# Ontology text round-trip
# ---------------------------------------------------------------------------

identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)
labels = st.one_of(st.none(), st.text(alphabet="abc XY\"\\'", min_size=1, max_size=10))
scalar_types = st.sampled_from(list(ScalarType))
multiplicities = st.sampled_from(["1-1", "N-1", "1-N", "N-N"])


@st.composite
def ontologies(draw):
    from repro.ontology import OntologyBuilder

    builder = OntologyBuilder(
        draw(identifiers), description=draw(labels) or ""
    )
    concept_count = draw(st.integers(min_value=1, max_value=6))
    names = []
    used = set()
    for index in range(concept_count):
        name = f"C{index}_{draw(identifiers)}"
        if name in used:
            continue
        used.add(name)
        parent = draw(st.sampled_from(names)) if names and draw(st.booleans()) else None
        builder.concept(name, label=draw(labels), parent=parent)
        names.append(name)
    attribute_count = draw(st.integers(min_value=0, max_value=6))
    for index in range(attribute_count):
        owner = draw(st.sampled_from(names))
        builder.attribute(
            f"A{index}_{draw(identifiers)}",
            owner,
            draw(scalar_types),
            label=draw(labels),
        )
    relationship_count = draw(st.integers(min_value=0, max_value=6))
    for index in range(relationship_count):
        builder.relationship(
            f"R{index}_{draw(identifiers)}",
            draw(st.sampled_from(names)),
            draw(st.sampled_from(names)),
            draw(multiplicities),
            label=draw(labels),
        )
    return builder.build()


class TestOntologyTextRoundTrip:
    @given(ontologies())
    @settings(max_examples=80, deadline=None)
    def test_dumps_loads_identity(self, ontology):
        from repro.ontology import io as ontology_io

        text = ontology_io.dumps(ontology)
        parsed = ontology_io.loads(text)
        assert parsed.size() == ontology.size()
        for concept in ontology.concepts():
            assert parsed.concept(concept.id) == concept
        for prop in ontology.datatype_properties():
            assert parsed.datatype_property(prop.id) == prop
        for prop in ontology.object_properties():
            assert parsed.object_property(prop.id) == prop
        assert ontology_io.dumps(parsed) == text


# ---------------------------------------------------------------------------
# xRQ round-trip over random requirements on the TPC-H vocabulary
# ---------------------------------------------------------------------------

TPCH_NUMERIC = [
    "Lineitem_l_quantity", "Lineitem_l_extendedprice", "Lineitem_l_tax",
    "Partsupp_ps_supplycost", "Part_p_size",
]
TPCH_DESCRIPTIVE = [
    "Part_p_name", "Part_p_brand", "Supplier_s_name", "Nation_n_name",
    "Lineitem_l_shipmode", "Customer_c_mktsegment",
]
AGGREGATIONS = ["SUM", "AVERAGE", "MIN", "MAX", "COUNT"]


@st.composite
def requirements(draw):
    from repro import RequirementBuilder

    # XML 1.0 cannot carry control characters; descriptions are UI text.
    builder = RequirementBuilder(
        f"IR_{draw(st.integers(0, 999))}",
        draw(st.text(alphabet="abcXYZ <>&\"' 09", max_size=15)),
    )
    measure_count = draw(st.integers(min_value=1, max_value=3))
    used = set()
    for index in range(measure_count):
        name = f"m{index}"
        expression = draw(st.sampled_from(TPCH_NUMERIC))
        if draw(st.booleans()):
            expression = (
                f"{expression} * (1 - {draw(st.sampled_from(TPCH_NUMERIC))})"
            )
        builder.measure(name, expression, draw(st.sampled_from(AGGREGATIONS)))
    for prop in draw(
        st.lists(st.sampled_from(TPCH_DESCRIPTIVE), min_size=1, max_size=3,
                 unique=True)
    ):
        builder.per(prop)
    for __ in range(draw(st.integers(0, 2))):
        column = draw(st.sampled_from(TPCH_DESCRIPTIVE))
        value = draw(st.text(alphabet="ABCXYZ' ", min_size=1, max_size=6))
        escaped = value.replace("'", "''")
        builder.where(f"{column} = '{escaped}'")
    return builder.build()


class TestXrqRoundTrip:
    @given(requirements())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_identity(self, requirement):
        from repro.xformats import xrq

        text = xrq.dumps(requirement)
        parsed = xrq.loads(text)
        assert parsed.id == requirement.id
        assert parsed.measures == requirement.measures
        assert parsed.dimensions == requirement.dimensions
        assert parsed.aggregations == requirement.aggregations
        assert [s.predicate for s in parsed.slicers] == [
            str(__import__("repro.expressions", fromlist=["parse"]).parse(
                s.predicate
            ))
            for s in requirement.slicers
        ]
        assert xrq.dumps(parsed) == text

    @given(requirements())
    @settings(max_examples=50, deadline=None)
    def test_validation_stable_across_roundtrip(self, requirement):
        from repro.sources import tpch
        from repro.xformats import xrq

        ontology = tpch.ontology()
        parsed = xrq.loads(xrq.dumps(requirement))
        assert bool(requirement.validate(ontology)) == bool(
            parsed.validate(ontology)
        )


# ---------------------------------------------------------------------------
# Writer trees: to_tree(x) == xml_to_json(dumps(x))
# ---------------------------------------------------------------------------

#: Text and attribute values: empty, whitespace, CR/CRLF line ends,
#: markup characters and one non-BMP character.
_PIECES = ["", " ", "\t", "\r", "\r\n", "<", "&", ">", '"', "'", "x", "\U0001F600"]
xml_texts = st.lists(st.sampled_from(_PIECES), max_size=5).map("".join)
optional_texts = st.one_of(st.none(), xml_texts)
text_sets = st.sets(xml_texts, max_size=3)


def _unique(min_size=0):
    return st.lists(xml_texts, min_size=min_size, max_size=3, unique=True)


@st.composite
def any_requirement(draw):
    from repro.core.requirements.model import (
        InformationRequirement,
        RequirementAggregation,
        RequirementDimension,
        RequirementMeasure,
        RequirementSlicer,
    )
    from repro.mdmodel.model import AggregationFunction

    def slicer(value):
        escaped = value.replace("'", "''")
        if draw(st.booleans()):  # a comparison triple with a typed <value>
            return RequirementSlicer(f"Nation_n_name = '{escaped}'")
        return RequirementSlicer(f"Nation_n_name = '{escaped}' AND Part_p_size > 3")

    return InformationRequirement(
        id=draw(xml_texts),
        description=draw(xml_texts),
        dimensions=[RequirementDimension(text) for text in draw(_unique())],
        measures=[
            RequirementMeasure(name, draw(xml_texts)) for name in draw(_unique())
        ],
        slicers=[slicer(value) for value in draw(st.lists(xml_texts, max_size=2))],
        aggregations=[
            RequirementAggregation(
                order,
                draw(xml_texts),
                draw(xml_texts),
                draw(st.sampled_from(list(AggregationFunction))),
            )
            for order in range(draw(st.integers(0, 2)))
        ],
    )


@st.composite
def any_md_schema(draw):
    from repro.mdmodel.model import (
        Additivity,
        AggregationFunction,
        Dimension,
        Fact,
        FactDimensionLink,
        Hierarchy,
        Level,
        LevelAttribute,
        MDSchema,
        Measure,
        SCDPolicy,
    )

    def level(name):
        attributes = [
            LevelAttribute(attribute, draw(scalar_types), draw(optional_texts))
            for attribute in draw(_unique())
        ]
        return Level(
            name,
            attributes,
            concept=draw(optional_texts),
            scd_policy=draw(st.sampled_from(list(SCDPolicy))),
        )

    def dimension(name):
        levels = {level_name: level(level_name) for level_name in draw(_unique(min_size=1))}
        return Dimension(
            name,
            levels,
            [Hierarchy(draw(xml_texts), list(levels))],
            draw(text_sets),
        )

    def fact(name):
        measures = {
            measure: Measure(
                measure,
                draw(xml_texts),
                draw(scalar_types),
                draw(st.sampled_from(list(AggregationFunction))),
                draw(st.sampled_from(list(Additivity))),
                draw(text_sets),
            )
            for measure in draw(_unique())
        }
        return Fact(
            name,
            measures,
            [FactDimensionLink(draw(xml_texts), draw(xml_texts))],
            draw(optional_texts),
            draw(text_sets),
            draw(st.lists(xml_texts, max_size=2)),
            draw(st.lists(xml_texts, max_size=2)),
        )

    return MDSchema(
        draw(xml_texts),
        {name: fact(name) for name in draw(_unique())},
        {name: dimension(name) for name in draw(_unique())},
    )


@st.composite
def any_etl_flow(draw):
    from repro.etlmodel import EtlFlow
    from repro.etlmodel.ops import (
        Datastore,
        DerivedAttribute,
        Loader,
        Rename,
        SCDUpdate,
        Selection,
        Sort,
    )

    def operation(name):
        builders = [
            lambda: Datastore(name, table=draw(xml_texts), columns=tuple(draw(_unique()))),
            lambda: Selection(name, predicate=draw(xml_texts)),
            lambda: DerivedAttribute(
                name, output=draw(xml_texts), expression=draw(xml_texts)
            ),
            lambda: Rename(name, renaming=((draw(xml_texts), draw(xml_texts)),)),
            lambda: Sort(
                name, keys=tuple(draw(_unique())), descending=draw(st.booleans())
            ),
            lambda: SCDUpdate(
                name, table=draw(xml_texts), effective_date=draw(xml_texts)
            ),
            lambda: Loader(name, table=draw(xml_texts), mode=draw(xml_texts)),
        ]
        return draw(st.sampled_from(builders))()

    flow = EtlFlow(draw(xml_texts), requirements=draw(text_sets))
    names = draw(_unique())
    for name in names:
        flow.add(operation(name))
    for source, target in zip(names, names[1:]):
        flow.connect(source, target)
    return flow


class TestWriterTrees:
    """A writer's tree equals what parsing its rendering gives, and a
    character XML 1.0 forbids is refused."""

    @staticmethod
    def _check(codec, value):
        from repro.errors import FormatError
        from repro.xformats.xmljson import xml_to_json

        assert codec.to_tree(value) == xml_to_json(codec.dumps(value))
        with pytest.raises(FormatError, match="U\\+0001"):
            codec.to_tree(_with_control_character(value))

    @given(any_requirement())
    @settings(max_examples=80, deadline=None)
    def test_xrq(self, requirement):
        from repro.xformats import xrq

        self._check(xrq, requirement)

    @given(any_md_schema())
    @settings(max_examples=80, deadline=None)
    def test_xmd(self, schema):
        from repro.xformats import xmd

        self._check(xmd, schema)

    @given(any_etl_flow())
    @settings(max_examples=80, deadline=None)
    def test_xlm(self, flow):
        from repro.xformats import xlm

        self._check(xlm, flow)


def _with_control_character(value):
    """A copy of ``value`` whose name (or id) holds U+0001."""
    import copy

    value = copy.deepcopy(value)
    if hasattr(value, "id"):
        value.id += "\x01"
    else:
        value.name += "\x01"
    return value


_COMMITTED = ["examples/design/unified.xmd", "examples/design/unified.xlm"] + [
    f"tests/xformats/fixtures/legacy_design.{suffix}" for suffix in ("xmd", "xlm")
]
_ROOT = Path(__file__).resolve().parents[2]


def _committed_documents():
    for path in _COMMITTED:
        text = (_ROOT / path).read_text(encoding="utf-8")
        yield pytest.param(path[-3:], text, id=path)
    for path in sorted((_ROOT / "tests/fuzz/corpus").glob("*.json")):
        entry = json.loads(path.read_text(encoding="utf-8"))
        if "xlm" in entry:
            yield pytest.param("xlm", entry["xlm"], id=f"corpus/{path.name}")


@pytest.mark.parametrize("notation, text", _committed_documents())
def test_committed_documents_resave_byte_identically(notation, text):
    from repro.xformats import xlm, xmd

    codec = {"xmd": xmd, "xlm": xlm}[notation]
    assert codec.dumps(codec.loads(text)) == text


# ---------------------------------------------------------------------------
# Conformance algebra
# ---------------------------------------------------------------------------

attribute_names = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=4,
    unique=True,
)


@st.composite
def simple_dimensions(draw):
    from repro.mdmodel import Dimension, Hierarchy, Level, LevelAttribute

    concepts = draw(
        st.lists(st.sampled_from(["X", "Y", "Z", "W"]), min_size=1,
                 max_size=3, unique=True)
    )
    dimension = Dimension(name="D")
    for concept in concepts:
        dimension.add_level(
            Level(
                name=concept,
                attributes=[
                    LevelAttribute(f"{concept}_{name}", ScalarType.STRING)
                    for name in draw(attribute_names)
                ],
                concept=concept,
            )
        )
    dimension.add_hierarchy(Hierarchy(name="h", levels=list(concepts)))
    return dimension


class TestConformanceAlgebra:
    @given(simple_dimensions())
    @settings(max_examples=80, deadline=None)
    def test_merge_with_self_is_identity(self, dimension):
        from repro.mdmodel.conformance import merge_dimensions

        merged = merge_dimensions(dimension, dimension)
        assert set(merged.levels) == set(dimension.levels)
        for name, level in dimension.levels.items():
            assert merged.level(name).attribute_names() == (
                level.attribute_names()
            )
        assert len(merged.hierarchies) == len(dimension.hierarchies)

    @given(simple_dimensions())
    @settings(max_examples=80, deadline=None)
    def test_merge_is_idempotent(self, dimension):
        from repro.mdmodel.conformance import merge_dimensions

        once = merge_dimensions(dimension, dimension)
        twice = merge_dimensions(once, dimension)
        assert set(twice.levels) == set(once.levels)
        assert len(twice.hierarchies) == len(once.hierarchies)

    @given(simple_dimensions(), simple_dimensions())
    @settings(max_examples=80, deadline=None)
    def test_merge_contains_both_inputs(self, first, second):
        from repro.mdmodel import conformance

        assume(conformance.dimensions_conformable(first, second))
        merged = conformance.merge_dimensions(first, second)
        first_attributes = {
            attribute.name
            for level in first.levels.values()
            for attribute in level.attributes
        }
        second_attributes = {
            attribute.name
            for level in second.levels.values()
            for attribute in level.attributes
        }
        merged_attributes = {
            attribute.name
            for level in merged.levels.values()
            for attribute in level.attributes
        }
        assert first_attributes | second_attributes <= merged_attributes


# ---------------------------------------------------------------------------
# Cost model monotonicity
# ---------------------------------------------------------------------------

class TestCostModelMonotonicity:
    @given(
        st.integers(min_value=1, max_value=100_000),
        st.lists(
            st.sampled_from(["a = 1", "b > 2", "c != 3"]),
            min_size=0, max_size=3, unique=True,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_more_filters_never_increase_rows(self, rows, predicates):
        from repro.etlmodel import Datastore, EtlFlow, Loader, Selection
        from repro.etlmodel.cost import CostModel

        model = CostModel()
        flow = EtlFlow("t")
        chain = [Datastore("src", table="t", columns=("a", "b", "c"))]
        for index, predicate in enumerate(predicates):
            chain.append(Selection(f"s{index}", predicate=predicate))
        chain.append(Loader("load", table="o"))
        flow.chain(*chain)
        report = model.estimate(flow, {"t": rows})
        outputs = [node.output_rows for node in report.nodes]
        # Rows never increase along a selection chain.
        for before, after in zip(outputs, outputs[1:]):
            assert after <= before + 1e-9

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_costs_positive_and_scale_with_rows(self, rows):
        from repro.etlmodel.cost import CostModel
        from tests.etlmodel.conftest import build_revenue_flow

        model = CostModel()
        small = model.total(build_revenue_flow(), {"lineitem": rows})
        large = model.total(build_revenue_flow(), {"lineitem": rows * 2})
        assert 0 < small <= large
