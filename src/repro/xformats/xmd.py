"""xMD — the XML format for multidimensional schemas.

Follows the shape of the Figure 3/4 snippets (``<MDschema>`` holding
``<facts>`` and ``<dimensions>``), fleshed out with the detail the MD
integrator needs to round-trip: measures with expressions/aggregation/
additivity, levels with typed attributes and ontology provenance,
hierarchies, fact-dimension links, and requirement traceability.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Optional, Tuple

from repro.errors import XmdFormatError
from repro.expressions.types import ScalarType
from repro.mdmodel.model import (
    Additivity,
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
from repro.xformats import xmljson, xmlutil
from repro.xformats.registry import check_schema_version

#: The newest xMD schema version this build writes.  Version 1.1 added
#: the per-level ``<scd>`` policy element; documents without SCD levels
#: are still written in the legacy shape (no ``version`` attribute ==
#: version 1.0) so existing designs round-trip byte-identically.
XMD_VERSION = "1.1"


def to_tree(
    schema: MDSchema, previous: Optional[Tuple[MDSchema, dict]] = None
) -> dict:
    """The schema's xMD tree, in the repository's JSON structure.

    Each ``<fact>`` and ``<dimension>`` subtree is written from its
    content key (:func:`_fact_key`, :func:`_dimension_key`).
    ``previous`` is the schema this one was derived from, with the tree
    this function wrote for it: every element whose key is unchanged
    takes that tree's subtree instead of a new one, so consecutive fold
    checkpoints share them.  Stored trees are never mutated in place,
    which makes the sharing safe.
    """
    shared_facts: Dict[tuple, dict] = {}
    shared_dimensions: Dict[tuple, dict] = {}
    if previous is not None:
        previous_schema, previous_tree = previous
        previous_facts, previous_dimensions = previous_tree["children"]
        shared_facts = dict(
            zip(map(_fact_key, previous_schema.facts.values()), previous_facts["children"])
        )
        shared_dimensions = dict(
            zip(
                map(_dimension_key, previous_schema.dimensions.values()),
                previous_dimensions["children"],
            )
        )
    uses_scd = any(
        level.scd_policy is not SCDPolicy.TYPE0
        for _, level in schema.iter_levels()
    )
    attributes = {"name": schema.name}
    if uses_scd:
        attributes["version"] = XMD_VERSION
    root = xmljson.root("MDschema", **attributes)
    facts = xmljson.sub(root, "facts")
    # A written subtree is never an empty dict, so ``or`` falls back only
    # on a miss.
    facts["children"] = [
        shared_facts.get(key) or _write_fact(key)
        for key in map(_fact_key, schema.facts.values())
    ]
    dimensions = xmljson.sub(root, "dimensions")
    dimensions["children"] = [
        shared_dimensions.get(key) or _write_dimension(key)
        for key in map(_dimension_key, schema.dimensions.values())
    ]
    return root


def dumps(schema: MDSchema) -> str:
    """Serialise an MD schema to xMD."""
    return xmljson.json_to_xml(to_tree(schema))


def _fact_key(fact: Fact) -> tuple:
    """Everything :func:`_write_fact` writes for a fact, in its order."""
    return (
        fact.name,
        fact.concept,
        tuple(fact.grain),
        tuple(fact.slicers),
        tuple(sorted(fact.requirements)),
        tuple(
            (
                measure.name,
                measure.expression,
                measure.type.value,
                measure.aggregation.value,
                measure.additivity.value,
                tuple(sorted(measure.requirements)),
            )
            for measure in fact.measures.values()
        ),
        tuple((link.dimension, link.level) for link in fact.links),
    )


def _dimension_key(dimension: Dimension) -> tuple:
    """Everything :func:`_write_dimension` writes for a dimension, in
    its order; a level's SCD policy is ``None`` for TYPE0, which writes
    no ``<scd>``."""
    return (
        dimension.name,
        tuple(sorted(dimension.requirements)),
        tuple(
            (
                level.name,
                level.concept,
                level.key,
                None
                if level.scd_policy is SCDPolicy.TYPE0
                else level.scd_policy.value,
                tuple(
                    (attribute.name, attribute.type.value, attribute.property)
                    for attribute in level.attributes
                ),
            )
            for level in dimension.levels.values()
        ),
        tuple(
            (hierarchy.name, tuple(hierarchy.levels))
            for hierarchy in dimension.hierarchies
        ),
    )


def _write_requirements(parent: dict, requirement_ids: tuple) -> None:
    if not requirement_ids:
        return
    wrapper = xmljson.sub(parent, "requirements")
    for requirement_id in requirement_ids:
        xmljson.sub(wrapper, "requirement", requirement_id)


def _write_fact(key: tuple) -> dict:
    name, concept, grain, slicers, requirements, measures, links = key
    element = xmljson.root("fact")
    xmljson.sub(element, "name", name)
    if concept is not None:
        xmljson.sub(element, "concept", concept)
    if grain:
        grain_element = xmljson.sub(element, "grain")
        for column in grain:
            xmljson.sub(grain_element, "column", column)
    if slicers:
        slicers_element = xmljson.sub(element, "slicers")
        for predicate in slicers:
            xmljson.sub(slicers_element, "predicate", predicate)
    _write_requirements(element, requirements)
    measures_element = xmljson.sub(element, "measures")
    for measure_name, expression, type_name, aggregation, additivity, ids in measures:
        measure_element = xmljson.sub(measures_element, "measure")
        xmljson.sub(measure_element, "name", measure_name)
        xmljson.sub(measure_element, "expression", expression)
        xmljson.sub(measure_element, "type", type_name)
        xmljson.sub(measure_element, "aggregation", aggregation)
        xmljson.sub(measure_element, "additivity", additivity)
        _write_requirements(measure_element, ids)
    links_element = xmljson.sub(element, "links")
    for dimension, level in links:
        link_element = xmljson.sub(links_element, "link")
        xmljson.sub(link_element, "dimension", dimension)
        xmljson.sub(link_element, "level", level)
    return element


def _write_dimension(key: tuple) -> dict:
    name, requirements, levels, hierarchies = key
    element = xmljson.root("dimension")
    xmljson.sub(element, "name", name)
    _write_requirements(element, requirements)
    levels_element = xmljson.sub(element, "levels")
    for level_name, concept, level_key, scd, attributes in levels:
        level_element = xmljson.sub(levels_element, "level")
        xmljson.sub(level_element, "name", level_name)
        if concept is not None:
            xmljson.sub(level_element, "concept", concept)
        if level_key is not None:
            xmljson.sub(level_element, "key", level_key)
        if scd is not None:
            xmljson.sub(level_element, "scd", scd)
        attributes_element = xmljson.sub(level_element, "attributes")
        for attribute_name, type_name, attribute_property in attributes:
            attribute_element = xmljson.sub(attributes_element, "attribute")
            xmljson.sub(attribute_element, "name", attribute_name)
            xmljson.sub(attribute_element, "type", type_name)
            if attribute_property is not None:
                xmljson.sub(attribute_element, "property", attribute_property)
    hierarchies_element = xmljson.sub(element, "hierarchies")
    for hierarchy_name, hierarchy_levels in hierarchies:
        hierarchy_element = xmljson.sub(
            hierarchies_element, "hierarchy", name=hierarchy_name
        )
        for level_name in hierarchy_levels:
            xmljson.sub(hierarchy_element, "level", level_name)
    return element


def loads(text: str) -> MDSchema:
    """Parse an xMD document back into an MD schema."""
    root = xmlutil.parse_document(text, "MDschema", XmdFormatError)
    check_schema_version("xmd", root.get("version", "1.0"), XmdFormatError)
    schema = MDSchema(name=xmlutil.attribute(root, "name", XmdFormatError))
    dimensions = root.find("dimensions")
    if dimensions is not None:
        for element in dimensions.findall("dimension"):
            schema.add_dimension(_read_dimension(element))
    facts = root.find("facts")
    if facts is not None:
        for element in facts.findall("fact"):
            schema.add_fact(_read_fact(element))
    return schema


def _read_requirements(element: ET.Element) -> set:
    wrapper = element.find("requirements")
    if wrapper is None:
        return set()
    return {node.text or "" for node in wrapper.findall("requirement")}


def _scalar(text: str) -> ScalarType:
    try:
        return ScalarType(text)
    except ValueError:
        raise XmdFormatError(f"unknown scalar type {text!r}") from None


def _read_fact(element: ET.Element) -> Fact:
    fact = Fact(
        name=xmlutil.child_text(element, "name", XmdFormatError),
        concept=xmlutil.optional_text(element, "concept"),
        requirements=_read_requirements(element),
    )
    grain_element = element.find("grain")
    if grain_element is not None:
        fact.grain = [
            node.text or "" for node in grain_element.findall("column")
        ]
    slicers_element = element.find("slicers")
    if slicers_element is not None:
        fact.slicers = [
            node.text or "" for node in slicers_element.findall("predicate")
        ]
    measures = element.find("measures")
    if measures is not None:
        for measure_element in measures.findall("measure"):
            try:
                aggregation = AggregationFunction.parse(
                    xmlutil.child_text(measure_element, "aggregation", XmdFormatError)
                )
            except Exception as exc:
                raise XmdFormatError(str(exc)) from exc
            additivity_text = xmlutil.child_text(
                measure_element, "additivity", XmdFormatError
            )
            try:
                additivity = Additivity(additivity_text)
            except ValueError:
                raise XmdFormatError(
                    f"unknown additivity {additivity_text!r}"
                ) from None
            fact.add_measure(
                Measure(
                    name=xmlutil.child_text(measure_element, "name", XmdFormatError),
                    expression=xmlutil.child_text(
                        measure_element, "expression", XmdFormatError
                    ),
                    type=_scalar(
                        xmlutil.child_text(measure_element, "type", XmdFormatError)
                    ),
                    aggregation=aggregation,
                    additivity=additivity,
                    requirements=_read_requirements(measure_element),
                )
            )
    links = element.find("links")
    if links is not None:
        for link_element in links.findall("link"):
            fact.link_dimension(
                xmlutil.child_text(link_element, "dimension", XmdFormatError),
                xmlutil.child_text(link_element, "level", XmdFormatError),
            )
    return fact


def _read_dimension(element: ET.Element) -> Dimension:
    dimension = Dimension(
        name=xmlutil.child_text(element, "name", XmdFormatError),
        requirements=_read_requirements(element),
    )
    levels = element.find("levels")
    if levels is not None:
        for level_element in levels.findall("level"):
            attributes = []
            attributes_element = level_element.find("attributes")
            if attributes_element is not None:
                for attribute_element in attributes_element.findall("attribute"):
                    attributes.append(
                        LevelAttribute(
                            name=xmlutil.child_text(
                                attribute_element, "name", XmdFormatError
                            ),
                            type=_scalar(
                                xmlutil.child_text(
                                    attribute_element, "type", XmdFormatError
                                )
                            ),
                            property=xmlutil.optional_text(
                                attribute_element, "property"
                            ),
                        )
                    )
            scd_text = xmlutil.optional_text(level_element, "scd")
            try:
                scd_policy = (
                    SCDPolicy.parse(scd_text)
                    if scd_text is not None
                    else SCDPolicy.TYPE0
                )
            except Exception as exc:
                raise XmdFormatError(str(exc)) from exc
            dimension.add_level(
                Level(
                    name=xmlutil.child_text(level_element, "name", XmdFormatError),
                    attributes=attributes,
                    key=xmlutil.optional_text(level_element, "key"),
                    concept=xmlutil.optional_text(level_element, "concept"),
                    scd_policy=scd_policy,
                )
            )
    hierarchies = element.find("hierarchies")
    if hierarchies is not None:
        for hierarchy_element in hierarchies.findall("hierarchy"):
            dimension.add_hierarchy(
                Hierarchy(
                    name=xmlutil.attribute(hierarchy_element, "name", XmdFormatError),
                    levels=[
                        node.text or ""
                        for node in hierarchy_element.findall("level")
                    ],
                )
            )
    return dimension
