"""xMD — the XML format for multidimensional schemas.

Follows the shape of the Figure 3/4 snippets (``<MDschema>`` holding
``<facts>`` and ``<dimensions>``), fleshed out with the detail the MD
integrator needs to round-trip: measures with expressions/aggregation/
additivity, levels with typed attributes and ontology provenance,
hierarchies, fact-dimension links, and requirement traceability.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

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


def to_tree(schema: MDSchema) -> dict:
    """The schema's xMD tree, in the repository's JSON structure."""
    uses_scd = any(
        level.scd_policy is not SCDPolicy.TYPE0
        for _, level in schema.iter_levels()
    )
    attributes = {"name": schema.name}
    if uses_scd:
        attributes["version"] = XMD_VERSION
    root = xmljson.root("MDschema", **attributes)
    facts = xmljson.sub(root, "facts")
    for fact in schema.facts.values():
        _write_fact(facts, fact)
    dimensions = xmljson.sub(root, "dimensions")
    for dimension in schema.dimensions.values():
        _write_dimension(dimensions, dimension)
    return root


def dumps(schema: MDSchema) -> str:
    """Serialise an MD schema to xMD."""
    return xmljson.json_to_xml(to_tree(schema))


def _write_requirements(parent: dict, requirement_ids) -> None:
    if not requirement_ids:
        return
    wrapper = xmljson.sub(parent, "requirements")
    for requirement_id in sorted(requirement_ids):
        xmljson.sub(wrapper, "requirement", requirement_id)


def _write_fact(parent: dict, fact: Fact) -> None:
    element = xmljson.sub(parent, "fact")
    xmljson.sub(element, "name", fact.name)
    if fact.concept is not None:
        xmljson.sub(element, "concept", fact.concept)
    if fact.grain:
        grain = xmljson.sub(element, "grain")
        for column in fact.grain:
            xmljson.sub(grain, "column", column)
    if fact.slicers:
        slicers = xmljson.sub(element, "slicers")
        for predicate in fact.slicers:
            xmljson.sub(slicers, "predicate", predicate)
    _write_requirements(element, fact.requirements)
    measures = xmljson.sub(element, "measures")
    for measure in fact.measures.values():
        measure_element = xmljson.sub(measures, "measure")
        xmljson.sub(measure_element, "name", measure.name)
        xmljson.sub(measure_element, "expression", measure.expression)
        xmljson.sub(measure_element, "type", measure.type.value)
        xmljson.sub(measure_element, "aggregation", measure.aggregation.value)
        xmljson.sub(measure_element, "additivity", measure.additivity.value)
        _write_requirements(measure_element, measure.requirements)
    links = xmljson.sub(element, "links")
    for link in fact.links:
        link_element = xmljson.sub(links, "link")
        xmljson.sub(link_element, "dimension", link.dimension)
        xmljson.sub(link_element, "level", link.level)


def _write_dimension(parent: dict, dimension: Dimension) -> None:
    element = xmljson.sub(parent, "dimension")
    xmljson.sub(element, "name", dimension.name)
    _write_requirements(element, dimension.requirements)
    levels = xmljson.sub(element, "levels")
    for level in dimension.levels.values():
        level_element = xmljson.sub(levels, "level")
        xmljson.sub(level_element, "name", level.name)
        if level.concept is not None:
            xmljson.sub(level_element, "concept", level.concept)
        if level.key is not None:
            xmljson.sub(level_element, "key", level.key)
        if level.scd_policy is not SCDPolicy.TYPE0:
            xmljson.sub(level_element, "scd", level.scd_policy.value)
        attributes = xmljson.sub(level_element, "attributes")
        for attribute in level.attributes:
            attribute_element = xmljson.sub(attributes, "attribute")
            xmljson.sub(attribute_element, "name", attribute.name)
            xmljson.sub(attribute_element, "type", attribute.type.value)
            if attribute.property is not None:
                xmljson.sub(attribute_element, "property", attribute.property)
    hierarchies = xmljson.sub(element, "hierarchies")
    for hierarchy in dimension.hierarchies:
        hierarchy_element = xmljson.sub(
            hierarchies, "hierarchy", name=hierarchy.name
        )
        for level_name in hierarchy.levels:
            xmljson.sub(hierarchy_element, "level", level_name)


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
