"""xRQ — the XML format for information requirements.

Mirrors the snippet in Figure 4 of the paper: a ``<cube>`` with
``<dimensions>``, ``<measures>`` (with ``<function>`` derivations),
``<slicers>`` (``<comparison>`` triples, plus a generic ``<predicate>``
escape hatch for non-triple slicers) and ``<aggregations>``.
"""

from __future__ import annotations

import datetime
import xml.etree.ElementTree as ET

from repro.core.requirements.model import (
    InformationRequirement,
    RequirementAggregation,
    RequirementDimension,
    RequirementMeasure,
    RequirementSlicer,
)
from repro.errors import XrqFormatError
from repro.mdmodel.model import AggregationFunction
from repro.xformats import xmljson, xmlutil


def to_tree(requirement: InformationRequirement) -> dict:
    """The requirement's xRQ tree, in the repository's JSON structure."""
    root = xmljson.root("cube", id=requirement.id)
    if requirement.description:
        xmljson.sub(root, "description", requirement.description)
    dimensions = xmljson.sub(root, "dimensions")
    for dimension in requirement.dimensions:
        xmljson.sub(dimensions, "concept", id=dimension.property)
    measures = xmljson.sub(root, "measures")
    for measure in requirement.measures:
        concept = xmljson.sub(measures, "concept", id=measure.name)
        xmljson.sub(concept, "function", measure.expression)
    slicers = xmljson.sub(root, "slicers")
    for slicer in requirement.slicers:
        _write_slicer(slicers, slicer)
    aggregations = xmljson.sub(root, "aggregations")
    for aggregation in requirement.aggregations:
        element = xmljson.sub(aggregations, "aggregation", order=aggregation.order)
        xmljson.sub(element, "dimension", refID=aggregation.dimension)
        xmljson.sub(element, "measure", refID=aggregation.measure)
        xmljson.sub(element, "function", aggregation.function.value)
    return root


def dumps(requirement: InformationRequirement) -> str:
    """Serialise a requirement to xRQ."""
    return xmljson.json_to_xml(to_tree(requirement))


def _write_slicer(parent: dict, slicer: RequirementSlicer) -> None:
    triple = slicer.as_comparison()
    if triple is None:
        xmljson.sub(parent, "predicate", slicer.predicate)
        return
    property_id, operator, value = triple
    comparison = xmljson.sub(parent, "comparison")
    xmljson.sub(comparison, "concept", id=property_id)
    xmljson.sub(comparison, "operator", operator)
    xmljson.sub(comparison, "value", _render_value(value), type=_value_type(value))


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def _value_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "decimal"
    if isinstance(value, datetime.date):
        return "date"
    return "string"


def loads(text: str) -> InformationRequirement:
    """Parse an xRQ document back into a requirement."""
    root = xmlutil.parse_document(text, "cube", XrqFormatError)
    requirement = InformationRequirement(
        id=xmlutil.attribute(root, "id", XrqFormatError),
        description=xmlutil.optional_text(root, "description") or "",
    )
    dimensions = root.find("dimensions")
    if dimensions is not None:
        for concept in dimensions.findall("concept"):
            requirement.dimensions.append(
                RequirementDimension(
                    property=xmlutil.attribute(concept, "id", XrqFormatError)
                )
            )
    measures = root.find("measures")
    if measures is not None:
        for concept in measures.findall("concept"):
            requirement.measures.append(
                RequirementMeasure(
                    name=xmlutil.attribute(concept, "id", XrqFormatError),
                    expression=xmlutil.child_text(
                        concept, "function", XrqFormatError
                    ),
                )
            )
    slicers = root.find("slicers")
    if slicers is not None:
        for element in slicers:
            requirement.slicers.append(_read_slicer(element))
    aggregations = root.find("aggregations")
    if aggregations is not None:
        for element in aggregations.findall("aggregation"):
            requirement.aggregations.append(_read_aggregation(element))
    return requirement


def _read_slicer(element: ET.Element) -> RequirementSlicer:
    if element.tag == "predicate":
        return RequirementSlicer(predicate=element.text or "")
    if element.tag != "comparison":
        raise XrqFormatError(f"unexpected slicer element <{element.tag}>")
    concept = xmlutil.child(element, "concept", XrqFormatError)
    property_id = xmlutil.attribute(concept, "id", XrqFormatError)
    operator = xmlutil.child_text(element, "operator", XrqFormatError)
    value_element = xmlutil.child(element, "value", XrqFormatError)
    literal = _parse_value(value_element)
    return RequirementSlicer(predicate=f"{property_id} {operator} {literal}")


def _parse_value(element: ET.Element) -> str:
    """Render the typed <value> back into expression syntax."""
    text = element.text or ""
    value_type = element.get("type", "string")
    if value_type == "string":
        escaped = text.replace("'", "''")
        return f"'{escaped}'"
    if value_type == "date":
        return f"date '{text}'"
    if value_type in ("integer", "decimal", "boolean"):
        return text
    raise XrqFormatError(f"unknown value type {value_type!r}")


def _read_aggregation(element: ET.Element) -> RequirementAggregation:
    order_text = xmlutil.attribute(element, "order", XrqFormatError)
    try:
        order = int(order_text)
    except ValueError:
        raise XrqFormatError(f"invalid aggregation order {order_text!r}") from None
    dimension = xmlutil.child(element, "dimension", XrqFormatError)
    measure = xmlutil.child(element, "measure", XrqFormatError)
    function = xmlutil.child_text(element, "function", XrqFormatError)
    try:
        parsed_function = AggregationFunction.parse(function)
    except Exception as exc:
        raise XrqFormatError(str(exc)) from exc
    return RequirementAggregation(
        order=order,
        dimension=xmlutil.attribute(dimension, "refID", XrqFormatError),
        measure=xmlutil.attribute(measure, "refID", XrqFormatError),
        function=parsed_function,
    )
