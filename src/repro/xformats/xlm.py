"""xLM — the XML encoding for analytic (ETL) flows [12].

Figure 3's snippet fixes the shape: a ``<design>`` with ``<metadata>``,
``<edges>`` (``<from>``/``<to>``/``<enabled>``) and ``<nodes>``
(``<name>``/``<type>``/``<optype>``).  Operation-specific parameters go
into a ``<properties>`` block per node, keyed by property name, so the
document parses back into exactly the same operation objects.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict

from repro.errors import XlmFormatError
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    AggregationSpec,
    Datastore,
    DerivedAttribute,
    Distinct,
    Extraction,
    Join,
    Loader,
    Operation,
    Projection,
    Rename,
    SCDUpdate,
    Selection,
    Sort,
    SurrogateKey,
    UnionOp,
)
from repro.xformats import xmljson, xmlutil
from repro.xformats.registry import check_schema_version

_LIST_SEPARATOR = ","

#: The newest xLM schema version this build writes.  Version 1.1 added
#: the ``SCDUpdate`` node type; flows without one keep the legacy shape
#: (no ``version`` attribute == version 1.0) so they stay byte-stable.
XLM_VERSION = "1.1"


def to_tree(flow: EtlFlow) -> dict:
    """The flow's xLM tree, in the repository's JSON structure."""
    uses_scd = any(node.kind == "SCDUpdate" for node in flow.nodes())
    root = xmljson.root("design", **({"version": XLM_VERSION} if uses_scd else {}))
    metadata = xmljson.sub(root, "metadata")
    xmljson.sub(metadata, "name", flow.name)
    if flow.requirements:
        wrapper = xmljson.sub(metadata, "requirements")
        for requirement_id in sorted(flow.requirements):
            xmljson.sub(wrapper, "requirement", requirement_id)
    edges = xmljson.sub(root, "edges")
    for edge in flow.edges():
        element = xmljson.sub(edges, "edge")
        xmljson.sub(element, "from", edge.source)
        xmljson.sub(element, "to", edge.target)
        xmljson.sub(element, "enabled", "Y" if edge.enabled else "N")
    nodes = xmljson.sub(root, "nodes")
    for operation in flow.nodes():
        element = xmljson.sub(nodes, "node")
        xmljson.sub(element, "name", operation.name)
        xmljson.sub(element, "type", operation.kind)
        xmljson.sub(element, "optype", operation.optype)
        properties = _operation_properties(operation)
        if properties:
            wrapper = xmljson.sub(element, "properties")
            for key, value in properties.items():
                xmljson.sub(wrapper, "property", value, name=key)
    return root


def dumps(flow: EtlFlow) -> str:
    """Serialise an ETL flow to xLM."""
    return xmljson.json_to_xml(to_tree(flow))


def _operation_properties(operation: Operation) -> Dict[str, str]:
    """Flatten an operation's parameters into string properties."""
    if isinstance(operation, Datastore):
        properties = {"table": operation.table}
        if operation.columns:
            properties["columns"] = _LIST_SEPARATOR.join(operation.columns)
        return properties
    if isinstance(operation, (Extraction, Projection)):
        return {"columns": _LIST_SEPARATOR.join(operation.columns)}
    if isinstance(operation, Selection):
        return {"predicate": operation.predicate}
    if isinstance(operation, Join):
        return {
            "leftKeys": _LIST_SEPARATOR.join(operation.left_keys),
            "rightKeys": _LIST_SEPARATOR.join(operation.right_keys),
            "joinType": operation.join_type,
        }
    if isinstance(operation, Aggregation):
        properties = {"groupBy": _LIST_SEPARATOR.join(operation.group_by)}
        rendered = [
            f"{spec.output}={spec.function}({spec.input})"
            for spec in operation.aggregates
        ]
        properties["aggregates"] = ";".join(rendered)
        return properties
    if isinstance(operation, DerivedAttribute):
        return {"output": operation.output, "expression": operation.expression}
    if isinstance(operation, Rename):
        rendered = [f"{old}->{new}" for old, new in operation.renaming]
        return {"renaming": ";".join(rendered)}
    if isinstance(operation, SurrogateKey):
        return {
            "output": operation.output,
            "businessKeys": _LIST_SEPARATOR.join(operation.business_keys),
        }
    if isinstance(operation, Sort):
        properties = {"keys": _LIST_SEPARATOR.join(operation.keys)}
        if operation.descending:
            properties["descending"] = "true"
        return properties
    if isinstance(operation, SCDUpdate):
        return {
            "table": operation.table,
            "policy": operation.policy,
            "businessKeys": _LIST_SEPARATOR.join(operation.business_keys),
            "effectiveDate": operation.effective_date,
        }
    if isinstance(operation, Loader):
        return {"table": operation.table, "mode": operation.mode}
    if isinstance(operation, (UnionOp, Distinct)):
        return {}
    raise XlmFormatError(f"cannot serialise operation kind {operation.kind!r}")


def loads(text: str) -> EtlFlow:
    """Parse an xLM document back into an ETL flow."""
    root = xmlutil.parse_document(text, "design", XlmFormatError)
    check_schema_version("xlm", root.get("version", "1.0"), XlmFormatError)
    metadata = xmlutil.child(root, "metadata", XlmFormatError)
    flow = EtlFlow(name=xmlutil.child_text(metadata, "name", XlmFormatError))
    requirements = metadata.find("requirements")
    if requirements is not None:
        flow.requirements = {
            node.text or "" for node in requirements.findall("requirement")
        }
    nodes = root.find("nodes")
    if nodes is not None:
        for element in nodes.findall("node"):
            flow.add(_read_operation(element))
    edges = root.find("edges")
    if edges is not None:
        for element in edges.findall("edge"):
            flow.connect(
                xmlutil.child_text(element, "from", XlmFormatError),
                xmlutil.child_text(element, "to", XlmFormatError),
            )
    return flow


def _read_operation(element: ET.Element) -> Operation:
    name = xmlutil.child_text(element, "name", XlmFormatError)
    kind = xmlutil.child_text(element, "type", XlmFormatError)
    properties: Dict[str, str] = {}
    wrapper = element.find("properties")
    if wrapper is not None:
        for node in wrapper.findall("property"):
            properties[xmlutil.attribute(node, "name", XlmFormatError)] = (
                node.text or ""
            )
    return _build_operation(name, kind, properties)


def _split(text: str) -> tuple:
    if not text:
        return ()
    return tuple(part for part in text.split(_LIST_SEPARATOR) if part)


def _build_operation(name: str, kind: str, properties: Dict[str, str]) -> Operation:
    if kind == "Datastore":
        return Datastore(
            name,
            table=properties.get("table", ""),
            columns=_split(properties.get("columns", "")),
        )
    if kind == "Extraction":
        return Extraction(name, columns=_split(properties.get("columns", "")))
    if kind == "Projection":
        return Projection(name, columns=_split(properties.get("columns", "")))
    if kind == "Selection":
        return Selection(name, predicate=properties.get("predicate", "true"))
    if kind == "Join":
        return Join(
            name,
            left_keys=_split(properties.get("leftKeys", "")),
            right_keys=_split(properties.get("rightKeys", "")),
            join_type=properties.get("joinType", "inner"),
        )
    if kind == "Aggregation":
        return Aggregation(
            name,
            group_by=_split(properties.get("groupBy", "")),
            aggregates=_parse_aggregates(properties.get("aggregates", "")),
        )
    if kind == "DerivedAttribute":
        return DerivedAttribute(
            name,
            output=properties.get("output", ""),
            expression=properties.get("expression", ""),
        )
    if kind == "Rename":
        return Rename(name, renaming=_parse_renaming(properties.get("renaming", "")))
    if kind == "Union":
        return UnionOp(name)
    if kind == "Distinct":
        return Distinct(name)
    if kind == "SurrogateKey":
        return SurrogateKey(
            name,
            output=properties.get("output", ""),
            business_keys=_split(properties.get("businessKeys", "")),
        )
    if kind == "Sort":
        return Sort(
            name,
            keys=_split(properties.get("keys", "")),
            descending=properties.get("descending", "false") == "true",
        )
    if kind == "SCDUpdate":
        return SCDUpdate(
            name,
            table=properties.get("table", ""),
            policy=properties.get("policy", "type2"),
            business_keys=_split(properties.get("businessKeys", "")),
            effective_date=properties.get("effectiveDate", "1970-01-01"),
        )
    if kind == "Loader":
        return Loader(
            name,
            table=properties.get("table", ""),
            mode=properties.get("mode", "insert"),
        )
    raise XlmFormatError(f"unknown node type {kind!r}")


def _parse_aggregates(text: str) -> tuple:
    if not text:
        return ()
    specs = []
    for part in text.split(";"):
        if "=" not in part or "(" not in part or not part.endswith(")"):
            raise XlmFormatError(f"malformed aggregate spec {part!r}")
        output, rest = part.split("=", 1)
        function, input_column = rest[:-1].split("(", 1)
        specs.append(AggregationSpec(output, function, input_column))
    return tuple(specs)


def _parse_renaming(text: str) -> tuple:
    if not text:
        return ()
    pairs = []
    for part in text.split(";"):
        if "->" not in part:
            raise XlmFormatError(f"malformed renaming {part!r}")
        old, new = part.split("->", 1)
        pairs.append((old, new))
    return tuple(pairs)
