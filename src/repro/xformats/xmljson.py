"""The generic XML↔JSON converter of the metadata layer.

"the Communication & Metadata layer [...] uses a MongoDB instance as a
storage repository, and a generic XML-JSON-XML parser for reading from
and writing to the repository" (§2.6).  Documents arrive as XML (xRQ,
xMD, xLM), are stored as JSON documents, and come back out as XML.

The JSON encoding is lossless and order-preserving:

.. code-block:: json

    {"tag": "cube",
     "attributes": {"id": "IR1"},
     "text": null,
     "children": [ ... ]}

Leaf elements carry their text; mixed content keeps the element text
alongside its children (tails are folded into ``text`` of the parent —
sufficient for the data-oriented XML Quarry exchanges).

The xRQ/xMD/xLM writers build this structure straight from the model
with :func:`root` and :func:`sub`, and render it with
:func:`json_to_xml`.  A writer's tree equals what parsing its rendering
gives back: :func:`leaf_text` is the one rule that maps a writer's text
to the text the parser reads.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from typing import Optional

from repro.errors import FormatError

#: A character outside XML 1.0's ``Char`` production: no document can
#: carry it, not even as a character reference.
_FORBIDDEN = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def element_to_dict(element: ET.Element) -> dict:
    """Convert one element (recursively) into the JSON structure."""
    text: Optional[str] = element.text
    children = [element_to_dict(child) for child in element]
    if children and text is not None and not text.strip():
        text = None  # indentation between children is not content
    return {
        "tag": element.tag,
        "attributes": dict(element.attrib),
        "text": text,
        "children": children,
    }


def _checked(value: str, where: str) -> str:
    found = _FORBIDDEN.search(value)
    if found is not None:
        raise FormatError(f"{where} holds U+{ord(found.group()):04X}, which XML 1.0 forbids")
    return value


def leaf_text(text: Optional[str]) -> Optional[str]:
    """A childless element's text as parsing its rendering reads it.

    Empty text renders self-closed and reads back as ``None``; the
    parser turns CR and CRLF into LF; whitespace-only text is content
    and stays.  A character XML 1.0 forbids raises
    :class:`~repro.errors.FormatError`, as parsing the rendering would.
    """
    if not text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _checked(text, "element text")


def _attributes(attributes: dict) -> dict:
    """Attribute values as strings; escaping keeps their CR, LF and tab."""
    for name, value in attributes.items():
        attributes[name] = _checked(str(value), f"attribute {name!r}")
    return attributes


def root(tag: str, **attributes) -> dict:
    """The root element of a writer's tree."""
    return {"tag": tag, "attributes": _attributes(attributes), "text": None, "children": []}


def sub(parent: dict, tag: str, text: Optional[str] = None, **attributes) -> dict:
    """Append an element to a writer's tree and return it, as
    :func:`repro.xformats.xmlutil.sub` does to an element tree.
    Writers give text to childless elements only."""
    child = {
        "tag": tag,
        "attributes": _attributes(attributes) if attributes else attributes,
        "text": leaf_text(text),
        "children": [],
    }
    parent["children"].append(child)
    return child


def dict_to_element(document: dict) -> ET.Element:
    """Convert the JSON structure back into an element tree."""
    for key in ("tag", "attributes", "text", "children"):
        if key not in document:
            raise FormatError(f"XML-JSON document is missing key {key!r}")
    element = ET.Element(document["tag"], dict(document["attributes"]))
    element.text = document["text"]
    for child in document["children"]:
        element.append(dict_to_element(child))
    return element


def xml_to_json(xml_text: str) -> dict:
    """Parse XML text into the JSON structure."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise FormatError(f"malformed XML: {exc}") from exc
    return element_to_dict(root)


def json_to_xml(document: dict) -> str:
    """Render the JSON structure back as (pretty-printed) XML."""
    from repro.xformats.xmlutil import render

    return render(dict_to_element(document))


def xml_to_json_text(xml_text: str) -> str:
    """XML text -> JSON text (what actually crosses the repo boundary)."""
    return json.dumps(xml_to_json(xml_text))


def json_text_to_xml(json_text: str) -> str:
    """JSON text -> XML text."""
    try:
        document = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON: {exc}") from exc
    return json_to_xml(document)
