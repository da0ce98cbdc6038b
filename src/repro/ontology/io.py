"""Text serialisation of ontologies.

A compact, line-oriented functional syntax standing in for OWL files:

.. code-block:: text

    ontology tpch "TPC-H sources"
    concept Lineitem label "Line item"
    concept Part parent Item
    attribute Lineitem_l_discount Lineitem decimal label "discount"
    relationship Lineitem_order Lineitem Orders N-1 label "of order"

Lines starting with ``#`` are comments.  Strings use double quotes with
``\"`` escaping.  The format round-trips exactly (see tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import OntologyParseError
from repro.expressions.types import ScalarType
from repro.ontology.model import (
    Concept,
    DatatypeProperty,
    Multiplicity,
    ObjectProperty,
    Ontology,
)


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _parents_first(ontology: Ontology) -> List[Concept]:
    """The concepts in declaration order, but each after its parent.

    :func:`loads` adds concepts in text order and a parent must exist
    before its children.  Renaming a concept moves it to the end of the
    declaration order, and a merge can re-parent a concept onto one
    declared after it; an ontology whose parents already come first
    keeps its order.
    """
    ordered: Dict[str, Concept] = {}
    for concept in ontology.concepts():
        chain: List[Concept] = []
        while concept.id not in ordered and concept not in chain:
            chain.append(concept)
            if concept.parent is None:
                break
            concept = ontology.concept(concept.parent)
        for ancestor in reversed(chain):
            ordered[ancestor.id] = ancestor
    return list(ordered.values())


def dumps(ontology: Ontology) -> str:
    """Serialise an ontology to its text representation."""
    lines = [f"ontology {ontology.name} {_quote(ontology.description)}"]
    for concept in _parents_first(ontology):
        parts = [f"concept {concept.id}"]
        if concept.parent is not None:
            parts.append(f"parent {concept.parent}")
        if concept.label is not None:
            parts.append(f"label {_quote(concept.label)}")
        if concept.description:
            parts.append(f"doc {_quote(concept.description)}")
        lines.append(" ".join(parts))
    for prop in ontology.datatype_properties():
        parts = [f"attribute {prop.id} {prop.concept} {prop.range.value}"]
        if prop.label is not None:
            parts.append(f"label {_quote(prop.label)}")
        if prop.description:
            parts.append(f"doc {_quote(prop.description)}")
        lines.append(" ".join(parts))
    for prop in ontology.object_properties():
        parts = [
            f"relationship {prop.id} {prop.domain} {prop.range} "
            f"{prop.multiplicity.value}"
        ]
        if prop.label is not None:
            parts.append(f"label {_quote(prop.label)}")
        if prop.description:
            parts.append(f"doc {_quote(prop.description)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def loads(text: str) -> Ontology:
    """Parse the text representation back into an :class:`Ontology`."""
    ontology: Optional[Ontology] = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _tokenize_line(line, line_no)
        keyword = tokens[0]
        if keyword == "ontology":
            if ontology is not None:
                raise OntologyParseError(
                    f"line {line_no}: duplicate ontology header"
                )
            ontology = _parse_header(tokens, line_no)
            continue
        if ontology is None:
            raise OntologyParseError(
                f"line {line_no}: expected 'ontology' header before {keyword!r}"
            )
        if keyword == "concept":
            ontology.add_concept(_parse_concept(tokens, line_no))
        elif keyword == "attribute":
            ontology.add_datatype_property(_parse_attribute(tokens, line_no))
        elif keyword == "relationship":
            ontology.add_object_property(_parse_relationship(tokens, line_no))
        else:
            raise OntologyParseError(
                f"line {line_no}: unknown directive {keyword!r}"
            )
    if ontology is None:
        raise OntologyParseError("missing 'ontology' header")
    return ontology


def save(ontology: Ontology, path) -> None:
    """Write an ontology to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(ontology))


def load(path) -> Ontology:
    """Read an ontology from a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


# -- line-level parsing ------------------------------------------------------


def _tokenize_line(line: str, line_no: int) -> List[str]:
    """Split a line into bare words and quoted strings.

    Quoted strings keep a leading sentinel so later stages can tell the
    word ``label`` from the string ``"label"``.
    """
    tokens: List[str] = []
    index = 0
    length = len(line)
    while index < length:
        char = line[index]
        if char in " \t":
            index += 1
            continue
        if char == '"':
            value, index = _read_quoted(line, index, line_no)
            tokens.append("\0" + value)
            continue
        start = index
        while index < length and line[index] not in ' \t"':
            index += 1
        tokens.append(line[start:index])
    return tokens


def _read_quoted(line: str, start: int, line_no: int) -> Tuple[str, int]:
    index = start + 1
    pieces: List[str] = []
    while index < len(line):
        char = line[index]
        if char == "\\" and index + 1 < len(line):
            pieces.append(line[index + 1])
            index += 2
            continue
        if char == '"':
            return "".join(pieces), index + 1
        pieces.append(char)
        index += 1
    raise OntologyParseError(f"line {line_no}: unterminated string")


def _string_token(token: str, line_no: int) -> str:
    if not token.startswith("\0"):
        raise OntologyParseError(f"line {line_no}: expected a quoted string")
    return token[1:]


def _parse_options(tokens: List[str], line_no: int) -> dict:
    """Parse trailing ``parent X``, ``label "..."``, ``doc "..."`` pairs."""
    options = {}
    index = 0
    while index < len(tokens):
        key = tokens[index]
        if key not in ("parent", "label", "doc"):
            raise OntologyParseError(
                f"line {line_no}: unexpected token {key!r}"
            )
        if index + 1 >= len(tokens):
            raise OntologyParseError(f"line {line_no}: {key} needs a value")
        value = tokens[index + 1]
        if key in ("label", "doc"):
            value = _string_token(value, line_no)
        options[key] = value
        index += 2
    return options


def _parse_header(tokens: List[str], line_no: int) -> Ontology:
    if len(tokens) < 2:
        raise OntologyParseError(f"line {line_no}: ontology header needs a name")
    description = ""
    if len(tokens) >= 3:
        description = _string_token(tokens[2], line_no)
    return Ontology(name=tokens[1], description=description)


def _parse_concept(tokens: List[str], line_no: int) -> Concept:
    if len(tokens) < 2:
        raise OntologyParseError(f"line {line_no}: concept needs an id")
    options = _parse_options(tokens[2:], line_no)
    return Concept(
        id=tokens[1],
        parent=options.get("parent"),
        label=options.get("label"),
        description=options.get("doc", ""),
    )


def _parse_attribute(tokens: List[str], line_no: int) -> DatatypeProperty:
    if len(tokens) < 4:
        raise OntologyParseError(
            f"line {line_no}: attribute needs id, concept and type"
        )
    try:
        scalar_type = ScalarType(tokens[3])
    except ValueError:
        raise OntologyParseError(
            f"line {line_no}: unknown scalar type {tokens[3]!r}"
        ) from None
    options = _parse_options(tokens[4:], line_no)
    return DatatypeProperty(
        id=tokens[1],
        concept=tokens[2],
        range=scalar_type,
        label=options.get("label"),
        description=options.get("doc", ""),
    )


def _parse_relationship(tokens: List[str], line_no: int) -> ObjectProperty:
    if len(tokens) < 5:
        raise OntologyParseError(
            f"line {line_no}: relationship needs id, domain, range, multiplicity"
        )
    try:
        multiplicity = Multiplicity(tokens[4])
    except ValueError:
        raise OntologyParseError(
            f"line {line_no}: unknown multiplicity {tokens[4]!r}"
        ) from None
    options = _parse_options(tokens[5:], line_no)
    return ObjectProperty(
        id=tokens[1],
        domain=tokens[2],
        range=tokens[3],
        multiplicity=multiplicity,
        label=options.get("label"),
        description=options.get("doc", ""),
    )
