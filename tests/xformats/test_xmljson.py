"""Unit tests for the generic XML↔JSON converter and parser registry."""

import pytest

from repro.errors import FormatError
from repro.xformats import FormatRegistry, json_to_xml, xml_to_json, xmljson
from repro.xformats.xmljson import json_text_to_xml, xml_to_json_text


class TestXmlJson:
    def test_simple_roundtrip(self):
        xml = "<a x=\"1\"><b>hello</b><c/></a>"
        document = xml_to_json(xml)
        assert document["tag"] == "a"
        assert document["attributes"] == {"x": "1"}
        assert document["children"][0]["text"] == "hello"
        rendered = json_to_xml(document)
        assert xml_to_json(rendered) == document

    def test_xrq_document_roundtrips_through_json(self):
        from repro.xformats import xrq
        from tests.core.conftest import build_revenue_requirement

        xml = xrq.dumps(build_revenue_requirement())
        roundtripped = json_to_xml(xml_to_json(xml))
        assert xrq.loads(roundtripped).measures == (
            build_revenue_requirement().measures
        )

    def test_xlm_document_roundtrips_through_json(self):
        from repro.xformats import xlm
        from tests.etlmodel.conftest import build_revenue_flow

        xml = xlm.dumps(build_revenue_flow())
        parsed = xlm.loads(json_to_xml(xml_to_json(xml)))
        assert set(parsed.node_names()) == set(
            build_revenue_flow().node_names()
        )

    def test_text_level_roundtrip(self):
        xml = "<doc><v>1</v></doc>"
        json_text = xml_to_json_text(xml)
        assert '"tag": "doc"' in json_text
        assert "<v>1</v>" in json_text_to_xml(json_text)

    def test_whitespace_only_text_is_dropped(self):
        document = xml_to_json("<a>\n  <b/>\n</a>")
        assert document["text"] is None

    def test_whitespace_only_leaf_text_is_kept(self):
        assert xml_to_json("<a> </a>")["text"] == " "

    @pytest.mark.parametrize(
        "text, read",
        [
            (None, None),
            ("", None),
            (" ", " "),
            ("a\r\nb\rc", "a\nb\nc"),
            ("<&>\U0001F600", "<&>\U0001F600"),
        ],
    )
    def test_leaf_text_is_what_the_parser_reads(self, text, read):
        tree = xmljson.root("r")
        xmljson.sub(tree, "leaf", text, id="a\r\n\t")
        assert tree == xml_to_json(json_to_xml(tree))
        assert tree["children"][0]["text"] == read
        assert tree["children"][0]["attributes"] == {"id": "a\r\n\t"}

    @pytest.mark.parametrize("bad", ["\x01", "\x0b", "\ufffe", "\ud800"])
    def test_character_xml_forbids_raises(self, bad):
        tree = xmljson.root("r")
        with pytest.raises(FormatError, match="XML 1.0"):
            xmljson.sub(tree, "leaf", f"a{bad}")
        with pytest.raises(FormatError, match="XML 1.0"):
            xmljson.sub(tree, "leaf", id=bad)

    def test_malformed_xml_raises(self):
        with pytest.raises(FormatError):
            xml_to_json("<a>")

    def test_malformed_json_raises(self):
        with pytest.raises(FormatError):
            json_text_to_xml("{not json")

    def test_incomplete_document_raises(self):
        with pytest.raises(FormatError):
            json_to_xml({"tag": "a"})


class TestRegistry:
    def test_builtins_registered(self):
        registry = FormatRegistry()
        assert registry.notations("requirement", "export") == ["xrq"]
        assert registry.notations("md_schema", "import") == ["xmd"]
        assert registry.notations("etl_flow", "export") == ["xlm"]
        assert registry.notations("envelope", "export") == ["json"]

    def test_export_import_through_registry(self):
        from tests.core.conftest import build_revenue_requirement

        registry = FormatRegistry()
        requirement = build_revenue_requirement()
        text = registry.export("requirement", "xrq", requirement)
        parsed = registry.import_("requirement", "xrq", text)
        assert parsed.id == requirement.id

    def test_register_custom_notation(self):
        registry = FormatRegistry()
        registry.register(
            "etl_flow", "piglatin", "export",
            lambda flow: f"-- pig for {flow.name}",
            description="Apache PigLatin sketch",
        )
        from repro.etlmodel import EtlFlow

        assert registry.export("etl_flow", "piglatin", EtlFlow("f")) == (
            "-- pig for f"
        )

    def test_duplicate_registration_rejected(self):
        registry = FormatRegistry()
        with pytest.raises(FormatError):
            registry.register("etl_flow", "xlm", "export", lambda flow: "")

    def test_replace_allows_override(self):
        registry = FormatRegistry()
        registry.register(
            "etl_flow", "xlm", "export", lambda flow: "override", replace=True
        )
        from repro.etlmodel import EtlFlow

        assert registry.export("etl_flow", "xlm", EtlFlow("f")) == "override"

    def test_unknown_lookup_raises(self):
        registry = FormatRegistry()
        with pytest.raises(FormatError):
            registry.lookup("etl_flow", "cobol", "export")

    def test_bad_artifact_or_direction_rejected(self):
        registry = FormatRegistry()
        with pytest.raises(FormatError):
            registry.register("bogus", "x", "export", lambda value: "")
        with pytest.raises(FormatError):
            registry.register("etl_flow", "x", "sideways", lambda value: "")

    def test_entries_enumeration(self):
        registry = FormatRegistry()
        # xRQ/xMD/xLM import+export, plus the bus envelope's JSON codec.
        assert len(registry.entries()) == 8

    def test_envelope_roundtrip_through_registry(self):
        from repro.core.services import ArtifactEnvelope

        registry = FormatRegistry()
        envelope = ArtifactEnvelope(
            topic="partials", kind="partial.created", session="default",
            sequence=3, position=7, producer="interpretation",
            payload={"requirement": "IR1"},
        )
        text = registry.export("envelope", "json", envelope)
        assert registry.import_("envelope", "json", text) == envelope
