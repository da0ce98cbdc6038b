"""A4 — the communication & metadata layer's format round-trips.

The layer's correctness contract: every artefact survives
xRQ/xMD/xLM serialisation and the XML↔JSON↔XML repository boundary
byte-identically, and each writer's tree (``to_tree``, what the
services store) is what parsing its rendering gives.  Throughput is
measured per format on the Figure-3/4 documents; the "A4 encode" group
compares ``to_tree`` with rendering and re-parsing the same artefact.
"""

import pytest

from repro.core.interpreter import Interpreter
from repro.sources import tpch
from repro.xformats import xlm, xmd, xrq
from repro.xformats.xmljson import json_to_xml, xml_to_json

from benchmarks._workloads import revenue_requirement


@pytest.fixture(scope="module")
def design():
    interpreter = Interpreter(tpch.ontology(), tpch.schema(), tpch.mappings())
    return interpreter.interpret(revenue_requirement())


class TestRoundTripFidelity:
    def test_xrq_stable(self, design):
        text = xrq.dumps(design.requirement)
        assert xrq.dumps(xrq.loads(text)) == text

    def test_xmd_stable(self, design):
        text = xmd.dumps(design.md_schema)
        assert xmd.dumps(xmd.loads(text)) == text

    def test_xlm_stable(self, design):
        text = xlm.dumps(design.etl_flow)
        assert xlm.dumps(xlm.loads(text)) == text

    @pytest.mark.parametrize("format_name", ["xrq", "xmd", "xlm"])
    def test_repository_boundary_preserves_documents(self, design, format_name):
        text = {
            "xrq": lambda: xrq.dumps(design.requirement),
            "xmd": lambda: xmd.dumps(design.md_schema),
            "xlm": lambda: xlm.dumps(design.etl_flow),
        }[format_name]()
        assert json_to_xml(xml_to_json(text)) == text

    @pytest.mark.parametrize("format_name", ["xrq", "xmd", "xlm"])
    def test_tree_is_parsed_rendering(self, design, format_name):
        codec, value = _artefact(design, format_name)
        assert codec.to_tree(value) == xml_to_json(codec.dumps(value))


def _artefact(design, format_name):
    """(codec, object) of one format on the Figure-3/4 design."""
    return {
        "xrq": (xrq, design.requirement),
        "xmd": (xmd, design.md_schema),
        "xlm": (xlm, design.etl_flow),
    }[format_name]


class TestThroughput:
    @pytest.mark.parametrize("format_name", ["xrq", "xmd", "xlm"])
    def test_serialise(self, benchmark, design, format_name):
        action = {
            "xrq": lambda: xrq.dumps(design.requirement),
            "xmd": lambda: xmd.dumps(design.md_schema),
            "xlm": lambda: xlm.dumps(design.etl_flow),
        }[format_name]
        benchmark.group = "A4 serialise"
        benchmark.name = format_name
        assert benchmark(action)

    @pytest.mark.parametrize("format_name", ["xrq", "xmd", "xlm"])
    def test_parse(self, benchmark, design, format_name):
        text = {
            "xrq": lambda: xrq.dumps(design.requirement),
            "xmd": lambda: xmd.dumps(design.md_schema),
            "xlm": lambda: xlm.dumps(design.etl_flow),
        }[format_name]()
        parser = {"xrq": xrq.loads, "xmd": xmd.loads, "xlm": xlm.loads}[
            format_name
        ]
        benchmark.group = "A4 parse"
        benchmark.name = format_name
        assert benchmark(lambda: parser(text))

    @pytest.mark.parametrize("format_name", ["xrq", "xmd", "xlm"])
    @pytest.mark.parametrize("encoder", ["to_tree", "xml_to_json(dumps)"])
    def test_encode(self, benchmark, design, format_name, encoder):
        codec, value = _artefact(design, format_name)
        action = {
            "to_tree": lambda: codec.to_tree(value),
            "xml_to_json(dumps)": lambda: xml_to_json(codec.dumps(value)),
        }[encoder]
        benchmark.group = "A4 encode"
        benchmark.name = f"{format_name} {encoder}"
        assert benchmark(action)

    def test_xml_json_boundary(self, benchmark, design):
        text = xlm.dumps(design.etl_flow)
        benchmark.group = "A4 repository boundary"
        benchmark.name = "xml->json->xml"
        assert benchmark(lambda: json_to_xml(xml_to_json(text)))
