"""Unit tests for the ontology text serialisation."""

import pytest

from repro.errors import OntologyParseError
from repro.expressions import ScalarType
from repro.ontology import Multiplicity, OntologyBuilder
from repro.ontology import io as ontology_io
from repro.ontology.model import Concept


@pytest.fixture
def shop():
    return (
        OntologyBuilder("shop", description='toy "retail" domain')
        .concept("Item", label="Catalog item", description="anything sellable")
        .concept("Product", parent="Item")
        .concept("Sale")
        .attribute("Product_name", "Product", ScalarType.STRING, label="name")
        .attribute("Sale_amount", "Sale", ScalarType.DECIMAL)
        .relationship("Sale_product", "Sale", "Product", "N-1", label="sold product")
        .build()
    )


class TestRoundTrip:
    def test_dumps_loads_preserves_everything(self, shop):
        text = ontology_io.dumps(shop)
        parsed = ontology_io.loads(text)
        assert parsed.name == shop.name
        assert parsed.description == shop.description
        assert parsed.size() == shop.size()
        for concept in shop.concepts():
            assert parsed.concept(concept.id) == concept
        for prop in shop.datatype_properties():
            assert parsed.datatype_property(prop.id) == prop
        for prop in shop.object_properties():
            assert parsed.object_property(prop.id) == prop

    def test_double_roundtrip_is_fixed_point(self, shop):
        text = ontology_io.dumps(shop)
        assert ontology_io.dumps(ontology_io.loads(text)) == text

    def test_file_roundtrip(self, shop, tmp_path):
        path = tmp_path / "shop.ont"
        ontology_io.save(shop, path)
        parsed = ontology_io.load(path)
        assert parsed.size() == shop.size()

    def test_quotes_in_descriptions_survive(self, shop):
        parsed = ontology_io.loads(ontology_io.dumps(shop))
        assert parsed.description == 'toy "retail" domain'

    def test_renamed_parent_is_written_before_its_children(self, shop):
        shop.add_concept(Concept(id="Gadget", parent="Product"))
        # The rename moves Item behind its child Product.
        shop.rename_concept("Item", "Article")
        text = ontology_io.dumps(shop)
        parsed = ontology_io.loads(text)
        assert parsed.concept("Product").parent == "Article"
        assert parsed.concept("Gadget").parent == "Product"
        assert parsed.concept("Article") == shop.concept("Article")
        assert ontology_io.dumps(parsed) == text

    def test_merge_target_is_written_before_reparented_children(self, shop):
        # What merge_concepts("Item", "Sale") does to Item's child:
        # Product now hangs off Sale, which is declared after it.
        shop.replace_concept(Concept(id="Product", parent="Sale"))
        shop.remove_concept("Item")
        text = ontology_io.dumps(shop)
        parsed = ontology_io.loads(text)
        assert parsed.concept("Product").parent == "Sale"
        assert parsed.size() == shop.size()
        assert ontology_io.dumps(parsed) == text


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# header comment\n"
            "ontology t\n"
            "\n"
            "concept A\n"
            "# trailing comment\n"
        )
        parsed = ontology_io.loads(text)
        assert parsed.has_concept("A")

    def test_multiplicities_parse(self):
        text = (
            "ontology t\nconcept A\nconcept B\n"
            "relationship r1 A B 1-1\n"
            "relationship r2 A B N-N\n"
        )
        parsed = ontology_io.loads(text)
        assert parsed.object_property("r1").multiplicity is Multiplicity.ONE_TO_ONE
        assert parsed.object_property("r2").multiplicity is Multiplicity.MANY_TO_MANY

    @pytest.mark.parametrize(
        "text",
        [
            "",  # missing header
            "concept A\n",  # directive before header
            "ontology t\nontology u\n",  # duplicate header
            "ontology t\nbogus A\n",  # unknown directive
            "ontology t\nconcept\n",  # concept without id
            "ontology t\nconcept A label\n",  # option without value
            "ontology t\nconcept A weird x\n",  # unknown option
            "ontology t\nconcept A label noquotes\n",  # label not quoted
            'ontology t\nconcept A label "unterminated\n',
            "ontology t\nconcept A\nattribute p A nonsense\n",  # bad type
            "ontology t\nconcept A\nconcept B\nrelationship r A B 9-9\n",
        ],
    )
    def test_malformed_documents_raise(self, text):
        with pytest.raises(OntologyParseError):
            ontology_io.loads(text)

    def test_error_message_carries_line_number(self):
        with pytest.raises(OntologyParseError) as excinfo:
            ontology_io.loads("ontology t\nbogus A\n")
        assert "line 2" in str(excinfo.value)


class TestD3Export:
    def test_nodes_and_links(self, shop):
        from repro.ontology.d3 import to_d3

        doc = to_d3(shop)
        node_ids = {node["id"] for node in doc["nodes"]}
        assert node_ids == {"Item", "Product", "Sale"}
        link_kinds = {link["kind"] for link in doc["links"]}
        assert link_kinds == {"relationship", "subsumption"}

    def test_attributes_inlined_on_nodes(self, shop):
        from repro.ontology.d3 import to_d3

        doc = to_d3(shop)
        product = next(node for node in doc["nodes"] if node["id"] == "Product")
        assert product["attributes"][0]["id"] == "Product_name"

    def test_highlight_marks_focus_and_suggestions(self, shop):
        from repro.ontology.d3 import to_d3

        doc = to_d3(shop, highlight="Sale")
        by_id = {node["id"]: node for node in doc["nodes"]}
        assert by_id["Sale"]["focus"] is True
        assert by_id["Product"]["suggested"] is True
        assert by_id["Item"]["suggested"] is False

    def test_json_rendering(self, shop):
        import json

        from repro.ontology.d3 import to_d3_json

        parsed = json.loads(to_d3_json(shop))
        assert parsed["name"] == "shop"
