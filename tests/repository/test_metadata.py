"""Unit tests for the typed metadata repository.

The repository stores the XML→JSON trees its callers encoded; these
tests encode with the same ``xml_to_json(codec.dumps(...))`` the
services use.
"""

import pytest

from repro.errors import DocumentNotFoundError
from repro.repository import MetadataRepository
from repro.sources import tpch
from repro.xformats import xlm, xmd, xrq
from repro.xformats.xmljson import xml_to_json

from tests.core.conftest import build_revenue_requirement
from tests.etlmodel.conftest import build_revenue_flow
from tests.xformats.test_xmd import revenue_star


@pytest.fixture
def repo():
    return MetadataRepository()


def save_requirement(repo, requirement):
    repo.save_requirement(requirement, xml_to_json(xrq.dumps(requirement)))


def design_trees():
    """The (xMD, xLM) trees of the revenue star and its flow."""
    return (
        xml_to_json(xmd.dumps(revenue_star())),
        xml_to_json(xlm.dumps(build_revenue_flow())),
    )


class TestRequirements:
    def test_save_load(self, repo):
        requirement = build_revenue_requirement()
        save_requirement(repo, requirement)
        loaded = repo.load_requirement("IR1")
        assert loaded.measures == requirement.measures
        assert loaded.dimensions == requirement.dimensions

    def test_save_is_upsert(self, repo):
        save_requirement(repo, build_revenue_requirement())
        save_requirement(repo, build_revenue_requirement())
        assert repo.requirement_ids() == ["IR1"]

    def test_delete_cascades_to_partial_designs(self, repo):
        save_requirement(repo, build_revenue_requirement())
        repo.save_partial_design("IR1", *design_trees())
        repo.delete_requirement("IR1")
        assert repo.requirement_ids() == []
        assert repo.partial_design_ids() == []

    def test_load_missing_raises(self, repo):
        with pytest.raises(DocumentNotFoundError):
            repo.load_requirement("ghost")


class TestDesigns:
    def test_partial_design_roundtrip(self, repo):
        repo.save_partial_design("IR1", *design_trees())
        md, etl = repo.load_partial_design("IR1")
        assert set(md.facts) == {"fact_table_revenue"}
        assert set(etl.node_names()) == set(build_revenue_flow().node_names())
        assert repo.partial_design_ids() == ["IR1"]

    def test_unified_design_roundtrip(self, repo):
        repo.save_unified_design("v1", *design_trees(), ["IR1", "IR2"])
        md, etl, requirements = repo.load_unified_design("v1")
        assert requirements == ["IR1", "IR2"]
        assert md.has_dimension("Supplier")
        assert repo.unified_design_names() == ["v1"]


class TestOntologiesAndDeployments:
    def test_ontology_roundtrip(self, repo):
        ontology = tpch.ontology()
        repo.save_ontology(ontology)
        loaded = repo.load_ontology("tpch")
        assert loaded.size() == ontology.size()
        assert repo.ontology_names() == ["tpch"]

    def test_deployment_records(self, repo):
        repo.record_deployment("v1", "postgres", {"ddl": "CREATE ..."})
        repo.record_deployment("v1", "pdi", {"ktr": "<transformation/>"})
        deployments = repo.deployments_of("v1")
        assert {d["platform"] for d in deployments} == {"postgres", "pdi"}
        assert repo.deployments_of("other") == []


class TestPersistence:
    def test_full_repository_file_roundtrip(self, repo, tmp_path):
        save_requirement(repo, build_revenue_requirement())
        repo.save_partial_design("IR1", *design_trees())
        repo.save_unified_design("v1", *design_trees(), ["IR1"])
        repo.save_ontology(tpch.ontology())
        path = tmp_path / "metadata.json"
        repo.save_to(path)
        loaded = MetadataRepository.load_from(path)
        assert loaded.requirement_ids() == ["IR1"]
        md, etl = loaded.load_partial_design("IR1")
        assert md.has_fact("fact_table_revenue")
        assert loaded.load_ontology("tpch").has_concept("Lineitem")
