"""Core fixtures: TPC-H domain and the paper's running requirements."""

import pytest

from repro import Quarry
from repro.core.requirements import RequirementBuilder
from repro.sources import tpch

from benchmarks._workloads import ROW_COUNTS, requirement_corpus


@pytest.fixture(scope="session")
def tpch_domain():
    """(ontology, schema, mappings) for TPC-H."""
    return tpch.ontology(), tpch.schema(), tpch.mappings()


def build_revenue_requirement(requirement_id="IR1"):
    """Figure 4: average revenue per part and supplier, Nation = Spain."""
    return (
        RequirementBuilder(
            requirement_id,
            "Analyze the average revenue per part and supplier name, "
            "for orders from Spain",
        )
        .measure(
            "revenue",
            "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)",
            "AVERAGE",
        )
        .per("Part_p_name", "Supplier_s_name")
        .where("Nation_n_name = 'SPAIN'")
        .build()
    )


def build_netprofit_requirement(requirement_id="IR2"):
    """Figure 3's second requirement: net profit per part brand."""
    return (
        RequirementBuilder(
            requirement_id, "Analyze total net profit per part brand"
        )
        .measure(
            "netprofit",
            "Lineitem_l_extendedprice * (1 - Lineitem_l_discount) "
            "- Partsupp_ps_supplycost * Lineitem_l_quantity",
            "SUM",
        )
        .per("Part_p_brand")
        .build()
    )


def build_quantity_requirement(requirement_id="IR3"):
    """A third requirement: shipped quantity per ship mode and nation."""
    return (
        RequirementBuilder(
            requirement_id, "Analyze shipped quantity per ship mode and nation"
        )
        .measure("quantity", "Lineitem_l_quantity", "SUM")
        .per("Lineitem_l_shipmode", "Nation_n_name")
        .build()
    )


@pytest.fixture
def revenue_requirement():
    return build_revenue_requirement()


@pytest.fixture
def netprofit_requirement():
    return build_netprofit_requirement()


def corpus_session(count):
    """A session holding the first ``count`` benchmark-corpus
    requirements, integrated with the benchmarks' row counts."""
    quarry = Quarry(
        tpch.ontology(), tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
    )
    for requirement in requirement_corpus(count):
        quarry.add_requirement(requirement)
    return quarry
