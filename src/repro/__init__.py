"""Quarry reproduction: incremental data-warehouse design from requirements.

A from-scratch implementation of *Quarry: Digging Up the Gems of Your
Data Treasury* (EDBT 2015): elicit analytical requirements over a domain
ontology, translate each into partial multidimensional (MD) schema and
ETL designs, incrementally integrate partial designs into a unified,
quality-optimised design, and deploy it (SQL DDL, Pentaho-PDI ``.ktr``,
or natively on the embedded engine).

Quickstart::

    from repro import Quarry, RequirementBuilder
    from repro.sources import tpch

    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    requirement = (
        RequirementBuilder("IR1", "avg revenue per part, Spain")
        .measure("revenue",
                 "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)",
                 "AVERAGE")
        .per("Part_p_name", "Supplier_s_name")
        .where("Nation_n_name = 'SPAIN'")
        .build()
    )
    quarry.add_requirement(requirement)
    md_schema, etl_flow = quarry.unified_design()
"""

from repro.core.requirements import RequirementBuilder
from repro.core.services import ChangeReport, DesignSession, DesignStatus
from repro.core.services.session import Quarry
from repro.errors import QuarryError

__version__ = "1.0.0"

__all__ = [
    "ChangeReport",
    "DesignSession",
    "DesignStatus",
    "Quarry",
    "QuarryError",
    "RequirementBuilder",
    "__version__",
]
