"""Shared workloads for the benchmark suite.

Provides the TPC-H requirement corpus used across experiments: the three
demo requirements (revenue, net profit, shipped quantity) plus a
parameterised family of further analytical requirements so scalability
sweeps (A3) can go well past the demo's size.  All requirements are
valid against the TPC-H ontology and interpretable end to end.

Also what the benchmark runners report every timing with: its median
and quartiles over the rounds (:func:`spread`) and the facts of the
host that measured it (:func:`host_facts`).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Dict, List

from repro import RequirementBuilder
from repro.core.requirements.model import InformationRequirement

def spread(values):
    """Median and quartiles of the rounds' values."""
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def host_facts():
    """Cores, Python version and the checked-out git commit (``-dirty``
    when the working tree has uncommitted changes)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git": commit,
    }


#: Deterministic row counts handed to the cost model in benchmarks.
ROW_COUNTS: Dict[str, int] = {
    "lineitem": 60000, "orders": 15000, "customer": 1500,
    "nation": 25, "region": 5, "part": 2000, "partsupp": 4000,
    "supplier": 100,
}

_NATIONS = [
    "SPAIN", "FRANCE", "GERMANY", "BRAZIL", "CANADA", "JAPAN",
    "CHINA", "INDIA", "EGYPT", "KENYA", "PERU", "RUSSIA",
]

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY"]

REVENUE_EXPR = "Lineitem_l_extendedprice * (1 - Lineitem_l_discount)"
NETPROFIT_EXPR = (
    "Lineitem_l_extendedprice * (1 - Lineitem_l_discount) "
    "- Partsupp_ps_supplycost * Lineitem_l_quantity"
)


def revenue_requirement(requirement_id: str = "IR1") -> InformationRequirement:
    """Figure 4: average revenue per part/supplier, customer in Spain."""
    return (
        RequirementBuilder(requirement_id, "avg revenue per part/supplier")
        .measure("revenue", REVENUE_EXPR, "AVERAGE")
        .per("Part_p_name", "Supplier_s_name")
        .where("Nation_n_name = 'SPAIN'")
        .build()
    )


def netprofit_requirement(requirement_id: str = "IR2") -> InformationRequirement:
    """Figure 3's second requirement: net profit per part brand."""
    return (
        RequirementBuilder(requirement_id, "net profit per part brand")
        .measure("netprofit", NETPROFIT_EXPR, "SUM")
        .per("Part_p_brand")
        .build()
    )


def quantity_requirement(requirement_id: str = "IR3") -> InformationRequirement:
    """Shipped quantity per ship mode and nation."""
    return (
        RequirementBuilder(requirement_id, "quantity per ship mode/nation")
        .measure("quantity", "Lineitem_l_quantity", "SUM")
        .per("Lineitem_l_shipmode", "Nation_n_name")
        .build()
    )


def requirement_corpus(count: int) -> List[InformationRequirement]:
    """The first ``count`` requirements of the benchmark corpus.

    Entries 0-2 are the demo requirements; entries 3+ vary measures,
    granularities and slicers so every requirement is distinct but
    overlaps the others in sources and operations (the regime the ETL
    integrator is built for).
    """
    corpus: List[InformationRequirement] = [
        revenue_requirement("IR1"),
        netprofit_requirement("IR2"),
        quantity_requirement("IR3"),
    ]
    variants = [
        ("revenue", REVENUE_EXPR, "SUM", ["Part_p_brand", "Nation_n_name"]),
        ("quantity", "Lineitem_l_quantity", "AVERAGE", ["Part_p_type"]),
        ("revenue", REVENUE_EXPR, "SUM",
         ["Customer_c_mktsegment", "Orders_o_orderpriority"]),
        ("supplycost", "Partsupp_ps_supplycost * Lineitem_l_quantity", "SUM",
         ["Supplier_s_name"]),
        ("revenue", REVENUE_EXPR, "MAX", ["Lineitem_l_returnflag"]),
        ("quantity", "Lineitem_l_quantity", "SUM",
         ["Region_r_name", "Part_p_brand"]),
    ]
    index = 3
    while len(corpus) < count:
        variant = variants[(index - 3) % len(variants)]
        name, expression, function, dimensions = variant
        builder = (
            RequirementBuilder(f"IR{index + 1}", f"corpus requirement {index + 1}")
            .measure(name, expression, function)
            .per(*dimensions)
        )
        # Slicers cycle through a small family (none / Spain / France),
        # mirroring how real requirement sets revisit the same business
        # conditions — this is the overlap the ETL integrator exploits.
        family = index % 3
        if family == 1:
            builder.where("Nation_n_name = 'SPAIN'")
        elif family == 2:
            builder.where("Nation_n_name = 'FRANCE'")
        corpus.append(builder.build())
        index += 1
    return corpus[:count]
