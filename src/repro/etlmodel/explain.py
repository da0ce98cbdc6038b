"""Textual EXPLAIN rendering of ETL flows.

Renders a flow as an indented operator tree per loader (the way database
EXPLAIN output reads), optionally annotated with the cost model's row
and cost estimates.  Used by examples and handy when debugging
integration results::

    LOAD fact_table_revenue  [rows=3, cost=6]
      AGG_fact_table_revenue GroupBy(p_name, s_name)  [rows=30, ...]
        DERIVE_revenue Calculator(revenue)
          SELECTION_IR1_1 FilterRows(n_name = 'SPAIN')
            JOIN_nation MergeJoin(c_nationkey=n_nationkey)
              ...
            EXTRACTION_nation SelectValues(n_name, n_nationkey)
              DATASTORE_nation TableInput(nation)

Shared subtrees (a node feeding several consumers) are expanded once and
referenced as ``^see <name>`` afterwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.etlmodel.cost import CostModel, FlowCostReport
from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    Datastore,
    DerivedAttribute,
    Extraction,
    Join,
    Loader,
    Operation,
    Projection,
    Rename,
    Selection,
    Sort,
    SurrogateKey,
)


def explain(
    flow: EtlFlow,
    cost_model: Optional[CostModel] = None,
    row_counts: Optional[Dict[str, int]] = None,
) -> str:
    """Render the flow as indented per-loader operator trees."""
    report: Optional[FlowCostReport] = None
    if cost_model is not None:
        report = cost_model.estimate(flow, row_counts)
    lines: List[str] = [f"Flow '{flow.name}'"]
    if flow.requirements:
        lines.append(f"requirements: {', '.join(sorted(flow.requirements))}")
    expanded: set = set()
    for sink in flow.sinks():
        lines.append("")
        _render(flow, sink, 0, lines, expanded, report)
    return "\n".join(lines) + "\n"


def _render(flow, name, depth, lines, expanded, report) -> None:
    operation = flow.node(name)
    annotation = ""
    if report is not None:
        node = report.node(name)
        annotation = f"  [rows={node.output_rows:,.0f}, cost={node.cost:,.0f}]"
    pad = "  " * depth
    if name in expanded:
        lines.append(f"{pad}^see {name}")
        return
    expanded.add(name)
    lines.append(f"{pad}{name} {_describe(operation)}{annotation}")
    for source in flow.inputs(name):
        _render(flow, source, depth + 1, lines, expanded, report)


def _describe(operation: Operation) -> str:
    """A one-line summary of an operation's parameters."""
    if isinstance(operation, Datastore):
        return f"TableInput({operation.table})"
    if isinstance(operation, (Extraction, Projection)):
        return f"{operation.optype}({', '.join(operation.columns)})"
    if isinstance(operation, Selection):
        return f"FilterRows({operation.predicate})"
    if isinstance(operation, Join):
        pairs = ", ".join(
            f"{left}={right}"
            for left, right in zip(operation.left_keys, operation.right_keys)
        )
        kind = f", {operation.join_type}" if operation.join_type != "inner" else ""
        return f"MergeJoin({pairs}{kind})"
    if isinstance(operation, Aggregation):
        keys = ", ".join(operation.group_by) if operation.group_by else "ALL"
        outputs = ", ".join(
            f"{spec.output}={spec.function}({spec.input})"
            for spec in operation.aggregates
        )
        return f"GroupBy({keys} -> {outputs})"
    if isinstance(operation, DerivedAttribute):
        return f"Calculator({operation.output} = {operation.expression})"
    if isinstance(operation, Rename):
        renames = ", ".join(f"{old}->{new}" for old, new in operation.renaming)
        return f"Rename({renames})"
    if isinstance(operation, SurrogateKey):
        return (
            f"AddSequence({operation.output} over "
            f"{', '.join(operation.business_keys)})"
        )
    if isinstance(operation, Sort):
        return f"SortRows({', '.join(operation.keys)})"
    if isinstance(operation, Loader):
        return f"TableOutput({operation.table}, {operation.mode})"
    return operation.optype
