"""Configurable ETL cost model.

"ETL Process Integrator also accounts for the cost of produced ETL flows
[...] by applying configurable cost models that may consider different
quality factors of an ETL process (e.g., overall execution time)"
(§2.3).  The model here estimates overall execution time as processed
row volume weighted by per-operator unit costs:

* datastore cardinalities come from the caller (actual table sizes when
  deploying, or analyst estimates at design time),
* selections apply per-conjunct selectivities (equality is more
  selective than a range test),
* an equi-join is assumed key/foreign-key — output = max input,
* aggregations reduce to a configurable grouping ratio.

The absolute numbers are abstract cost units; benchmarks correlate them
with real executor timings (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import math

from repro.etlmodel.flow import EtlFlow
from repro.etlmodel.ops import (
    Aggregation,
    Datastore,
    Join,
    Operation,
    Selection,
    Sort,
)
from repro.expressions import parse
from repro.expressions.ast import BinaryOp, conjuncts


@dataclass(frozen=True)
class CostParameters:
    """Tunable knobs of the cost model."""

    #: cost units charged per input row, by operation kind
    unit_costs: Dict[str, float] = field(
        default_factory=lambda: {
            "Datastore": 1.0,  # scan
            "Extraction": 0.2,
            "Selection": 0.3,
            "Projection": 0.2,
            "Join": 1.5,
            "Aggregation": 1.2,
            "DerivedAttribute": 0.4,
            "Rename": 0.1,
            "Union": 0.1,
            "Distinct": 0.8,
            "SurrogateKey": 0.5,
            "Sort": 1.0,  # multiplied by log2(n)
            "Loader": 2.0,  # write amplification
        }
    )
    equality_selectivity: float = 0.1
    range_selectivity: float = 0.3
    default_selectivity: float = 0.5
    grouping_ratio: float = 0.1
    distinct_ratio: float = 0.3
    minimum_rows: float = 1.0


DEFAULT_PARAMETERS = CostParameters()

#: .. deprecated:: the unknown-kind fallback unit cost.  Every concrete
#:    operation kind has an explicit entry in ``unit_costs``, so this
#:    value is unreachable through the shipped operation set; it is kept
#:    only so third-party ``Operation`` subclasses do not crash the
#:    model and will be removed once the linter rejects unknown kinds.
_UNKNOWN_KIND_UNIT = 0.5


def calibrated_parameters(runs, base: CostParameters = DEFAULT_PARAMETERS) -> CostParameters:
    """Derive :class:`CostParameters` from measured executor timings.

    ``runs`` is an iterable of execution reports (anything with a
    ``.nodes`` list of :class:`repro.engine.executor.NodeStats`).  Per
    operation kind the median seconds-per-row is taken over all observed
    nodes and normalised so ``Datastore`` keeps its nominal unit cost
    (1.0) — the model stays in abstract units, but the *ratios* between
    operators now reflect this machine instead of hand-picked defaults.
    ``Sort``'s measured rate is divided by ``log2(n)`` first, matching
    the model's superlinear charge.  Kinds never observed (and every
    selectivity/ratio knob) keep their ``base`` values.
    """
    import statistics
    from dataclasses import replace

    samples: Dict[str, List[float]] = {}
    for run in runs:
        for node in run.nodes:
            rows = max(node.input_rows, node.output_rows)
            if rows <= 0 or node.seconds <= 0.0:
                continue
            per_row = node.seconds / rows
            if node.kind == "Sort":
                per_row /= max(1.0, math.log2(max(2.0, float(rows))))
            samples.setdefault(node.kind, []).append(per_row)
    if not samples:
        return base
    medians = {
        kind: statistics.median(values) for kind, values in samples.items()
    }
    # Normalise against the scan rate; when no scan was measured, anchor
    # on the observed kind with the smallest configured unit cost.
    reference = "Datastore"
    if reference not in medians:
        reference = min(
            medians,
            key=lambda kind: base.unit_costs.get(kind, _UNKNOWN_KIND_UNIT),
        )
    reference_unit = base.unit_costs.get(reference, _UNKNOWN_KIND_UNIT)
    scale = reference_unit / medians[reference]
    unit_costs = dict(base.unit_costs)
    for kind, median in medians.items():
        unit_costs[kind] = median * scale
    return replace(base, unit_costs=unit_costs)


@dataclass(frozen=True)
class NodeCost:
    """Estimated input volume, output volume and cost of one node."""

    name: str
    kind: str
    input_rows: float
    output_rows: float
    cost: float


@dataclass(frozen=True)
class FlowCostReport:
    """Per-node estimates plus the flow total."""

    flow: str
    nodes: List[NodeCost]
    total: float

    def node(self, name: str) -> NodeCost:
        for node_cost in self.nodes:
            if node_cost.name == name:
                return node_cost
        raise KeyError(name)


class CostModel:
    """Estimates flow execution cost from datastore cardinalities."""

    def __init__(self, parameters: CostParameters = DEFAULT_PARAMETERS) -> None:
        self._parameters = parameters

    def estimate(
        self, flow: EtlFlow, row_counts: Optional[Dict[str, int]] = None
    ) -> FlowCostReport:
        """Estimate the cost of a flow.

        ``row_counts`` maps datastore *table* names to cardinalities;
        missing tables default to 1000 rows.
        """
        node_costs: List[NodeCost] = []
        total = 0.0
        for operation, input_rows, output_rows, cost in self._walk(
            flow, row_counts
        ):
            total += cost
            node_costs.append(
                NodeCost(
                    name=operation.name,
                    kind=operation.kind,
                    input_rows=input_rows,
                    output_rows=output_rows,
                    cost=cost,
                )
            )
        return FlowCostReport(flow=flow.name, nodes=node_costs, total=total)

    def total(
        self, flow: EtlFlow, row_counts: Optional[Dict[str, int]] = None
    ) -> float:
        """``estimate(flow, row_counts).total``, without the report."""
        total = 0.0
        for __, __, __, cost in self._walk(flow, row_counts):
            total += cost
        return total

    # -- internals ---------------------------------------------------------

    def _walk(
        self, flow: EtlFlow, row_counts: Optional[Dict[str, int]]
    ) -> Iterator[Tuple[Operation, float, float, float]]:
        """Each node in topological order with its input rows, output
        rows and cost; :meth:`estimate` and :meth:`total` sum the costs
        in this order, so both return the same float."""
        counts = row_counts or {}
        # Per node we track (rows, fraction): ``fraction`` is the share
        # of the node's base lineage surviving filters so far; a
        # key/foreign-key join lets the dimension side's fraction thin
        # out the fact side (filtering a dimension filters the fact).
        estimates: Dict[str, tuple] = {}
        for operation, sources in flow.topological_inputs():
            inputs = [estimates[source] for source in sources]
            input_rows = [rows for rows, __ in inputs]
            output_rows, fraction = self._estimate_node(
                operation, inputs, counts
            )
            estimates[operation.name] = (output_rows, fraction)
            cost = self._node_cost(operation, input_rows, output_rows)
            yield operation, sum(input_rows), output_rows, cost

    def _estimate_node(
        self, operation, inputs: List[tuple], counts: Dict[str, int]
    ) -> tuple:
        """(output rows, surviving fraction) for one node."""
        p = self._parameters
        if isinstance(operation, Datastore):
            return float(counts.get(operation.table, 1000)), 1.0
        if isinstance(operation, Selection):
            rows, fraction = inputs[0]
            selectivity = self.selectivity(operation.predicate)
            return (
                max(p.minimum_rows, rows * selectivity),
                fraction * selectivity,
            )
        if isinstance(operation, Join):
            (left_rows, left_fraction), (right_rows, right_fraction) = inputs
            left_base = left_rows / max(left_fraction, 1e-9)
            right_base = right_rows / max(right_fraction, 1e-9)
            # The side with the larger base lineage is the fact side; the
            # other side's surviving fraction thins it out.
            if left_base >= right_base:
                rows = left_rows * right_fraction
            else:
                rows = right_rows * left_fraction
            return max(p.minimum_rows, rows), left_fraction * right_fraction
        if isinstance(operation, Aggregation):
            rows, __ = inputs[0]
            # Aggregation establishes a new granularity: reset fraction.
            return max(p.minimum_rows, rows * p.grouping_ratio), 1.0
        if operation.kind == "Union":
            return sum(rows for rows, __ in inputs), 1.0
        if operation.kind == "Distinct":
            rows, __ = inputs[0]
            return max(p.minimum_rows, rows * p.distinct_ratio), 1.0
        if inputs:
            return inputs[0]
        return p.minimum_rows, 1.0

    def selectivity(self, predicate: str) -> float:
        """Combined selectivity of a predicate's conjuncts."""
        p = self._parameters
        result = 1.0
        for conjunct in conjuncts(parse(predicate)):
            if isinstance(conjunct, BinaryOp) and conjunct.operator == "=":
                result *= p.equality_selectivity
            elif isinstance(conjunct, BinaryOp) and conjunct.operator in (
                "<",
                "<=",
                ">",
                ">=",
            ):
                result *= p.range_selectivity
            else:
                result *= p.default_selectivity
        return result

    def _node_cost(
        self, operation, inputs: List[float], output_rows: float
    ) -> float:
        p = self._parameters
        unit = p.unit_costs.get(operation.kind, _UNKNOWN_KIND_UNIT)
        volume = sum(inputs) if inputs else output_rows
        if isinstance(operation, Sort):
            return unit * volume * max(1.0, math.log2(max(2.0, volume)))
        if isinstance(operation, Join):
            # Sort-merge style: both inputs are consumed.
            return unit * volume
        if operation.kind == "Loader":
            return unit * output_rows
        return unit * volume
