"""A1 — ablation: equivalence-rule alignment in the ETL integrator.

"ETL Process Integrator aligns the order of ETL operations by applying
generic equivalence rules" (§2.3).  This ablation measures the reuse
found with and without the alignment, over flow pairs that compute the
same thing with operations in different orders (the situation alignment
exists for).  Expected shape: aligned reuse >= unaligned reuse, strictly
greater on reordered pairs.
"""

import pytest

from repro.core.integrator import EtlIntegrator
from repro.etlmodel import (
    Datastore,
    DerivedAttribute,
    EtlFlow,
    Extraction,
    Loader,
    Selection,
)


def reordered_pair(variant_count=4):
    """Flows applying the same filter + derive + extract in different
    orders (every legal permutation of the unary segment)."""
    stages = {
        "sel": lambda: Selection("SEL", predicate="a = 'x' and b = 'y'"),
        "ext": lambda: Extraction("EXT", columns=("a", "b", "c")),
        "der": lambda: DerivedAttribute("DER", output="d", expression="c + c"),
    }
    orders = [
        ("sel", "ext", "der"),
        ("ext", "sel", "der"),
        ("ext", "der", "sel"),
        ("der", "ext", "sel"),
    ][:variant_count]
    flows = []
    for index, order in enumerate(orders):
        flow = EtlFlow(f"variant_{index}", requirements={f"R{index}"})
        chain = [
            Datastore("SRC", table="t", columns=("a", "b", "c")),
        ]
        chain.extend(stages[stage]() for stage in order)
        chain.append(Loader(f"LOAD_{index}", table=f"out_{index}"))
        flow.chain(*chain)
        flows.append(flow)
    return flows


def consolidate_pairwise(flows, align):
    integrator = EtlIntegrator(align=align)
    unified = flows[0].copy()
    reused = 0
    for flow in flows[1:]:
        result = integrator.consolidate(unified, flow)
        unified = result.flow
        reused += len(result.reused)
    return unified, reused


class TestAblation:
    def test_alignment_finds_reordered_overlap(self):
        flows = reordered_pair()
        __, aligned_reuse = consolidate_pairwise(flows, align=True)
        __, unaligned_reuse = consolidate_pairwise(flows, align=False)
        assert aligned_reuse > unaligned_reuse

    def test_aligned_unified_flow_is_smaller(self):
        flows = reordered_pair()
        aligned, __ = consolidate_pairwise(flows, align=True)
        unaligned, __ = consolidate_pairwise(flows, align=False)
        assert len(aligned) < len(unaligned)

    def test_both_results_execute_identically(self):
        from repro.engine import Database, Executor, TableDef
        from repro.expressions import ScalarType

        flows = reordered_pair()
        results = {}
        for align in (True, False):
            database = Database()
            database.create_table(TableDef(
                "t",
                {"a": ScalarType.STRING, "b": ScalarType.STRING,
                 "c": ScalarType.STRING},
            ))
            database.insert_many("t", [
                {"a": "x", "b": "y", "c": "1"},
                {"a": "x", "b": "z", "c": "2"},
                {"a": "q", "b": "y", "c": "3"},
            ])
            unified, __ = consolidate_pairwise(flows, align=align)
            Executor(database).execute(unified)
            results[align] = {
                table: database.scan(table).rows
                for table in ("out_0", "out_1", "out_2", "out_3")
            }
        for table in results[True]:
            key = lambda row: sorted(row.items())
            assert sorted(results[True][table], key=key) == sorted(
                results[False][table], key=key
            )

    def test_alignment_no_worse_on_generated_flows(self):
        from repro.core.interpreter import Interpreter
        from repro.sources import tpch

        from benchmarks._workloads import requirement_corpus

        interpreter = Interpreter(
            tpch.ontology(), tpch.schema(), tpch.mappings()
        )
        # The first three corpus requirements have distinct fact tables,
        # so raw pairwise consolidation is well-defined without the
        # session's loader retargeting.
        partials = [
            interpreter.interpret(requirement).etl_flow
            for requirement in requirement_corpus(3)
        ]
        aligned, aligned_reuse = consolidate_pairwise(partials, align=True)
        unaligned, unaligned_reuse = consolidate_pairwise(partials, align=False)
        assert len(aligned) <= len(unaligned)


@pytest.mark.parametrize("align", [True, False])
def test_consolidation_speed(benchmark, align):
    from repro.core.interpreter import Interpreter
    from repro.sources import tpch

    from benchmarks._workloads import requirement_corpus

    interpreter = Interpreter(tpch.ontology(), tpch.schema(), tpch.mappings())
    partials = [
        interpreter.interpret(requirement).etl_flow
        for requirement in requirement_corpus(3)
    ]
    benchmark.group = "A1 consolidation"
    benchmark.name = "aligned" if align else "unaligned"
    unified, __ = benchmark(lambda: consolidate_pairwise(partials, align))
    assert unified.validate() == []
