"""Engine core — compiled columnar executor vs legacy row interpreter.

The tentpole claim of the execution engine: lowering predicates and
derivations to compiled closures and running each operator over column
arrays makes flow execution several times faster than the row-at-a-time
tree-walking interpreter, while loading the same rows in the same order
on every workload.  ``python -m benchmarks.run_engine`` produces the
committed ``BENCH_engine.json`` numbers; this module pins the shape
under pytest-benchmark.
"""

import pytest

from repro.engine import Executor
from repro.fuzz.oracle import MODES, run_mode

from benchmarks.bench_s2_integration_etl import build_flows, compare_times
from benchmarks.conftest import make_database


@pytest.fixture(scope="module")
def workload():
    unified, partials = build_flows(6)
    return unified, partials


@pytest.fixture(scope="module")
def engine_db():
    return make_database(scale_factor=0.5)


@pytest.mark.parametrize("mode", ["legacy", "columnar"])
def test_integrated_flow_execution(benchmark, workload, engine_db, mode):
    unified, __ = workload
    executor = Executor(engine_db, mode=mode)
    benchmark.group = "engine core: integrated flow"
    benchmark.name = mode
    benchmark(lambda: executor.execute(unified))


@pytest.mark.parametrize("mode", ["legacy", "columnar"])
def test_partial_flows_execution(benchmark, workload, engine_db, mode):
    __, partials = workload
    executor = Executor(engine_db, mode=mode)
    benchmark.group = "engine core: partial flows"
    benchmark.name = mode
    benchmark(lambda: [executor.execute(flow) for flow in partials])


class TestEquivalenceAndShape:
    def test_modes_load_identical_tables(self, workload, engine_db):
        unified, __ = workload
        legacy, columnar = (
            run_mode(mode, engine_db, unified) for mode in MODES
        )
        assert legacy[0] == "ok", legacy
        assert legacy == columnar

    def test_columnar_is_faster_than_legacy(self, workload, engine_db):
        unified, __ = workload
        legacy = Executor(engine_db, mode="legacy")
        columnar = Executor(engine_db, mode="columnar")
        legacy.execute(unified)  # warm parse/compile/scan caches
        columnar.execute(unified)
        legacy_best, columnar_best = compare_times(
            lambda: legacy.execute(unified),
            lambda: columnar.execute(unified),
        )
        assert columnar_best < legacy_best

    def test_stats_report_throughput(self, workload, engine_db):
        unified, __ = workload
        stats = Executor(engine_db).execute(unified)
        assert all(node.rows_per_second >= 0.0 for node in stats.nodes)
        assert stats.total_rows_processed > 0
