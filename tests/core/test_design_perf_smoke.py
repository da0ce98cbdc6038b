"""Tier-1 smoke test of the design-pipeline benchmark.

Runs ``benchmarks.run_design.run_suite`` at a tiny size and asserts the
equivalence gates pass, plus — via the integration-call counters, not
wall-clock — that the incremental paths have not silently regressed to
full rebuilds.  Keeping this in the default test run means a change
that breaks incrementality fails CI even when it is functionally
correct.
"""

import pytest

from repro import Quarry, QuarryError
from repro.core.services.evolution import TOPIC_EVOLUTION
from repro.etlmodel.cost import CostModel
from repro.fuzz.flowgen import build_flow_trial
from repro.repository.metadata import decode_design
from repro.sources import tpch

from benchmarks._workloads import ROW_COUNTS, requirement_corpus
from benchmarks.run_design import run_suite

from .conftest import corpus_session


class TestBenchmarkSmoke:
    def test_tiny_suite_is_equivalence_clean(self):
        report, mismatches = run_suite(sizes=(4,), rounds=1, headline_size=4)
        assert mismatches == []
        assert report["all_results_identical"]
        assert report["design_sizes"]["4"]["results_identical"]
        assert report["ontology"]["results_identical"]

    def test_replay_gate_reports_a_replay_that_differs(self, monkeypatch):
        from repro.etlmodel.flow import EtlFlow
        from repro.mdmodel.model import MDSchema

        monkeypatch.setattr(
            Quarry,
            "replay_unified_design",
            lambda quarry: (MDSchema(name="unified"), EtlFlow(name="unified")),
        )
        report, mismatches = run_suite(sizes=(4,), rounds=1, headline_size=4)
        assert not report["all_results_identical"]
        assert not report["design_sizes"]["4"]["results_identical"]
        assert not report["evolution"]["4"]["results_identical"]
        assert sorted(mismatches) == sorted(
            f"{label}: bus-log replay differs from the design"
            for label in (
                "N=4: add then remove",
                "N=4: change",
                "N=4: remove",
                "N=4: re-add",
                "evolve@4",
            )
        )
        # The bus-log size is recorded next to the requirement count.
        at_4 = report["design_sizes"]["4"]
        assert at_4["requirements"] == 4 and at_4["bus_events"] > 0

    def test_incremental_paths_stay_sub_linear(self):
        # Counter-based, not timing-based: robust on loaded CI machines.
        report, __ = run_suite(sizes=(4,), rounds=1, headline_size=4)
        at_4 = report["design_sizes"]["4"]
        assert at_4["integrations_per_change"] == 1  # not 4
        assert at_4["integrations_for_remove_last"] == 0


class TestCounterHook:
    def test_add_does_one_integration_not_n(self):
        corpus = requirement_corpus(5)
        quarry = Quarry(
            tpch.ontology(), tpch.schema(), tpch.mappings(),
            row_counts=ROW_COUNTS,
        )
        for requirement in corpus[:4]:
            quarry.add_requirement(requirement)
        before = dict(quarry.integration_counts)
        quarry.add_requirement(corpus[4])
        assert quarry.integration_counts["md"] - before["md"] == 1
        assert quarry.integration_counts["etl"] - before["etl"] == 1


def node_subtrees(repository, position):
    """Each checkpoint operation with its ``<node>`` subtree."""
    xmd_tree, xlm_tree = repository.checkpoint_trees(position)
    __, flow = decode_design(xmd_tree, xlm_tree)
    (nodes,) = [
        child for child in xlm_tree["children"] if child["tag"] == "nodes"
    ]
    return dict(zip(flow.nodes(), nodes["children"]))


def element_subtrees(repository, position):
    """Each checkpoint ``<fact>`` and ``<dimension>`` subtree, by tag
    and name."""
    xmd_tree, __ = repository.checkpoint_trees(position)
    return {
        (element["tag"], element["children"][0]["text"]): element
        for section in xmd_tree["children"]
        for element in section["children"]
    }


class TestFoldStepCost:
    """A fold step pays for what the partial adds, counted, not timed."""

    def test_refold_step_prices_only_the_new_flow_and_the_partial(
        self, monkeypatch
    ):
        quarry = corpus_session(12)
        calls = []
        walk = CostModel._walk

        def counting(model, flow, row_counts):
            calls.append(flow.name)
            return walk(model, flow, row_counts)

        # ``estimate`` and ``total`` both price a flow through this walk.
        monkeypatch.setattr(CostModel, "_walk", counting)
        report = quarry.rename_concept("Customer", "Client123")
        steps = len(quarry.requirements()) - report.refolded_from
        assert steps == 7
        # The unified flow's cost comes from the checkpoint the step
        # starts from, not from pricing it again.
        assert len(calls) == 2 * steps

    def test_refused_evolution_runs_each_refold_step_once(self):
        quarry = corpus_session(12)

        def refuse(envelope):
            raise QuarryError("evolution refused")

        quarry.bus.subscribe(TOPIC_EVOLUTION, refuse)
        order = quarry.integration.order()
        events = quarry.repository.bus_event_count()
        before = dict(quarry.integration_counts)
        with pytest.raises(QuarryError, match="evolution refused"):
            quarry.rename_concept("Customer", "Client123")
        # Seven fold steps ran forward; putting the captured fold state
        # back re-folds nothing.
        assert {
            kind: quarry.integration_counts[kind] - before[kind]
            for kind in before
        } == {"md": 7, "etl": 7}
        assert quarry.integration.order() == order
        assert quarry.repository.bus_event_count() == events

    def test_consecutive_checkpoints_share_unchanged_node_subtrees(self):
        quarry = corpus_session(12)
        quarry.rename_concept("Customer", "Client123")
        repository = quarry.repository
        shared = 0
        before = node_subtrees(repository, 0)
        for position in range(1, repository.checkpoint_count()):
            after = node_subtrees(repository, position)
            for operation, subtree in after.items():
                if operation in before:
                    assert subtree is before[operation], operation
                    shared += 1
            before = after
        assert shared > 0

    def test_consecutive_checkpoints_share_unchanged_element_subtrees(self):
        quarry = corpus_session(12)
        quarry.rename_concept("Customer", "Client123")
        repository = quarry.repository
        shared = 0
        before = element_subtrees(repository, 0)
        for position in range(1, repository.checkpoint_count()):
            after = element_subtrees(repository, position)
            for element, subtree in after.items():
                if before.get(element) == subtree:
                    assert subtree is before[element], element
                    shared += 1
            before = after
        assert shared > 0

    def test_total_equals_the_estimate_total(self):
        quarry = corpus_session(12)
        model = quarry.integration.cost_model
        priced = [
            (checkpoint.etl_flow, counts)
            for checkpoint in quarry.integration._checkpoints
            for counts in (ROW_COUNTS, None)
        ]
        for seed in range(60):
            trial = build_flow_trial(seed)
            counts = {table.name: len(table.rows) for table in trial.tables}
            priced.append((trial.flow, counts))
        for flow, counts in priced:
            assert model.total(flow, counts) == model.estimate(flow, counts).total
