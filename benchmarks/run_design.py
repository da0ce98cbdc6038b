"""Design-pipeline benchmark runner: incremental vs from-scratch.

Measures the three layers the sub-linear design pipeline rests on and
writes ``BENCH_design.json``, each time as the median and quartiles of
its rounds, under the host's facts (cores, Python, git commit):

* **integrator** — at several design sizes N, the cost of accommodating
  a change (add / change / remove of the most recent requirement)
  against a full ``rebuild()`` over all N partial designs,
* **evolution** — ``evolve@N``: one design-evolution operator (a
  concept rename) applied incrementally (re-interpret affected
  requirements, re-fold from the earliest affected checkpoint) against
  rebuilding the whole session over the evolved domain,
* **ontology** — cached to-one closures on a warm
  :class:`~repro.ontology.graph.OntologyGraph` against uncached
  recomputation.

The runner is also an equivalence gate: every incremental result is
compared against a from-scratch reference (same xMD/xLM serialisation,
same requirement order; identical closures and paths for the
ontology), the bus-log replay (``replay_unified_design``) must
reproduce the design after every incremental, changed, removed and
evolved scenario, and the process exits non-zero on any disagreement —
a speedup (a ratio of medians) is only reported for results that are
known identical.  Each design size also records how many events its
bus log holds next to its requirement count: the log is compacted after
committed changes, so it stays in proportion to the design, not to the
number of changes.

Usage::

    python -m benchmarks.run_design [--output BENCH_design.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

try:
    import repro  # noqa: F401  (needs PYTHONPATH=src or an install)
except ModuleNotFoundError:  # running from a source checkout
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
    )

from repro import Quarry
from repro.ontology.graph import OntologyGraph
from repro.sources import tpch
from repro.xformats import xlm, xmd

from benchmarks._workloads import (
    ROW_COUNTS,
    host_facts,
    requirement_corpus,
    spread,
)

SIZES = (8, 32, 64, 128)
ROUNDS = 5
HEADLINE_SIZE = 64


def fresh_quarry() -> Quarry:
    return Quarry(
        tpch.ontology(), tpch.schema(), tpch.mappings(), row_counts=ROW_COUNTS
    )


def build_design(count: int) -> Quarry:
    quarry = fresh_quarry()
    for requirement in requirement_corpus(count):
        quarry.add_requirement(requirement)
    return quarry


def design_fingerprint(quarry: Quarry):
    md_schema, etl_flow = quarry.unified_design()
    return (
        xmd.dumps(md_schema),
        xlm.dumps(etl_flow),
        [requirement.id for requirement in quarry.requirements()],
    )


def check_replay(quarry: Quarry, label: str, mismatches) -> None:
    """The bus-log replay must reproduce the session's design."""
    md_schema, etl_flow = quarry.replay_unified_design()
    replayed = (xmd.dumps(md_schema), xlm.dumps(etl_flow))
    if replayed != design_fingerprint(quarry)[:2]:
        mismatches.append(f"{label}: bus-log replay differs from the design")


def elapsed_ms(action) -> float:
    """Milliseconds one call of ``action`` takes."""
    started = time.perf_counter()
    action()
    return (time.perf_counter() - started) * 1000


def timed(rounds, action):
    """Median and quartiles of ``action``'s milliseconds over the rounds."""
    return spread([elapsed_ms(action) for __ in range(rounds)])


def speedup(slow, fast) -> float:
    """How many times faster ``fast`` is, as a ratio of medians."""
    return slow["median"] / fast["median"]


def show(timing) -> str:
    """A timing as ``median [q1-q3]``, for the progress lines."""
    return f"{timing['median']:.1f}ms [{timing['q1']:.1f}-{timing['q3']:.1f}]"


# -- integrator layer ---------------------------------------------------------


def run_integrator_workloads(sizes, rounds, mismatches):
    results = {}
    for count in sizes:
        corpus = requirement_corpus(count + 1)
        quarry = build_design(count)
        last = corpus[count - 1]
        extra = corpus[count]

        rebuild = timed(rounds, quarry.rebuild)

        # Incremental add of one more requirement; the follow-up remove
        # restores the N-requirement design (and is itself free: the
        # removed requirement is the most recent checkpoint).
        add_ms = []
        for __ in range(rounds):
            add_ms.append(elapsed_ms(lambda: quarry.add_requirement(extra)))
            quarry.remove_requirement(extra.id)
        add = spread(add_ms)
        check_replay(quarry, f"N={count}: add then remove", mismatches)

        counts_before = dict(quarry.integration_counts)
        change = timed(rounds, lambda: quarry.change_requirement(last))
        change_integrations = (
            quarry.integration_counts["md"] - counts_before["md"]
        ) // rounds
        check_replay(quarry, f"N={count}: change", mismatches)

        counts_before = dict(quarry.integration_counts)
        quarry.remove_requirement(last.id)
        remove_integrations = (
            quarry.integration_counts["md"] - counts_before["md"]
        )
        check_replay(quarry, f"N={count}: remove", mismatches)
        readd_ms = elapsed_ms(lambda: quarry.add_requirement(last))
        check_replay(quarry, f"N={count}: re-add", mismatches)

        # Equivalence gate: after all the timed churn the design must be
        # indistinguishable from a from-scratch build of the same order.
        reference = build_design(count)
        if design_fingerprint(quarry) != design_fingerprint(reference):
            mismatches.append(
                f"N={count}: incremental design differs from "
                f"from-scratch reference"
            )
        results[str(count)] = {
            "requirements": len(quarry.requirements()),
            "bus_events": quarry.repository.bus_event_count(),
            "rebuild_ms": rebuild,
            "incremental_add_ms": add,
            "incremental_change_ms": change,
            "remove_last_then_readd_ms": readd_ms,
            "change_speedup_vs_rebuild": speedup(rebuild, change),
            "integrations_per_change": change_integrations,
            "integrations_for_remove_last": remove_integrations,
            "results_identical": not any(
                mismatch.startswith(f"N={count}:") for mismatch in mismatches
            ),
        }
        print(
            f"  N={count:<4} rebuild {show(rebuild)}  add {show(add)}  "
            f"change {show(change)}  "
            f"change speedup {results[str(count)]['change_speedup_vs_rebuild']:.1f}x"
        )
    return results


# -- evolution layer ----------------------------------------------------------

#: The concept the ``evolve@N`` scenario renames.  Requirements that
#: analyse it are moved to the end of the corpus order: design
#: evolution typically touches the concepts under *active* analysis,
#: and those are the recently added requirements — the regime the
#: checkpointed re-fold is built for.
EVOLVED_CONCEPT = "Customer"


def evolve_corpus(count: int):
    """The benchmark corpus, evolution-affected requirements last."""
    corpus = requirement_corpus(count)
    prefix = f"{EVOLVED_CONCEPT}_"
    untouched = [
        requirement
        for requirement in corpus
        if not any(
            name.startswith(prefix)
            for name in requirement.referenced_properties()
        )
    ]
    touched = [r for r in corpus if r not in untouched]
    return untouched + touched


def evolved_domain():
    """(ontology, mappings) with the rename already applied."""
    ontology = tpch.ontology()
    ontology.rename_concept(EVOLVED_CONCEPT, "Client")
    mappings = tpch.mappings()
    mappings.rename_concept(EVOLVED_CONCEPT, "Client")
    return ontology, mappings


def run_evolution_workloads(sizes, rounds, mismatches):
    """``evolve@N``: one rename, incremental versus from-scratch.

    The incremental path re-interprets only the affected requirements
    and re-folds from the earliest affected checkpoint; the baseline is
    what a system without evolution operators must do — rebuild the
    whole session over the evolved domain (interpret and integrate all
    N requirements).  The gate compares both unified designs byte for
    byte (same xMD/xLM text), so the speedup is only reported for
    results that are known identical.
    """
    results = {}
    for count in sizes:
        corpus = evolve_corpus(count)
        quarry = fresh_quarry()
        for requirement in corpus:
            quarry.add_requirement(requirement)

        evolve_ms = []
        affected = refolded_from = None
        for __ in range(rounds):
            started = time.perf_counter()
            report = quarry.rename_concept(EVOLVED_CONCEPT, "Client")
            evolve_ms.append((time.perf_counter() - started) * 1000)
            affected = len(report.affected)
            refolded_from = report.refolded_from
            quarry.rename_concept("Client", EVOLVED_CONCEPT)  # untimed undo

        def build_evolved():
            ontology, mappings = evolved_domain()
            evolved = Quarry(
                ontology, tpch.schema(), mappings, row_counts=ROW_COUNTS
            )
            for requirement in evolve_corpus(count):
                evolved.add_requirement(requirement)
            return evolved

        evolve = spread(evolve_ms)
        scratch = timed(rounds, build_evolved)

        quarry.rename_concept(EVOLVED_CONCEPT, "Client")
        if design_fingerprint(quarry) != design_fingerprint(build_evolved()):
            mismatches.append(
                f"evolve@{count}: incremental evolution differs from "
                f"from-scratch rebuild of the evolved domain"
            )
        check_replay(quarry, f"evolve@{count}", mismatches)
        evolve_speedup = speedup(scratch, evolve)
        results[str(count)] = {
            "operator": f"rename_concept({EVOLVED_CONCEPT!r}, 'Client')",
            "requirements": len(quarry.requirements()),
            "bus_events": quarry.repository.bus_event_count(),
            "affected_requirements": affected,
            "refolded_from_index": refolded_from,
            "incremental_evolve_ms": evolve,
            "from_scratch_ms": scratch,
            "evolve_speedup_vs_rebuild": evolve_speedup,
            "results_identical": not any(
                mismatch.startswith(f"evolve@{count}:")
                for mismatch in mismatches
            ),
        }
        print(
            f"  evolve@{count:<4} scratch {show(scratch)}  "
            f"incremental {show(evolve)}  "
            f"({affected} affected, refold from {refolded_from})  "
            f"speedup {evolve_speedup:.1f}x"
        )
    return results


# -- ontology layer -----------------------------------------------------------


def run_ontology_workload(rounds, mismatches):
    ontology = tpch.ontology()
    graph = OntologyGraph(ontology)
    concept_ids = [concept.id for concept in ontology.concepts()]
    repeats = 25

    def closures(use_cache):
        return {
            concept_id: graph.to_one_closure(concept_id, use_cache=use_cache)
            for concept_id in concept_ids
        }

    cached_result = closures(True)  # warm the memo before timing
    uncached = timed(
        rounds, lambda: [closures(False) for __ in range(repeats)]
    )
    cached = timed(rounds, lambda: [closures(True) for __ in range(repeats)])
    if closures(False) != cached_result:
        mismatches.append("ontology: cached closures differ from uncached")

    # Path queries: a warm graph answers from the memoised closure, a
    # cold one runs the early-exit BFS — both must agree.
    cold = OntologyGraph(ontology)
    for source in concept_ids:
        for target in concept_ids:
            if graph.to_one_path(source, target) != cold.to_one_path(
                source, target
            ):
                mismatches.append(
                    f"ontology: to_one_path({source!r}, {target!r}) "
                    f"differs warm vs cold"
                )
    cache_speedup = speedup(uncached, cached)
    print(
        f"  ontology closures: uncached {show(uncached)}  "
        f"cached {show(cached)}  speedup {cache_speedup:.1f}x"
    )
    return {
        "concepts": len(concept_ids),
        "repeats_per_round": repeats,
        "uncached_ms": uncached,
        "cached_ms": cached,
        "speedup": cache_speedup,
        "results_identical": not any(
            mismatch.startswith("ontology:") for mismatch in mismatches
        ),
    }


# -- driver -------------------------------------------------------------------


def run_suite(sizes=SIZES, rounds=ROUNDS, headline_size=HEADLINE_SIZE):
    """Run every workload; returns ``(report, mismatches)``."""
    mismatches: list = []
    print("design-pipeline benchmark: incremental vs from-scratch")
    integrator = run_integrator_workloads(sizes, rounds, mismatches)
    evolution = run_evolution_workloads(sizes, rounds, mismatches)
    ontology = run_ontology_workload(rounds, mismatches)

    headline = str(headline_size)
    change_speedup = (
        integrator[headline]["change_speedup_vs_rebuild"]
        if headline in integrator
        else None
    )
    evolve_speedup = (
        evolution[headline]["evolve_speedup_vs_rebuild"]
        if headline in evolution
        else None
    )
    report = {
        "host": host_facts(),
        "benchmark": "design pipeline: incremental updates vs from-scratch",
        "rounds": rounds,
        "timing": (
            "ms, median and quartiles over rounds; speedups are ratios "
            "of medians; remove_last_then_readd_ms is one run"
        ),
        "design_sizes": integrator,
        "evolution": evolution,
        "ontology": ontology,
        "headline": {
            "design_size": headline_size,
            "incremental_change_speedup": change_speedup,
            "incremental_evolve_speedup": evolve_speedup,
            "gate_incremental_change_5x": (
                change_speedup is not None and change_speedup >= 5.0
            ),
            "gate_incremental_evolve_3x": (
                evolve_speedup is not None and evolve_speedup >= 3.0
            ),
        },
        "all_results_identical": not mismatches,
    }
    return report, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_design.json",
        help="where to write the JSON report (default: BENCH_design.json)",
    )
    options = parser.parse_args(argv)
    try:
        # Fail before the measurements, not after a minute of them.
        open(options.output, "a").close()
    except OSError as exc:
        print(f"cannot write {options.output}: {exc}", file=sys.stderr)
        return 2

    report, mismatches = run_suite()
    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {options.output}")

    if mismatches:
        for mismatch in mismatches:
            print(f"MISMATCH: {mismatch}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
