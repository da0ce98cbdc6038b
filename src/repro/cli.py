"""Command-line interface: ``python -m repro <command>``.

A terminal front door over the library — a quick way to watch the demo
without writing code, and a usable tool for exploring a session file:

.. code-block:: console

    $ python -m repro demo                  # the three demo scenarios
    $ python -m repro suggest Lineitem      # elicitor perspectives
    $ python -m repro ddl [--dialect sqlite]
    $ python -m repro explain               # unified ETL operator tree
    $ python -m repro status --store s.json
    $ python -m repro sessions --store s.json

All commands operate on the TPC-H domain; ``--store FILE`` loads (and
``demo --save FILE`` stores) a metadata-repository snapshot, and
``--session NAME`` selects which design session inside the store to
operate on (stores can hold many).  For backward compatibility a
``--session`` value naming an existing file is treated as
``--store FILE``.  A store that cannot be loaded (missing, malformed,
holding no ontology) is reported as one ``error:`` line on stderr with
exit status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro import Quarry, QuarryError, RequirementBuilder
from repro.sources import tpch


def _build_demo_requirements():
    revenue = (
        RequirementBuilder(
            "IR1",
            "Average revenue per part and supplier name, orders from Spain",
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
    netprofit = (
        RequirementBuilder("IR2", "Total net profit per part brand")
        .measure(
            "netprofit",
            "Lineitem_l_extendedprice * (1 - Lineitem_l_discount) "
            "- Partsupp_ps_supplycost * Lineitem_l_quantity",
            "SUM",
        )
        .per("Part_p_brand")
        .build()
    )
    return [revenue, netprofit]


def _store_and_session(args) -> Tuple[Optional[str], str]:
    """Resolve the (store file, session name) pair from the CLI flags.

    ``--session FILE`` predates multi-session stores; a value naming an
    existing file keeps its old meaning (the store file, default
    session) so existing invocations are unaffected.
    """
    from repro.repository.metadata import DEFAULT_SESSION

    store = getattr(args, "store", None)
    session = getattr(args, "session", None)
    if store is None and session is not None and os.path.exists(session):
        return session, DEFAULT_SESSION
    return store, session if session is not None else DEFAULT_SESSION


def _load_quarry(args) -> Quarry:
    store, session = _store_and_session(args)
    if store is not None:
        return Quarry.load_from(
            store, tpch.schema(), tpch.mappings(), session=session
        )
    quarry = Quarry(
        tpch.ontology(), tpch.schema(), tpch.mappings(), session=session
    )
    for requirement in _build_demo_requirements():
        quarry.add_requirement(requirement)
    return quarry


def command_demo(args) -> int:
    from repro.engine import Database

    from repro.repository.metadata import DEFAULT_SESSION

    print("== Scenario 1: DW design from requirements ==")
    quarry = Quarry(
        tpch.ontology(),
        tpch.schema(),
        tpch.mappings(),
        session=getattr(args, "session", None) or DEFAULT_SESSION,
    )
    for requirement in _build_demo_requirements():
        report = quarry.add_requirement(requirement)
        consolidation = report.etl_consolidation
        print(
            f"  + {requirement.id}: reuse "
            f"{len(consolidation.reused)}/{len(consolidation.reused) + len(consolidation.added)} ops"
        )
    status = quarry.status()
    print(f"  facts={status.facts} dimensions={status.dimensions}")

    print("== Scenario 2: accommodating a change ==")
    quarry.remove_requirement("IR2")
    print(f"  - IR2 removed; remaining: {quarry.status().requirements}")

    print("== Scenario 3: deployment ==")
    database = Database()
    database.load_source(tpch.schema(), tpch.generate(scale_factor=0.3))
    result = quarry.deploy("native", source_database=database)
    for table, rows in sorted(result.stats.loaded.items()):
        print(f"  loaded {rows:>6} rows into {table}")
    if args.save is not None:
        quarry.save_to(args.save)
        print(f"session saved to {args.save}")
    return 0


def command_suggest(args) -> int:
    from repro.core.requirements import Elicitor

    elicitor = Elicitor(tpch.ontology())
    if args.focus is None:
        print("Fact candidates:")
        for suggestion in elicitor.suggest_facts(limit=args.limit):
            print(f"  {suggestion.element_id:<12} {suggestion.reason}")
        return 0
    perspective = elicitor.suggest_perspective(args.focus)
    for kind in ("dimensions", "measures", "slicers"):
        print(f"{kind}:")
        for suggestion in perspective[kind][: args.limit]:
            print(f"  {suggestion.element_id:<28} score={suggestion.score:.1f}")
    return 0


def command_ddl(args) -> int:
    quarry = _load_quarry(args)
    result = quarry.deploy(args.dialect)
    print(result.artifacts["ddl"], end="")
    return 0


def command_explain(args) -> int:
    from repro.etlmodel.cost import CostModel
    from repro.etlmodel.explain import explain

    quarry = _load_quarry(args)
    __, etl = quarry.unified_design()
    print(explain(etl, cost_model=CostModel()), end="")
    return 0


def command_status(args) -> int:
    quarry = _load_quarry(args)
    status = quarry.status()
    print(f"requirements : {', '.join(status.requirements) or '(none)'}")
    print(f"facts        : {', '.join(status.facts) or '(none)'}")
    print(f"dimensions   : {', '.join(status.dimensions) or '(none)'}")
    print(f"MD complexity: {status.complexity:.1f}")
    print(f"ETL ops      : {status.etl_operations}")
    print(f"ETL cost est.: {status.estimated_etl_cost:,.0f}")
    problems = quarry.satisfiability_problems()
    print(f"satisfiable  : {'yes' if not problems else '; '.join(problems)}")
    return 0


def command_sessions(args) -> int:
    """List the design sessions in a store, with bus-log artifact counts."""
    from collections import Counter

    from repro.repository.metadata import MetadataRepository

    if args.store is not None:
        repository = MetadataRepository.load_from(args.store)
    else:
        repository = _load_quarry(args).repository
    names = repository.session_names()
    if not names:
        print("(no sessions registered)")
        return 0
    for name in names:
        scoped = repository.for_session(name)
        events = scoped.bus_events()
        topics = Counter(event["topic"] for event in events)
        detail = ", ".join(
            f"{topic}={count}" for topic, count in sorted(topics.items())
        )
        print(
            f"{name:<16} requirements={len(scoped.requirement_ids())} "
            f"events={len(events)}" + (f" ({detail})" if detail else "")
        )
    return 0


def command_tune(args) -> int:
    from repro.core.tuning import TuningAdvisor

    quarry = _load_quarry(args)
    md, __ = quarry.unified_design()
    report = TuningAdvisor().advise(md, quarry.requirements())
    if not report.suggestions:
        print("no tuning suggestions")
        return 0
    for suggestion in report.top(args.limit):
        print(str(suggestion))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quarry reproduction: DW design lifecycle over TPC-H",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_store_args(subparser):
        subparser.add_argument(
            "--store",
            help="load the metadata-repository snapshot from FILE",
        )
        subparser.add_argument(
            "--session",
            help="design session NAME inside the store (legacy: a value "
            "naming an existing file is treated as --store FILE)",
        )

    demo = subparsers.add_parser("demo", help="run the three demo scenarios")
    demo.add_argument("--save", help="save the session repository to FILE")
    demo.add_argument(
        "--session", help="design session NAME to run the demo in"
    )
    demo.set_defaults(handler=command_demo)

    suggest = subparsers.add_parser(
        "suggest", help="elicitor suggestions (facts, or perspectives of FOCUS)"
    )
    suggest.add_argument("focus", nargs="?", help="focus concept id")
    suggest.add_argument("--limit", type=int, default=5)
    suggest.set_defaults(handler=command_suggest)

    ddl = subparsers.add_parser("ddl", help="print the star-schema DDL")
    ddl.add_argument("--dialect", choices=["postgres", "sqlite"],
                     default="postgres")
    add_store_args(ddl)
    ddl.set_defaults(handler=command_ddl)

    explain = subparsers.add_parser(
        "explain", help="print the unified ETL operator tree"
    )
    add_store_args(explain)
    explain.set_defaults(handler=command_explain)

    status = subparsers.add_parser("status", help="summarise the design")
    add_store_args(status)
    status.set_defaults(handler=command_status)

    sessions = subparsers.add_parser(
        "sessions",
        help="list the store's design sessions and their bus-log artifacts",
    )
    add_store_args(sessions)
    sessions.set_defaults(handler=command_sessions)

    tune = subparsers.add_parser(
        "tune", help="self-tuning advice for the current design"
    )
    add_store_args(tune)
    tune.add_argument("--limit", type=int, default=10)
    tune.set_defaults(handler=command_tune)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except QuarryError as exc:  # a store it cannot load, a refused design
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
