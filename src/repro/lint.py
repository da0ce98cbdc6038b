"""Lint front door: ``python -m repro.lint``.

Lints ETL flows and MD schemas with the :mod:`repro.analysis` rules and
exits non-zero when any ERROR-severity diagnostic is found:

.. code-block:: console

    $ python -m repro.lint --demo                 # the TPC-H demo design
    $ python -m repro.lint flow.xlm schema.xmd    # interchange documents
    $ python -m repro.lint tests/fuzz/corpus/     # corpus entries (.json)
    $ python -m repro.lint --json --demo          # machine-readable
    $ python -m repro.lint --list-rules           # the rule catalog

``.xlm`` files lint structurally (no source schema, so the typed and
data-aware rules stay quiet); corpus ``.json`` entries carry their
tables, so the full rule set applies to them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import LintReport, all_rules, lint, rule_by_code
from repro.errors import QuarryError

#: File suffixes the CLI knows how to lint.
_SUFFIXES = (".xlm", ".xmd", ".json")


def _demo_reports() -> List[LintReport]:
    from repro.cli import _build_demo_requirements
    from repro import Quarry
    from repro.sources import tpch

    quarry = Quarry(tpch.ontology(), tpch.schema(), tpch.mappings())
    for requirement in _build_demo_requirements():
        quarry.add_requirement(requirement)
    return [quarry.lint()]


def _lint_path(path: Path, disable, only) -> LintReport:
    text = path.read_text()
    if path.suffix == ".xlm":
        from repro.xformats import xlm

        return lint(xlm.loads(text), disable=disable, only=only)
    if path.suffix == ".xmd":
        from repro.xformats import xmd

        return lint(xmd.loads(text), disable=disable, only=only)
    if path.suffix == ".json":
        from repro.fuzz.corpus import decode_entry

        try:
            entry = json.loads(text)
            if not isinstance(entry, dict):
                raise TypeError("not a JSON object")
            trial = decode_entry(entry)
        except (ValueError, KeyError, TypeError) as exc:
            raise QuarryError(
                f"{path}: cannot decode corpus entry: {exc}"
            ) from exc
        if not hasattr(trial, "flow"):
            raise QuarryError(
                f"{path}: corpus entry kind {entry.get('kind')!r} has no "
                f"flow to lint"
            )
        from repro.fuzz.lintoracle import trial_lint_inputs

        source_schema, tables = trial_lint_inputs(trial)
        return lint(
            trial.flow,
            source_schema=source_schema,
            tables=tables,
            disable=disable,
            only=only,
        )
    raise QuarryError(f"{path}: cannot lint {path.suffix!r} files")


def _collect(paths: List[str]) -> List[Path]:
    collected: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            collected.extend(
                sorted(
                    candidate
                    for candidate in path.rglob("*")
                    if candidate.suffix in _SUFFIXES and candidate.is_file()
                )
            )
        else:
            collected.append(path)
    return collected


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.code}  {rule.severity.value:<7}  {rule.target:<4}  {rule.title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Statically analyse ETL flows and MD schemas.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=".xlm / .xmd documents, corpus .json entries, or directories",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="lint the built-in TPC-H demo design (flow + MD schema)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON object instead of text",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="CODE",
        help="disable a rule by code (repeatable)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="CODE",
        help="run only the given rule codes (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    for code in list(args.disable) + list(args.only or []):
        try:
            rule_by_code(code)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not args.demo and not args.paths:
        build_parser().print_usage()
        print("nothing to lint: give paths and/or --demo", file=sys.stderr)
        return 2
    reports: List[LintReport] = []
    if args.demo:
        reports.extend(_demo_reports())
    for path in _collect(args.paths):
        try:
            reports.append(_lint_path(path, args.disable, args.only))
        except (QuarryError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.as_json:
        payload = {
            "ok": all(report.ok for report in reports),
            "reports": [report.to_json() for report in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.render())
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
