"""The static/dynamic agreement oracle: the linter versus the engine.

For every seed a random flow trial is linted and executed, and the two
verdicts must agree on the error classes the linter claims to decide:

* **Certain failures fail** — a flow flagged ``QRY202`` (an unhashable
  source value provably reaches a hashing operation) must raise in BOTH
  engine modes.  A clean execution means the taint analysis overclaimed.
* **Clean flows run clean** — a flow with no structural (``QRY00x``),
  hashability (``QRY202``/``QRY203``) or propagation (``QRY204``)
  findings must not die with a static-class error (unhashable values,
  union incompatibility, schema propagation / type-check / validation
  failures) in either mode.  Runtime value errors (``1/0``, NULL
  comparisons, cross-type comparisons the evaluator rejects lazily)
  stay out of scope: the linter does not claim to predict them.

Warnings (``QRY203``: *possibly* unhashable) deliberately block nothing
— the analysis is three-valued exactly so that "may fail" never has to
agree with anything.

Lint trials are plain :class:`~repro.fuzz.flowgen.FlowTrial` objects:
disagreements shrink through the flow candidates like any other fuzz
failure and freeze into the regression corpus as ``"lint"`` entries.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.analysis import LintReport, lint
from repro.fuzz.datagen import inject_unhashable, make_tables
from repro.fuzz.flowgen import FlowTrial, build_flow
from repro.fuzz.oracle import MODES, execute_flow
from repro.sources.schema import SourceSchema, make_table


def trial_lint_inputs(
    trial: FlowTrial,
) -> Tuple[SourceSchema, Dict[str, list]]:
    """A trial's declared table schemas and rows, in lint() form.

    The declared types are used as-is: injected unhashable values are
    precisely the kind of data the type system cannot see, which is the
    scenario the hashability taint exists for.
    """
    schema = SourceSchema("fuzz")
    for table in trial.tables:
        schema.add_table(make_table(table.name, list(table.schema.items())))
    rows = {table.name: table.rows for table in trial.tables}
    return schema, rows


def lint_flow_trial(trial: FlowTrial) -> LintReport:
    source_schema, rows = trial_lint_inputs(trial)
    return lint(trial.flow, source_schema=source_schema, tables=rows)


#: Codes whose presence means the linter predicts (or cannot rule out)
#: a static-class execution failure; direction A only applies without them.
_UNCLEAN = (
    "QRY001",
    "QRY002",
    "QRY003",
    "QRY004",
    "QRY005",
    "QRY202",
    "QRY203",
    "QRY204",
)

#: Error-message fingerprints of the failure classes the linter decides.
_STATIC_SUBSTRINGS = ("unhashable value", "not union-compatible")
_STATIC_PREFIXES = (
    "SchemaPropagationError:",
    "TypeCheckError:",
    "FlowValidationError:",
)


def _static_class(message: str) -> bool:
    if any(fragment in message for fragment in _STATIC_SUBSTRINGS):
        return True
    return message.startswith(_STATIC_PREFIXES)


def check_lint_trial(trial: FlowTrial) -> Optional[str]:
    """``None`` when linter and engine agree, else a description.

    The category (text before the first colon) is ``lint-divergence``
    so the shrinker preserves the failure class while minimising.
    """
    report = lint_flow_trial(trial)
    codes = set(report.codes())

    outcomes = {mode: execute_flow(mode, trial) for mode in MODES}

    if "QRY202" in codes:
        # Direction B: a definite hazard must actually kill the flow.
        for mode, (kind, _detail) in outcomes.items():
            if kind != "error":
                finding = report.by_code("QRY202")[0]
                return (
                    f"lint-divergence: QRY202 at {finding.location()} but "
                    f"{mode} executed cleanly ({finding.message})"
                )
        return None

    if codes.isdisjoint(_UNCLEAN):
        # Direction A: no static findings, so no static-class failures.
        for mode, (kind, detail) in outcomes.items():
            if kind == "error" and _static_class(str(detail)):
                return (
                    f"lint-divergence: lint-clean flow failed in {mode} "
                    f"with static-class error {detail!r} "
                    f"(diagnostics: {report.codes()})"
                )
    return None


def build_lint_trial(seed: int) -> FlowTrial:
    """The deterministic lint trial for a seed.

    Same recipe as :func:`repro.fuzz.flowgen.build_flow_trial` but on
    an independent RNG stream and with unhashable values injected far
    more often (the agreement oracle's most interesting region).
    """
    rng = random.Random(f"lint:{seed}")
    tables = make_tables(rng)
    if rng.random() < 0.5:
        inject_unhashable(rng, tables)
    flow = build_flow(rng, tables)
    return FlowTrial(tables=tables, flow=flow, seed=seed)
