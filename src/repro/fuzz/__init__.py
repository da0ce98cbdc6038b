"""Differential fuzzing for the dual-mode ETL engine.

The columnar engine is only trustworthy while it stays observationally
identical to the legacy row-at-a-time interpreter.  This package grows
that guarantee from "the tests we thought of" to "every flow a seeded
generator can dream up":

* :mod:`repro.fuzz.datagen` — adversarial random tables (NULLs,
  duplicates, collision-prone values, empty tables, falsy values),
* :mod:`repro.fuzz.exprgen` — type-correct random predicates and
  derivation expressions,
* :mod:`repro.fuzz.flowgen` — random valid ETL flows over the full
  operator vocabulary,
* :mod:`repro.fuzz.querygen` — random documents and Mongo-style queries
  plus an independent naive reference matcher,
* :mod:`repro.fuzz.oracle` — the differential checks (columnar vs
  legacy ordered rows, error parity, xLM round-trip identity),
* :mod:`repro.fuzz.shrink` — minimises failing trials,
* :mod:`repro.fuzz.corpus` — JSON (de)serialisation of trials so
  shrunk failures become committed regression cases,
* :mod:`repro.fuzz.runner` — the ``python -m repro.fuzz`` entry point.

Every trial is derived from an integer seed only, so any failure
reproduces with ``python -m repro.fuzz --start <seed> --seeds 1``.
"""

from repro.fuzz.flowgen import FlowTrial, build_flow_trial
from repro.fuzz.oracle import check_flow_trial, check_query_trial
from repro.fuzz.querygen import QueryTrial, build_query_trial
from repro.fuzz.runner import main, run

__all__ = [
    "FlowTrial",
    "QueryTrial",
    "build_flow_trial",
    "build_query_trial",
    "check_flow_trial",
    "check_query_trial",
    "main",
    "run",
]
