"""Concurrency discipline: lock-order/race static analysis + sanitizer.

The static side (:mod:`extract`, :mod:`rules`, :mod:`driver`) parses the
``repro`` package itself with :mod:`ast`, builds a named lock model
(every ``with self._lock`` / ``.acquire()`` site, call-graph propagated)
and emits stable ``QRY9xx`` diagnostics: lock-order inversions, locks
held across blocking operations, unguarded access to ``# guarded-by:``
fields.

The runtime side (:mod:`sanitizer`, enabled with ``REPRO_LOCKSAN=1``)
wraps every lock built through :mod:`repro.locks`, records per-thread
acquisition stacks and the observed lock-order graph, raises on cycle
formation or fork-while-held, and cross-checks the observed graph
against the static may-acquire-under graph.
"""

from repro.analysis.concurrency.driver import (
    CodeLintContext,
    analyze_package,
    analyze_paths,
    code_lint,
    repro_package_root,
    static_lock_graph,
)
from repro.analysis.concurrency.model import CodeModel, LockDecl
from repro.analysis.concurrency.waivers import Waiver, load_waivers

__all__ = [
    "CodeLintContext",
    "CodeModel",
    "LockDecl",
    "Waiver",
    "analyze_package",
    "analyze_paths",
    "code_lint",
    "load_waivers",
    "repro_package_root",
    "static_lock_graph",
]
