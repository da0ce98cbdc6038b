"""Analysis over the extracted lock model.

The driver resolves call events to package functions, runs three
fixpoints over the call graph — may-acquire (which locks a call may
take, transitively), may-block (which blocking operations a call may
reach), and inherited-held (which locks every caller of a private
helper provably holds) — and assembles the **may-acquire-under graph**:
an edge ``A -> B`` for every site where lock ``B`` may be acquired
while ``A`` is held.  Cycles in that graph are lock-order inversions.

Call resolution, in priority order:

1. a ``# calls: Class.method`` trailing comment on the call line,
2. receiver type — ``self`` calls, parameters/locals with class
   annotations, and return annotations of already-resolved calls,
3. package-wide uniqueness of the method name, excluding
   :data:`~repro.analysis.concurrency.extract.GENERIC_METHODS`.

Unresolved calls are (soundly for our purposes) treated as opaque:
they acquire nothing and block nothing.  The runtime sanitizer exists
to catch what slips through that hole — observed edges missing from
the static graph are a finding (see ``verify_against_static``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.concurrency.extract import GENERIC_METHODS, extract_paths
from repro.analysis.concurrency.model import (
    AcquireEvent,
    BlockingEvent,
    CallEvent,
    CodeModel,
    FunctionInfo,
)


def repro_package_root() -> Path:
    """The installed ``repro`` package directory (the analysis target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def resolve_ref(
    model: CodeModel, caller: FunctionInfo, ref: Tuple
) -> Optional[str]:
    """Resolve a call reference to a function key, or ``None``."""
    kind = ref[0]
    if kind == "annot":
        entry = ref[1]
        if "." in entry:
            cls, __, method = entry.rpartition(".")
            key = model.classes.get(cls, {}).get(method)
            if key is not None:
                return key
        for key, info in model.functions.items():
            if info.qualname == entry:
                return key
        return None
    if kind == "self":
        return model.classes.get(caller.owner, {}).get(ref[1])
    if kind == "typed":
        return model.classes.get(ref[1], {}).get(ref[2])
    if kind == "attr":
        method = ref[2]
        if method in GENERIC_METHODS:
            return None
        keys = model.methods_named(method)
        if len(keys) == 1:
            return keys[0]
        return None
    if kind == "name":
        name = ref[1]
        if name in model.classes:
            return model.classes[name].get("__init__")
        if name in GENERIC_METHODS:
            return None
        candidates = [
            key
            for key, info in model.functions.items()
            if not info.owner and info.name == name
        ]
        same_module = [
            key for key in candidates
            if model.functions[key].dotted == caller.dotted
        ]
        if len(same_module) == 1:
            return same_module[0]
        if len(candidates) == 1:
            return candidates[0]
        return None
    return None


@dataclass
class EdgeSite:
    """One witness of a may-acquire-under edge."""

    held: str
    acquired: str
    qualname: str
    location: str  # "module.py:line"
    via: str = ""  # callee qualname for call-propagated edges

    def describe(self) -> str:
        text = f"{self.location} in {self.qualname}"
        if self.via:
            text += f" (via {self.via})"
        return text


@dataclass
class CodeLintContext:
    """The analyzed package: model plus the call-graph fixpoints.

    Rules receive this context; everything expensive is computed once
    in :meth:`analyze`.
    """

    model: CodeModel
    #: (caller key, line, ref) -> callee key, for resolved calls
    resolved: Dict[Tuple, str] = field(default_factory=dict)
    #: function key -> lock names it may acquire (transitively)
    may_acquire: Dict[str, Set[str]] = field(default_factory=dict)
    #: function key -> locks acquired via self, through self-calls only
    may_acquire_self: Dict[str, Set[str]] = field(default_factory=dict)
    #: function key -> {blocking op -> call chain (qualnames)}
    may_block: Dict[str, Dict[str, Tuple[str, ...]]] = field(
        default_factory=dict
    )
    #: function key -> locks provably held at every call site
    inherited_held: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: (held lock, acquired lock) -> witness sites
    edges: Dict[Tuple[str, str], List[EdgeSite]] = field(
        default_factory=dict
    )

    # -- construction -------------------------------------------------------

    @classmethod
    def analyze(cls, model: CodeModel) -> "CodeLintContext":
        ctx = cls(model=model)
        ctx._resolve_calls()
        ctx._fix_may_acquire()
        ctx._fix_may_block()
        ctx._fix_inherited_held()
        ctx._build_edges()
        return ctx

    def _resolve_calls(self) -> None:
        for key, info in self.model.functions.items():
            for event in info.events:
                if isinstance(event, CallEvent):
                    callee = resolve_ref(self.model, info, event.ref)
                    if callee is not None:
                        self.resolved[(key, event.line, event.ref)] = callee

    def callee(self, info: FunctionInfo, event: CallEvent) -> Optional[str]:
        return self.resolved.get((info.key, event.line, event.ref))

    # -- held-token expansion -----------------------------------------------

    def _cm_yield_locks(
        self, key: str, visiting: Set[str]
    ) -> Tuple[Tuple[str, bool], ...]:
        """Locks held at a context manager's yield, cm-expanded."""
        if key in visiting:
            return ()
        visiting.add(key)
        try:
            info = self.model.functions.get(key)
            if info is None:
                return ()
            return self._expand(info, info.yield_held, visiting)
        finally:
            visiting.discard(key)

    def _expand(
        self, info: FunctionInfo, held: Tuple, visiting: Optional[Set[str]] = None
    ) -> Tuple[Tuple[str, bool], ...]:
        """Expand held tokens to ``(lock name, via_self)`` pairs."""
        if visiting is None:
            visiting = set()
        pairs: List[Tuple[str, bool]] = []
        for token in held:
            if token[0] == "lock":
                pairs.append((token[1], token[2]))
            elif token[0] == "cm":
                callee = resolve_ref(self.model, info, token[1])
                if callee is not None:
                    # Locks the cm holds at yield are held in the body,
                    # but not through *our* self.
                    pairs.extend(
                        (name, False)
                        for name, __ in self._cm_yield_locks(
                            callee, visiting
                        )
                    )
        return tuple(pairs)

    def held_locks(self, info: FunctionInfo, held: Tuple) -> FrozenSet[str]:
        return frozenset(name for name, __ in self._expand(info, held))

    def effective_held(
        self, info: FunctionInfo, held: Tuple
    ) -> FrozenSet[str]:
        """Lexically held locks plus locks every caller provably holds."""
        return self.held_locks(info, held) | self.inherited_held.get(
            info.key, frozenset()
        )

    # -- fixpoints ----------------------------------------------------------

    def _fix_may_acquire(self) -> None:
        for key in self.model.functions:
            self.may_acquire[key] = set()
            self.may_acquire_self[key] = set()
        changed = True
        while changed:
            changed = False
            for key, info in self.model.functions.items():
                acquires = self.may_acquire[key]
                self_acquires = self.may_acquire_self[key]
                before = (len(acquires), len(self_acquires))
                for event in info.events:
                    if isinstance(event, AcquireEvent):
                        if event.lock is not None:
                            acquires.add(event.lock)
                            if event.via_self:
                                self_acquires.add(event.lock)
                    elif isinstance(event, CallEvent):
                        callee = self.callee(info, event)
                        if callee is None:
                            continue
                        acquires.update(self.may_acquire[callee])
                        if event.ref[0] == "self":
                            self_acquires.update(
                                self.may_acquire_self[callee]
                            )
                if (len(acquires), len(self_acquires)) != before:
                    changed = True

    def _fix_may_block(self) -> None:
        for key in self.model.functions:
            self.may_block[key] = {}
        changed = True
        while changed:
            changed = False
            for key, info in self.model.functions.items():
                blocks = self.may_block[key]
                before = len(blocks)
                for event in info.events:
                    if isinstance(event, BlockingEvent):
                        blocks.setdefault(event.op, (info.qualname,))
                    elif isinstance(event, CallEvent):
                        callee = self.callee(info, event)
                        if callee is None:
                            continue
                        for op, chain in self.may_block[callee].items():
                            if len(chain) >= 4:
                                continue  # bound chain depth
                            blocks.setdefault(
                                op, (info.qualname,) + chain
                            )
                if len(blocks) != before:
                    changed = True

    def _fix_inherited_held(self) -> None:
        """Locks held at *every* resolved call site of private helpers.

        Public functions and functions with no resolved call sites get
        the empty set (any caller context is possible).  The fixpoint
        is decreasing from ⊤, so mutually recursive helpers converge.
        """
        all_locks = frozenset(self.model.lock_names())
        eligible = {
            key
            for key, info in self.model.functions.items()
            if info.owner and info.is_private and not info.is_contextmanager
        }
        self.inherited_held = {
            key: all_locks if key in eligible else frozenset()
            for key in self.model.functions
        }
        for __ in range(len(self.model.functions) + 1):
            changed = False
            call_sites: Dict[str, List[FrozenSet[str]]] = {}
            for key, info in self.model.functions.items():
                for event in info.events:
                    if not isinstance(event, CallEvent):
                        continue
                    callee = self.callee(info, event)
                    if callee is None or callee not in eligible:
                        continue
                    context = self.held_locks(
                        info, event.held
                    ) | self.inherited_held.get(key, frozenset())
                    call_sites.setdefault(callee, []).append(context)
            for key in eligible:
                contexts = call_sites.get(key)
                if contexts:
                    value: FrozenSet[str] = frozenset.intersection(*contexts)
                else:
                    value = frozenset()
                if value != self.inherited_held[key]:
                    self.inherited_held[key] = value
                    changed = True
            if not changed:
                break

    def _build_edges(self) -> None:
        for key, info in self.model.functions.items():
            for event in info.events:
                if isinstance(event, AcquireEvent) and event.lock is not None:
                    for held, __ in self._expand(info, event.held):
                        if held == event.lock:
                            continue
                        self._edge(
                            held,
                            event.lock,
                            EdgeSite(
                                held=held,
                                acquired=event.lock,
                                qualname=info.qualname,
                                location=f"{info.module}:{event.line}",
                            ),
                        )
                elif isinstance(event, CallEvent):
                    callee = self.callee(info, event)
                    if callee is None:
                        continue
                    held_pairs = self._expand(info, event.held)
                    if not held_pairs:
                        continue
                    callee_info = self.model.functions[callee]
                    for acquired in self.may_acquire[callee]:
                        for held, __ in held_pairs:
                            if held == acquired:
                                continue
                            self._edge(
                                held,
                                acquired,
                                EdgeSite(
                                    held=held,
                                    acquired=acquired,
                                    qualname=info.qualname,
                                    location=f"{info.module}:{event.line}",
                                    via=callee_info.qualname,
                                ),
                            )

    def _edge(self, held: str, acquired: str, site: EdgeSite) -> None:
        self.edges.setdefault((held, acquired), []).append(site)

    # -- graph queries ------------------------------------------------------

    def edge_pairs(self) -> Set[Tuple[str, str]]:
        return set(self.edges)

    def cycles(self) -> List[Tuple[str, ...]]:
        """Elementary cycles in the may-acquire-under graph, canonical.

        The graph is a handful of nodes, so a simple DFS enumeration
        is plenty; each cycle is rotated to start at its smallest node
        and deduplicated.
        """
        graph: Dict[str, Set[str]] = {}
        for held, acquired in self.edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        found: Set[Tuple[str, ...]] = set()

        def walk(start: str, node: str, path: List[str]) -> None:
            for successor in sorted(graph.get(node, ())):
                if successor == start and len(path) > 1:
                    found.add(canonical_cycle(tuple(path)))
                elif successor not in path and successor > start:
                    # Only explore nodes >= start: every cycle is found
                    # from its smallest node, once.
                    walk(start, successor, path + [successor])

        for start in sorted(graph):
            walk(start, start, [start])
        return sorted(found)

    def static_graph(self) -> Dict[str, object]:
        """The may-acquire-under graph as plain JSON-able data."""
        return {
            "locks": sorted(self.model.lock_names()),
            "edges": sorted([a, b] for (a, b) in self.edges),
        }


def canonical_cycle(path: Tuple[str, ...]) -> Tuple[str, ...]:
    """Rotate a cycle so the smallest lock name comes first."""
    pivot = path.index(min(path))
    return path[pivot:] + path[:pivot]


def analyze_paths(
    paths: Sequence[Path], root: Optional[Path] = None
) -> CodeLintContext:
    """Extract and analyze an explicit set of Python files."""
    return CodeLintContext.analyze(
        extract_paths([Path(p) for p in paths], root=root)
    )


def analyze_package(root: Optional[Path] = None) -> CodeLintContext:
    """Extract and analyze every module of the ``repro`` package."""
    package_root = Path(root) if root is not None else repro_package_root()
    paths = sorted(package_root.rglob("*.py"))
    return analyze_paths(paths, root=package_root)


def static_lock_graph() -> Dict[str, object]:
    """The package's static may-acquire-under graph (for the sanitizer)."""
    return analyze_package().static_graph()


def code_lint(
    context: CodeLintContext,
    *,
    disable: Sequence[str] = (),
    only: Optional[Sequence[str]] = None,
    waivers: Optional[Dict[str, object]] = None,
):
    """Run every ``code``-target rule over an analyzed package.

    Returns ``(report, waived, unused_waivers)``: the
    :class:`~repro.analysis.diagnostics.LintReport` of unwaived
    findings, the findings suppressed by the waiver file, and waiver
    fingerprints that matched nothing (stale entries).
    """
    import repro.analysis.concurrency.rules  # noqa: F401  (registers rules)
    from repro.analysis.diagnostics import LintReport, rules_for

    selected = []
    for rule in rules_for("code"):
        if only is not None and rule.code not in only:
            continue
        if rule.code in disable:
            continue
        selected.append(rule)
    diagnostics = []
    for rule in selected:
        diagnostics.extend(rule.run(context))
    waivers = waivers or {}
    kept, waived = [], []
    used = set()
    for diagnostic in diagnostics:
        if diagnostic.fingerprint in waivers:
            used.add(diagnostic.fingerprint)
            waived.append(diagnostic)
        else:
            kept.append(diagnostic)
    unused = sorted(set(waivers) - used)
    subject = f"code ({len(context.model.modules)} modules)"
    return LintReport(subject=subject, diagnostics=kept), waived, unused
