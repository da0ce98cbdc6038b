"""The lock model the concurrency analyzer extracts from source.

Everything here is plain data: lock declarations, guarded-field
annotations, and per-function event streams (acquisitions, releases,
calls, blocking operations, guarded accesses) recorded in lexical
order with the tokens held at each point.  The analysis over the model
(call resolution, may-acquire propagation, cycle detection) lives in
:mod:`repro.analysis.concurrency.driver`.

Held-set tokens are tuples:

* ``("lock", name, via_self)`` — a named lock, and whether it was
  acquired through ``self`` (same-instance certainty matters for the
  non-reentrant re-acquisition rule);
* ``("cm", callee_key)`` — the body of a ``with obj.cm():`` whose
  context manager is a package function; expanded to that function's
  yield-held set once calls are resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

Token = Tuple  # ("lock", name, via_self) | ("cm", callee_key)


@dataclass(frozen=True)
class LockDecl:
    """One named lock construction site (``self.attr = new_rlock(...)``)."""

    name: str  # canonical "Class.attr" name
    module: str  # repo-relative posix path
    owner: str  # declaring class ("" for module level)
    attr: str
    reentrant: bool
    line: int


@dataclass(frozen=True)
class GuardedField:
    """A ``# guarded-by:`` annotation on a field assignment."""

    owner: str  # declaring class
    attr: str
    lock: str  # guarding lock name
    writes_only: bool  # "[writes]": reads are benign (double-checked)
    module: str
    line: int


@dataclass(frozen=True)
class AcquireEvent:
    lock: Optional[str]  # None when the receiver could not be resolved
    via_self: bool
    manual: bool  # .acquire() call rather than a with statement
    held: Tuple[Token, ...]
    line: int
    text: str = ""  # source-ish rendering for unresolved receivers


@dataclass(frozen=True)
class ReleaseEvent:
    lock: Optional[str]
    in_finally: bool
    line: int


@dataclass(frozen=True)
class CallEvent:
    #: ("self", method) | ("attr", recv_hint, method) | ("name", name)
    #: | ("annot", "Class.method") | ("typed", class_name, method)
    ref: Tuple
    held: Tuple[Token, ...]
    line: int
    as_cm: bool = False  # used as a with-statement context manager


@dataclass(frozen=True)
class BlockingEvent:
    op: str  # human label, e.g. "pool submit", "bus publish"
    held: Tuple[Token, ...]
    line: int


@dataclass(frozen=True)
class AccessEvent:
    owner: str  # class declaring the guarded field
    attr: str
    write: bool
    held: Tuple[Token, ...]
    line: int


@dataclass(frozen=True)
class YieldEvent:
    held: Tuple[Token, ...]
    line: int


@dataclass
class FunctionInfo:
    """One function or method with its extracted event stream."""

    key: str  # "repro.engine.stats:StatisticsCatalog.table_stats"
    module: str  # repo-relative posix path
    dotted: str  # dotted module name
    qualname: str  # "Class.method" or "function"
    name: str
    owner: str  # class name or ""
    line: int
    is_contextmanager: bool = False
    returns: Optional[str] = None  # return-annotation class, if any
    events: List[object] = field(default_factory=list)
    #: Held tokens at the first ``yield`` (context managers only).
    yield_held: Tuple[Token, ...] = ()

    @property
    def is_private(self) -> bool:
        return self.name.startswith("_")

    def location(self) -> str:
        return f"{self.module}:{self.line}"


@dataclass
class CodeModel:
    """The whole extracted package: declarations plus function events."""

    locks: Dict[str, LockDecl] = field(default_factory=dict)
    #: (owner class, attr) -> GuardedField
    guarded: Dict[Tuple[str, str], GuardedField] = field(default_factory=dict)
    #: function key -> FunctionInfo
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> {method name -> function key}
    classes: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: class name -> {lock attr -> lock name} (for self.X resolution)
    class_locks: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: modules analyzed (repo-relative posix paths)
    modules: List[str] = field(default_factory=list)

    def lock_names(self) -> Set[str]:
        return set(self.locks)

    def methods_named(self, method: str) -> List[str]:
        """Function keys of every class method with this name."""
        return [
            methods[method]
            for methods in self.classes.values()
            if method in methods
        ]

    def reentrant(self, lock: str) -> bool:
        decl = self.locks.get(lock)
        return decl.reentrant if decl is not None else True
