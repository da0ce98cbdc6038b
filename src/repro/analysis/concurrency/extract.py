"""AST extraction of the lock model from Python source.

Two passes over every module:

1. **Declarations** — lock construction sites (``self.X = new_rlock(
   "Class.X")`` / ``threading.Lock()``), ``# guarded-by:`` field
   annotations, the class/method inventory, context-manager detection
   and return annotations.
2. **Events** — per-function lexical scans that track the held-lock
   stack through ``with`` blocks and manual ``.acquire()``/
   ``.release()`` calls, recording acquisition, call, blocking-
   operation, guarded-access and yield events.

Lightweight trailing comments steer resolution where static typing
runs out:

* ``# lock: Class.attr`` names the lock behind an acquisition whose
  receiver type is unknown,
* ``# calls: Class.method[, ...]`` resolves dynamic calls on a line,
* ``# lock-internal`` excludes a lock declaration from the model (the
  sanitizer's own bookkeeping lock).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.concurrency.model import (
    AccessEvent,
    AcquireEvent,
    BlockingEvent,
    CallEvent,
    CodeModel,
    FunctionInfo,
    GuardedField,
    LockDecl,
    ReleaseEvent,
    Token,
    YieldEvent,
)

#: Method names too generic to resolve by package-wide uniqueness —
#: they collide with dict/list/str/queue/executor methods.  Calls on a
#: receiver of *known* class still resolve regardless of this set.
GENERIC_METHODS = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "decode",
        "discard", "dump", "dumps", "encode", "end", "extend", "find",
        "format", "get", "group", "groups", "index", "insert", "items",
        "join", "keys", "load", "loads", "main", "match", "open", "pop",
        "put", "read", "recv", "remove", "render", "replace", "result",
        "run", "save", "search", "send", "setdefault", "sort", "split",
        "start", "startswith", "strip", "sub", "submit", "update",
        "values", "wait", "write",
    }
)

#: Attribute calls that block (or run arbitrary code) regardless of
#: receiver: worker-pool scheduling, future waits, bus delivery.
_BLOCKING_ATTRS = {
    "submit": "pool submit",
    "map": "pool map",
    "shutdown": "pool shutdown",
    "result": "future result",
    "serve_forever": "http serve loop",
    "publish": "bus publish",
}

#: Attribute calls that block only on particular receivers (matched
#: against the receiver's trailing name, lowercased).
_CONDITIONAL_BLOCKING = {
    "get": ("queue",),
    "join": ("thread",),
    "wait": ("event", "condition", "barrier", "future"),
    "read": ("rfile", "file", "sock", "conn"),
    "write": ("wfile", "file", "sock", "conn"),
}

#: ``module.function`` calls that perform I/O or serialisation.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "sleep",
    ("os", "replace"): "file rename",
    ("os", "fdopen"): "file open",
    ("pickle", "dumps"): "pickling",
    ("pickle", "loads"): "unpickling",
    ("json", "dump"): "file write",
    ("json", "load"): "file read",
}

#: Bare-name calls that block: file opens and process-pool spawns.
_BLOCKING_NAMES = {
    "open": "file open",
    "ProcessPoolExecutor": "process pool spawn",
}

#: Method calls that mutate their receiver (guarded-field writes).
_MUTATORS = frozenset(
    {
        "add", "append", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "setdefault", "update",
    }
)


def _comments_by_line(source: str) -> Dict[int, str]:
    """Map line number -> comment text (without the leading ``#``)."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except tokenize.TokenError:
        pass
    return comments


def _annotation_class(node) -> Optional[str]:
    """The class named by a return/param annotation, if any."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"")
    if isinstance(node, ast.Subscript):
        value = node.value
        if isinstance(value, ast.Name) and value.id == "Optional":
            inner = node.slice
            if isinstance(inner, ast.Index):  # py38 compat shape
                inner = inner.value
            return _annotation_class(inner)
    return None


def _receiver_hint(node) -> str:
    """A lowercase name-ish rendering of a call receiver."""
    if isinstance(node, ast.Name):
        return node.id.lower()
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "str"
    return ""


def _is_lock_factory(func) -> Optional[bool]:
    """``True``/``False`` for new_rlock/new_lock calls, else ``None``."""
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name == "new_rlock":
        return True
    if name == "new_lock":
        return False
    return None


def _is_threading_lock(func) -> Optional[bool]:
    """``True``/``False`` for threading.RLock/Lock calls, else ``None``."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "threading" and func.attr == "RLock":
            return True
        if func.value.id == "threading" and func.attr == "Lock":
            return False
    return None


class _ModuleContext:
    def __init__(self, path: Path, relname: str, dotted: str) -> None:
        self.path = path
        self.relname = relname
        self.dotted = dotted
        source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(source, filename=str(path))
        self.comments = _comments_by_line(source)

    def comment(self, line: int) -> str:
        return self.comments.get(line, "")


def _iter_functions(module: _ModuleContext):
    """(class name, function node) pairs, top level and one class deep."""
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield node.name, item


def _declared_lock(module: _ModuleContext, owner: str, stmt) -> Optional[LockDecl]:
    """A LockDecl if ``stmt`` constructs a lock into a self attribute."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None
    # self.X = ...  or  self.X[...] = ...
    attr = None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        attr = target.attr
    elif (
        isinstance(target, ast.Subscript)
        and isinstance(target.value, ast.Attribute)
        and isinstance(target.value.value, ast.Name)
        and target.value.value.id == "self"
    ):
        attr = target.value.attr
    if attr is None or not isinstance(value, ast.Call):
        return None
    if "lock-internal" in module.comment(stmt.lineno):
        return None
    reentrant = _is_lock_factory(value.func)
    if reentrant is not None:
        if value.args and isinstance(value.args[0], ast.Constant):
            name = str(value.args[0].value)
        else:
            name = f"{owner}.{attr}" if owner else attr
    else:
        reentrant = _is_threading_lock(value.func)
        if reentrant is None:
            return None
        name = f"{owner}.{attr}" if owner else attr
    return LockDecl(
        name=name,
        module=module.relname,
        owner=owner,
        attr=attr,
        reentrant=reentrant,
        line=stmt.lineno,
    )


def _guarded_field(
    module: _ModuleContext, owner: str, stmt
) -> Optional[GuardedField]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign):
        target = stmt.target
    else:
        return None
    if not (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return None
    comment = module.comment(stmt.lineno)
    if not comment.startswith("guarded-by:"):
        return None
    spec = comment[len("guarded-by:"):].strip()
    writes_only = False
    if spec.endswith("[writes]"):
        writes_only = True
        spec = spec[: -len("[writes]")].strip()
    return GuardedField(
        owner=owner,
        attr=target.attr,
        lock=spec,
        writes_only=writes_only,
        module=module.relname,
        line=stmt.lineno,
    )


def _decorator_names(node: ast.FunctionDef) -> List[str]:
    names = []
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name):
            names.append(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.append(decorator.attr)
        elif isinstance(decorator, ast.Call):
            func = decorator.func
            if isinstance(func, ast.Name):
                names.append(func.id)
            elif isinstance(func, ast.Attribute):
                names.append(func.attr)
    return names


class _FunctionScanner:
    """Lexical scan of one function body, tracking the held-lock stack."""

    def __init__(
        self,
        model: CodeModel,
        module: _ModuleContext,
        info: FunctionInfo,
        node: ast.FunctionDef,
    ) -> None:
        self.model = model
        self.module = module
        self.info = info
        self.node = node
        self.held: List[Token] = []
        self.in_finally = 0
        #: local name -> lock name (``lock = self._locks.get(name)``)
        self.lock_aliases: Dict[str, str] = {}
        #: local name -> class name (typed params/assignments)
        self.var_types: Dict[str, str] = {}
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            cls = _annotation_class(arg.annotation)
            if cls in self.model.classes:
                self.var_types[arg.arg] = cls

    # -- resolution helpers -------------------------------------------------

    def _lock_comment(self, line: int) -> Optional[str]:
        comment = self.module.comment(line)
        if comment.startswith("lock:"):
            return comment[len("lock:"):].strip().split()[0]
        return None

    def _calls_comment(self, line: int) -> List[str]:
        comment = self.module.comment(line)
        if comment.startswith("calls:"):
            return [
                entry.strip()
                for entry in comment[len("calls:"):].split(",")
                if entry.strip()
            ]
        return []

    def _lock_of(self, node) -> Tuple[Optional[str], bool, str]:
        """(lock name or None, via_self, text) for a lock expression."""
        if isinstance(node, ast.Name):
            alias = self.lock_aliases.get(node.id)
            if alias is not None:
                return alias, False, node.id
            annotated = self._lock_comment(node.lineno)
            if annotated:
                return annotated, False, node.id
            return None, False, node.id
        if isinstance(node, ast.Attribute):
            attr = node.attr
            via_self = (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            )
            if via_self:
                owned = self.model.class_locks.get(self.info.owner, {})
                if attr in owned:
                    return owned[attr], True, f"self.{attr}"
            annotated = self._lock_comment(node.lineno)
            if annotated:
                return annotated, via_self, f"<expr>.{attr}"
            # Receiver of known class?
            receiver_class = self._class_of(node.value)
            if receiver_class is not None:
                owned = self.model.class_locks.get(receiver_class, {})
                if attr in owned:
                    return owned[attr], False, f"{receiver_class}.{attr}"
            # Unique declaring class package-wide?
            owners = [
                lock_name
                for locks in self.model.class_locks.values()
                for lock_attr, lock_name in locks.items()
                if lock_attr == attr
            ]
            if len(set(owners)) == 1:
                return owners[0], via_self, f"<expr>.{attr}"
            return None, via_self, f"<expr>.{attr}"
        return None, False, ast.dump(node)[:40]

    def _looks_like_lock(self, node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr == "_lock" or node.attr.endswith("_lock")
        if isinstance(node, ast.Name):
            return "lock" in node.id.lower()
        return False

    def _class_of(self, node) -> Optional[str]:
        """The class of an expression, where cheaply inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.info.owner or None
            return self.var_types.get(node.id)
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in self.model.classes
            ):
                return node.func.id
            target = self._resolve_local(node)
            if target is not None:
                returns = self.model.functions[target].returns
                if returns in self.model.classes:
                    return returns
        return None

    def _call_ref(self, call: ast.Call) -> Optional[Tuple]:
        """A resolution reference for a call, or None when hopeless."""
        func = call.func
        annotated = self._calls_comment(call.lineno)
        if isinstance(func, ast.Attribute):
            for entry in annotated:
                if entry.endswith("." + func.attr):
                    return ("annot", entry)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return ("self", func.attr)
            receiver_class = self._class_of(func.value)
            if receiver_class is not None:
                return ("typed", receiver_class, func.attr)
            return ("attr", _receiver_hint(func.value), func.attr)
        if isinstance(func, ast.Name):
            for entry in annotated:
                if entry == func.id or entry.endswith("." + func.id):
                    return ("annot", entry)
            return ("name", func.id)
        return None

    def _resolve_local(self, call: ast.Call) -> Optional[str]:
        """Resolve a call to a function key, using the same rules the
        driver applies later (needed here for receiver typing)."""
        from repro.analysis.concurrency.driver import resolve_ref

        ref = self._call_ref(call)
        if ref is None:
            return None
        return resolve_ref(self.model, self.info, ref)

    # -- event recording ----------------------------------------------------

    def _snapshot(self) -> Tuple[Token, ...]:
        return tuple(self.held)

    def _record_call(self, call: ast.Call, as_cm: bool = False) -> None:
        ref = self._call_ref(call)
        if ref is not None:
            self.info.events.append(
                CallEvent(
                    ref=ref,
                    held=self._snapshot(),
                    line=call.lineno,
                    as_cm=as_cm,
                )
            )
        self._record_blocking(call)

    def _record_blocking(self, call: ast.Call) -> None:
        func = call.func
        label = None
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _BLOCKING_ATTRS:
                label = _BLOCKING_ATTRS[attr]
            elif attr in _CONDITIONAL_BLOCKING:
                hint = _receiver_hint(func.value)
                if any(
                    needle in hint
                    for needle in _CONDITIONAL_BLOCKING[attr]
                ):
                    label = f"{attr} ({hint})"
            if (
                label is None
                and isinstance(func.value, ast.Name)
                and (func.value.id, attr) in _BLOCKING_MODULE_CALLS
            ):
                label = _BLOCKING_MODULE_CALLS[(func.value.id, attr)]
        elif isinstance(func, ast.Name) and func.id in _BLOCKING_NAMES:
            label = _BLOCKING_NAMES[func.id]
        if label is not None:
            self.info.events.append(
                BlockingEvent(
                    op=label, held=self._snapshot(), line=call.lineno
                )
            )

    def _record_access(self, node, write: bool) -> None:
        """Record guarded-field access for a self-attribute node."""
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return
        key = (self.info.owner, node.attr)
        if key in self.model.guarded:
            self.info.events.append(
                AccessEvent(
                    owner=self.info.owner,
                    attr=node.attr,
                    write=write,
                    held=self._snapshot(),
                    line=node.lineno,
                )
            )

    def _guarded_root(self, node):
        """The guarded self-attribute at the root of a subscript chain."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and (self.info.owner, node.attr) in self.model.guarded
        ):
            return node
        return None

    # -- expression / statement walking -------------------------------------

    def _walk_expr_inner(self, node, store_ids) -> None:
        """Visit an expression tree, recording calls and accesses.

        ``store_ids`` holds ids of Attribute nodes *written* by the
        enclosing statement (assignment targets, mutated subscripts).
        """
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # deferred bodies don't run under the current held set
        if isinstance(node, ast.Call):
            self._record_call(node)
            # Mutating method call on a guarded container is a write.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
            ):
                root = self._guarded_root(func.value)
                if root is not None:
                    self._record_access(root, write=True)
        if isinstance(node, ast.Attribute):
            write = id(node) in store_ids or isinstance(
                node.ctx, (ast.Store, ast.Del)
            )
            self._record_access(node, write=write)
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            root = self._guarded_root(node)
            if root is not None:
                self._record_access(root, write=True)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.info.events.append(
                YieldEvent(held=self._snapshot(), line=node.lineno)
            )
        for child in ast.iter_child_nodes(node):
            self._walk_expr_inner(child, store_ids)

    def _maybe_acquire_release(self, stmt) -> bool:
        """Handle a bare ``X.acquire()`` / ``X.release()`` statement."""
        if not (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        ):
            return False
        call = stmt.value
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("acquire", "release")
        ):
            return False
        lock, via_self, text = self._lock_of(func.value)
        if lock is None and not self._looks_like_lock(func.value):
            return False
        if func.attr == "acquire":
            self.info.events.append(
                AcquireEvent(
                    lock=lock,
                    via_self=via_self,
                    manual=True,
                    held=self._snapshot(),
                    line=stmt.lineno,
                    text=text,
                )
            )
            if lock is not None:
                self.held.append(("lock", lock, via_self))
        else:
            self.info.events.append(
                ReleaseEvent(
                    lock=lock,
                    in_finally=self.in_finally > 0,
                    line=stmt.lineno,
                )
            )
            if lock is not None:
                for position in range(len(self.held) - 1, -1, -1):
                    token = self.held[position]
                    if token[0] == "lock" and token[1] == lock:
                        del self.held[position]
                        break
        return True

    def _maybe_track_alias(self, stmt) -> None:
        """Track lock aliases and typed locals through assignments."""
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                cls = _annotation_class(stmt.annotation)
                if cls in self.model.classes:
                    self.var_types[stmt.target.id] = cls
            return
        target, value = stmt.targets[0], stmt.value
        if not isinstance(target, ast.Name):
            return
        # lock = self._lock / lock = self._locks[...] / .get(...)
        candidate = value
        if isinstance(candidate, ast.Call) and isinstance(
            candidate.func, ast.Attribute
        ) and candidate.func.attr == "get":
            candidate = candidate.func.value
        if isinstance(candidate, ast.Subscript):
            candidate = candidate.value
        if isinstance(candidate, ast.Attribute):
            lock, __, __ = self._lock_of(candidate)
            if lock is not None:
                self.lock_aliases[target.id] = lock
                return
        inferred = self._class_of(value)
        if inferred is not None:
            self.var_types[target.id] = inferred

    def scan(self) -> None:
        self._scan_body(self.node.body)
        for event in self.info.events:
            if isinstance(event, YieldEvent):
                self.info.yield_held = event.held
                break

    def _scan_body(self, body: List) -> None:
        for stmt in body:
            self._scan_stmt(stmt)

    def _scan_stmt(self, stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if self._maybe_acquire_release(stmt):
            return
        if isinstance(stmt, ast.With):
            self._scan_with(stmt)
            return
        if isinstance(stmt, ast.Try):
            self._scan_body(stmt.body)
            for handler in stmt.handlers:
                self._scan_body(handler.body)
            self._scan_body(stmt.orelse)
            self.in_finally += 1
            try:
                self._scan_body(stmt.finalbody)
            finally:
                self.in_finally -= 1
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._walk_expr_inner(stmt.test, set())
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_expr_inner(stmt.iter, set())
            self._scan_body(stmt.body)
            self._scan_body(stmt.orelse)
            return
        # Simple statement: track aliases, then walk expressions.
        self._maybe_track_alias(stmt)
        store_roots = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute):
                    store_roots.append(target)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt.target, ast.Attribute):
                store_roots.append(stmt.target)
        self._walk_expr_inner(stmt, {id(n) for n in store_roots})

    def _scan_with(self, stmt: ast.With) -> None:
        pushed = 0
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call) and isinstance(
                expr.func, ast.Attribute
            ) and expr.func.attr in ("acquire",):
                # ``with lock.acquire():`` is not a pattern here; walk it.
                self._walk_expr_inner(expr, set())
                continue
            lock, via_self, text = self._lock_of(expr)
            if lock is not None:
                self.info.events.append(
                    AcquireEvent(
                        lock=lock,
                        via_self=via_self,
                        manual=False,
                        held=self._snapshot(),
                        line=expr.lineno,
                        text=text,
                    )
                )
                self.held.append(("lock", lock, via_self))
                pushed += 1
                continue
            if isinstance(expr, ast.Call):
                ref = self._call_ref(expr)
                self._record_call(expr, as_cm=True)
                # Walk arguments for nested calls/accesses.
                for arg in list(expr.args) + [
                    kw.value for kw in expr.keywords
                ]:
                    self._walk_expr_inner(arg, set())
                if ref is not None:
                    self.held.append(("cm", ref))
                    pushed += 1
                continue
            if self._looks_like_lock(expr):
                self.info.events.append(
                    AcquireEvent(
                        lock=None,
                        via_self=via_self,
                        manual=False,
                        held=self._snapshot(),
                        line=expr.lineno,
                        text=text,
                    )
                )
                continue
            self._walk_expr_inner(expr, set())
        self._scan_body(stmt.body)
        for __ in range(pushed):
            self.held.pop()


def extract_paths(
    paths: List[Path], root: Optional[Path] = None
) -> CodeModel:
    """Extract the lock model of a set of Python files.

    ``root`` anchors repo-relative module names; defaults to the common
    parent so fixture tests can analyze loose files.
    """
    model = CodeModel()
    modules: List[_ModuleContext] = []
    for path in paths:
        path = Path(path)
        if root is not None:
            try:
                rel = path.relative_to(root)
                relname = (Path(root.name) / rel).as_posix()
                dotted = ".".join((Path(root.name) / rel).with_suffix("").parts)
            except ValueError:
                relname = path.name
                dotted = path.stem
        else:
            relname = path.name
            dotted = path.stem
        modules.append(_ModuleContext(path, relname, dotted))
        model.modules.append(relname)

    # Pass 1: declarations and inventory.
    for module in modules:
        for owner, node in _iter_functions(module):
            if owner:
                methods = model.classes.setdefault(owner, {})
                methods[node.name] = f"{module.dotted}:{owner}.{node.name}"
            for stmt in ast.walk(node):
                decl = _declared_lock(module, owner, stmt)
                if decl is not None and decl.name not in model.locks:
                    model.locks[decl.name] = decl
                if decl is not None:
                    model.class_locks.setdefault(owner, {})[
                        decl.attr
                    ] = decl.name
                guarded = _guarded_field(module, owner, stmt)
                if guarded is not None:
                    model.guarded[(owner, guarded.attr)] = guarded

    # Pass 1b: function records (so return annotations resolve).
    for module in modules:
        for owner, node in _iter_functions(module):
            qualname = f"{owner}.{node.name}" if owner else node.name
            key = f"{module.dotted}:{qualname}"
            decorators = _decorator_names(node)
            info = FunctionInfo(
                key=key,
                module=module.relname,
                dotted=module.dotted,
                qualname=qualname,
                name=node.name,
                owner=owner,
                line=node.lineno,
                is_contextmanager="contextmanager" in decorators,
                returns=_annotation_class(node.returns),
            )
            model.functions[key] = info

    # Pass 2: event extraction.
    for module in modules:
        for owner, node in _iter_functions(module):
            qualname = f"{owner}.{node.name}" if owner else node.name
            info = model.functions[f"{module.dotted}:{qualname}"]
            _FunctionScanner(model, module, info, node).scan()
    return model
