"""Compilation of expression ASTs to Python closures.

The tree-walking :func:`repro.expressions.evaluate` pays its dispatch
cost (isinstance chains, per-node function calls) on *every row*.  This
module pays it once: an AST is lowered to generated Python source —
straight-line statements with explicit temporaries, preserving the
interpreter's evaluation order, short-circuiting and NULL semantics —
and compiled with :func:`compile`.  All value-level semantics (Kleene
logic, NULL propagation, arithmetic/comparison typing errors, function
dispatch) are delegated to the same helpers the interpreter uses, so a
compiled expression is observationally identical to ``evaluate(tree,
row)``, error messages included.

Every expression is compiled in two forms:

* ``row_fn(row)`` — takes a row dict, exactly like the interpreter
  (missing attributes raise the interpreter's :class:`EvaluationError`);
* ``column_fn(v0, v1, ...)`` — takes the values of the referenced
  attributes positionally (order given by ``attributes``), which lets a
  columnar engine evaluate a whole column batch with
  ``map(column_fn, *columns)`` — no per-row dicts at all.

A third form, ``batch_fn(columns)``, takes the argument columns
themselves.  A bare attribute returns its column.  Numeric arithmetic
(``+ - * / %`` over attributes and int/float literals) runs a whole
column at a time through :mod:`operator` functions and ``map``, but
only when every argument column holds only ``int``/``float`` values and
no divisor holds a zero: there it computes what ``column_fn`` computes
row by row.  Anything else, a failed guard or an ``ArithmeticError``
returns ``None``, and the caller falls back to ``column_fn``, whose
values, types and errors are the interpreter's.

A module-level LRU cache keyed by source text means repeated predicates
and derivations — across nodes, flows and runs — are parsed and
compiled exactly once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.expressions import ast
from repro.expressions.evaluator import (
    _arithmetic,
    _as_bool,
    _compare,
    apply_function,
    attribute_value,
    in_values,
    unary_minus,
    unary_not,
)
from repro.expressions.parser import parse

#: Literal values safe to embed in generated source via ``repr`` (their
#: reprs round-trip exactly).  Anything else goes through the constant
#: pool.
_INLINE_LITERALS = (bool, int, float, str, type(None))


@dataclass(frozen=True)
class CompiledExpression:
    """A compiled expression: source text, AST, and its three forms."""

    text: str
    tree: ast.Expression
    #: Referenced attributes in first-evaluation order; also the
    #: positional parameter order of ``column_fn``.
    attributes: Tuple[str, ...]
    row_fn: Callable
    column_fn: Callable
    row_source: str
    column_source: str
    #: ``batch_fn(columns)``: the whole output column, or ``None`` when
    #: ``column_fn`` must compute it (see the module docstring).
    batch_fn: Callable[[List[list]], Optional[list]]

    def __call__(self, row: dict):
        return self.row_fn(row)


class _CodeGen:
    """Lowers one AST to the body of a Python function.

    ``access`` maps an attribute name to the expression text that reads
    it (a dict lookup in row mode, a parameter name in column mode).
    """

    def __init__(self, access) -> None:
        self._access = access
        self._lines: List[str] = []
        self._counter = 0
        self.constants: List[object] = []

    def generate(self, tree: ast.Expression, name: str, params: str) -> str:
        result = self._emit(tree, 1)
        self._lines.append(f"    return {result}")
        header = f"def {name}({params}):"
        return "\n".join([header] + self._lines)

    # -- plumbing ----------------------------------------------------------

    def _fresh(self) -> str:
        self._counter += 1
        return f"_t{self._counter}"

    def _line(self, depth: int, text: str) -> None:
        self._lines.append("    " * depth + text)

    def _constant(self, value) -> str:
        self.constants.append(value)
        return f"_consts[{len(self.constants) - 1}]"

    # -- node lowering -----------------------------------------------------

    def _emit(self, node: ast.Expression, depth: int) -> str:
        """Emit statements computing ``node``; returns the result atom.

        The returned text is either a bound temporary or a literal, so
        callers may mention it more than once without re-evaluation.
        """
        if isinstance(node, ast.Literal):
            if type(node.value) in _INLINE_LITERALS:
                return repr(node.value)
            return self._constant(node.value)
        if isinstance(node, ast.Attribute):
            out = self._fresh()
            self._line(depth, f"{out} = {self._access(node.name)}")
            return out
        if isinstance(node, ast.UnaryOp):
            value = self._emit(node.operand, depth)
            out = self._fresh()
            helper = "_neg" if node.operator == "-" else "_not"
            if node.operator not in ("-", "not"):
                raise EvaluationError(
                    f"unknown unary operator {node.operator!r}"
                )
            self._line(depth, f"{out} = {helper}({value})")
            return out
        if isinstance(node, ast.BinaryOp):
            return self._emit_binary(node, depth)
        if isinstance(node, ast.FunctionCall):
            values = [self._emit(arg, depth) for arg in node.arguments]
            out = self._fresh()
            self._line(
                depth, f"{out} = _call({node.name!r}, [{', '.join(values)}])"
            )
            return out
        if isinstance(node, ast.ValueList):
            items = [self._emit(item, depth) for item in node.items]
            out = self._fresh()
            self._line(depth, f"{out} = [{', '.join(items)}]")
            return out
        raise EvaluationError(f"cannot compile node {node!r}")

    def _emit_binary(self, node: ast.BinaryOp, depth: int) -> str:
        operator = node.operator
        if operator in ("and", "or"):
            return self._emit_kleene(node, depth)
        left = self._emit(node.left, depth)
        if operator == "in":
            # The interpreter evaluates the value list after the left
            # operand, before the NULL check on the left — preserved here.
            values = self._emit(node.right, depth)
            out = self._fresh()
            self._line(depth, f"{out} = _in({left}, {values})")
            return out
        right = self._emit(node.right, depth)
        out = self._fresh()
        # The common numeric case runs inline; anything else (strings,
        # booleans, zero divisors, type errors) falls back to the
        # interpreter's helper, which owns the exact semantics and
        # error messages.
        if operator in ("+", "-", "*", "/", "%"):
            helper = "_arith"
            guard = f"type({left}) in _num and type({right}) in _num"
            if operator in ("/", "%"):
                guard += f" and {right} != 0"
            fast = f"{left} {operator} {right}"
        elif operator in ("=", "!=", "<", "<=", ">", ">="):
            helper = "_cmp"
            guard = (
                f"(type({left}) is type({right}) or "
                f"(type({left}) in _num and type({right}) in _num))"
            )
            python_operator = {"=": "==", "!=": "!="}.get(operator, operator)
            fast = f"{left} {python_operator} {right}"
        else:
            raise EvaluationError(f"unknown binary operator {operator!r}")
        none_test = self._none_test(left, right)
        call = (
            f"({fast}) if {guard} else {helper}({operator!r}, {left}, {right})"
        )
        if none_test == "True":
            self._line(depth, f"{out} = None")
        elif none_test == "False":
            self._line(depth, f"{out} = {call}")
        else:
            self._line(depth, f"{out} = None if {none_test} else {call}")
        return out

    @staticmethod
    def _nullable(atom: str) -> bool:
        """Whether an atom can be NULL at runtime.

        Inline literal reprs are statically non-NULL (a NULL literal is
        rendered as ``None`` itself); only temporaries and constant-pool
        references need a runtime check.  Folding the check away also
        avoids ``is``-with-literal comparisons in generated code.
        """
        return atom.startswith("_")

    def _none_test(self, *atoms: str) -> str:
        if any(atom == "None" for atom in atoms):
            return "True"
        checks = [f"{atom} is None" for atom in atoms if self._nullable(atom)]
        if not checks:
            return "False"
        test = " or ".join(checks)
        return f"({test})" if len(checks) > 1 else test

    def _emit_kleene(self, node: ast.BinaryOp, depth: int) -> str:
        """Three-valued AND/OR with the interpreter's short-circuiting."""
        out = self._fresh()
        left = self._emit(node.left, depth)
        short, exhausted = (
            ("False", "True") if node.operator == "and" else ("True", "False")
        )
        negate = "not " if node.operator == "and" else ""

        def test(atom: str) -> str:
            if atom == "None":
                return "False"  # a NULL operand never short-circuits
            if self._nullable(atom):
                return f"{atom} is not None and {negate}_bool({atom})"
            return f"{negate}_bool({atom})"

        self._line(depth, f"if {test(left)}:")
        self._line(depth + 1, f"{out} = {short}")
        self._line(depth, "else:")
        right = self._emit(node.right, depth + 1)
        self._line(depth + 1, f"if {test(right)}:")
        self._line(depth + 2, f"{out} = {short}")
        none_test = self._none_test(left, right)
        self._line(depth + 1, f"elif {none_test}:")
        self._line(depth + 2, f"{out} = None")
        self._line(depth + 1, "else:")
        self._line(depth + 2, f"{out} = {exhausted}")
        return out


def _referenced_attributes(node: ast.Expression, seen: List[str]) -> None:
    """Collect attribute names in evaluation (depth-first, left-first)
    order, deduplicated on first use."""
    if isinstance(node, ast.Attribute):
        if node.name not in seen:
            seen.append(node.name)
    elif isinstance(node, ast.UnaryOp):
        _referenced_attributes(node.operand, seen)
    elif isinstance(node, ast.BinaryOp):
        _referenced_attributes(node.left, seen)
        _referenced_attributes(node.right, seen)
    elif isinstance(node, (ast.FunctionCall, ast.ValueList)):
        for child in getattr(node, "arguments", getattr(node, "items", ())):
            _referenced_attributes(child, seen)


#: The arithmetic the batch form runs a column at a time.
_BATCH_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}
_NUMBERS = frozenset({int, float})


class _Unbatchable(Exception):
    """A divisor holds a zero: the row form raises the error."""


def _batch_node(node: ast.Expression, attributes: List[str]):
    """``(values, per_row)`` for a numeric arithmetic node, else ``None``.

    ``values(columns)`` is a list when ``per_row`` (the node reads an
    attribute), else one number.  Intermediate values are ``int`` or
    ``float`` whenever the argument columns are, so each operator runs
    as the row form's inline fast path does.
    """
    if isinstance(node, ast.Attribute):
        return operator.itemgetter(attributes.index(node.name)), True
    if isinstance(node, ast.Literal):
        value = node.value
        if type(value) not in _NUMBERS:
            return None
        return (lambda columns: value), False
    if not isinstance(node, ast.BinaryOp):
        return None
    function = _BATCH_OPERATORS.get(node.operator)
    if function is None:
        return None
    left, right = (
        _batch_node(node.left, attributes),
        _batch_node(node.right, attributes),
    )
    if left is None or right is None:
        return None
    (left_values, left_rows), (right_values, right_rows) = left, right
    divides = node.operator in ("/", "%")

    def values(columns):
        lhs, rhs = left_values(columns), right_values(columns)
        if divides and (0 in rhs if right_rows else rhs == 0):
            raise _Unbatchable
        if not (left_rows or right_rows):
            return function(lhs, rhs)
        return list(
            map(
                function,
                lhs if left_rows else repeat(lhs),
                rhs if right_rows else repeat(rhs),
            )
        )

    return values, left_rows or right_rows


def _no_batch(columns: List[list]) -> None:
    return None


def _batch_form(
    tree: ast.Expression, attributes: List[str]
) -> Callable[[List[list]], Optional[list]]:
    """The ``batch_fn`` of a tree (see the module docstring)."""
    if isinstance(tree, ast.Attribute):
        return operator.itemgetter(0)  # a bare attribute shares its column
    plan = _batch_node(tree, attributes)
    if plan is None or not plan[1]:
        return _no_batch
    values = plan[0]

    def batch(columns: List[list]) -> Optional[list]:
        for column in columns:
            if not _NUMBERS.issuperset(map(type, column)):
                return None  # a NULL, bool or non-number: the row form
        try:
            return values(columns)
        except (_Unbatchable, ArithmeticError):
            return None

    return batch


def _runtime_namespace(constants: List[object]) -> Dict[str, object]:
    return {
        "_arith": _arithmetic,
        "_cmp": _compare,
        "_bool": _as_bool,
        "_neg": unary_minus,
        "_not": unary_not,
        "_call": apply_function,
        "_in": in_values,
        "_attr": attribute_value,
        "_num": frozenset({int, float}),
        "type": type,
        "_consts": tuple(constants),
        "__builtins__": {},
    }


def _compile_body(source: str, name: str, constants: List[object]) -> Callable:
    namespace = _runtime_namespace(constants)
    exec(compile(source, f"<compiled {name}>", "exec"), namespace)
    return namespace[name]


def compile_tree(tree: ast.Expression, text: str = "") -> CompiledExpression:
    """Compile a parsed expression tree to its three forms."""
    attributes: List[str] = []
    _referenced_attributes(tree, attributes)

    row_gen = _CodeGen(lambda name: f"_attr(row, {name!r})")
    row_source = row_gen.generate(tree, "_compiled_row", "row")
    row_fn = _compile_body(row_source, "_compiled_row", row_gen.constants)

    params = {name: f"_a{index}" for index, name in enumerate(attributes)}
    column_gen = _CodeGen(lambda name: params[name])
    column_source = column_gen.generate(
        tree, "_compiled_columns", ", ".join(params.values())
    )
    column_fn = _compile_body(
        column_source, "_compiled_columns", column_gen.constants
    )

    return CompiledExpression(
        text=text or str(tree),
        tree=tree,
        attributes=tuple(attributes),
        row_fn=row_fn,
        column_fn=column_fn,
        row_source=row_source,
        column_source=column_source,
        batch_fn=_batch_form(tree, attributes),
    )


@lru_cache(maxsize=1024)
def compile_expression(text: str) -> CompiledExpression:
    """Parse and compile an expression, memoised on its source text.

    Parse errors propagate exactly as from :func:`parse` (and are not
    cached).  The returned object is immutable and safely shared.
    """
    return compile_tree(parse(text), text)
