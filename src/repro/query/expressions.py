"""Expression evaluation over device tuples.

Expressions are compiled, not interpreted: :func:`compile_expression`
turns an AST into one closure per node, once, so the dispatch on node
type, operator and column qualification happens at compile time and a
call only does the work the expression needs. Continuous queries
compile their predicates and arguments when they are registered, and
plan operators compile theirs when they are built; :func:`evaluate` is
"compile, then call" for one-off evaluations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import BindingError, QueryError
from repro.geometry import Point
from repro.comm.tuples import DeviceTuple
from repro.query.ast import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Negate,
    Not,
    Star,
)
from repro.query.functions import FunctionRegistry

#: Pseudo-column: ``alias.loc`` combines loc_x/loc_y into a Point. The
#: paper's queries pass ``s.loc`` to actions and to coverage().
LOCATION_PSEUDO_COLUMN = "loc"


@dataclass
class EvaluationContext:
    """Bindings for one evaluation: alias -> tuple, plus functions."""

    tuples: Dict[str, DeviceTuple] = field(default_factory=dict)
    functions: Optional[FunctionRegistry] = None

    def bind(self, alias: str, row: DeviceTuple) -> "EvaluationContext":
        """A new context with one more alias bound."""
        merged = dict(self.tuples)
        merged[alias] = row
        return EvaluationContext(tuples=merged, functions=self.functions)


#: A compiled expression: its value under one context.
Compiled = Callable[[EvaluationContext], Any]

_NUMERIC = (int, float)

_ORDERINGS: Dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


def _orderable(left: Any, right: Any) -> bool:
    return ((isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC))
            or (isinstance(left, str) and isinstance(right, str)))


def _incomparable(op: str, left: Any, right: Any) -> QueryError:
    return QueryError(
        f"cannot compare {type(left).__name__} with "
        f"{type(right).__name__} using {op!r}"
    )


def compare_values(op: str, left: Any, right: Any) -> bool:
    """Compare two values with SQL comparison semantics.

    The exact comparison the evaluator applies to ``left op right``:
    ``=``/``<>`` are Python equality; ordering requires both sides
    numeric or both strings and raises :class:`QueryError` otherwise.
    Public so the predicate index's band checks share one definition
    of comparison with the evaluator.
    """
    if op in ("=", "<>"):
        equal = left == right
        return equal if op == "=" else not equal
    if not _orderable(left, right):
        raise _incomparable(op, left, right)
    test = _ORDERINGS.get(op)
    if test is None:
        raise QueryError(f"unknown comparison operator {op!r}")
    return test(left, right)


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right  # SQL-ish string concatenation
    for operand in (left, right):
        if not isinstance(operand, _NUMERIC) or isinstance(operand, bool):
            raise QueryError(
                f"arithmetic {op!r} needs numbers, got "
                f"{type(operand).__name__}"
            )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise QueryError("division by zero in query expression")
        return left / right
    raise QueryError(f"unknown arithmetic operator {op!r}")


def evaluate(expression: Expression, context: EvaluationContext) -> Any:
    """Evaluate an expression against bound tuples (compile, then call).

    Booleans short-circuit; functions dispatch through the context's
    registry. ``Star`` has no value — the projection layer expands it.
    Hot paths compile once with :func:`compile_expression` instead.
    """
    return compile_expression(expression)(context)


def compile_expression(expression: Expression) -> Compiled:
    """Compile an expression into a closure over an evaluation context.

    The closure returns the value the expression has under the
    context's bindings, and raises the same errors, in the same
    evaluation order, whatever the expression: unknown aliases and
    columns, ambiguous columns, ill-typed operands, non-boolean
    conditions, division by zero, unknown functions and wrong arities.
    Compilation itself never raises; every error waits for a call.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return lambda context: value
    if isinstance(expression, ColumnRef):
        return _compile_column(expression)
    if isinstance(expression, Comparison):
        return _compile_comparison(expression)
    if isinstance(expression, Arithmetic):
        return _compile_arithmetic(expression)
    if isinstance(expression, Negate):
        return _compile_negate(expression)
    if isinstance(expression, BooleanOp):
        return _compile_boolean(expression)
    if isinstance(expression, Not):
        return _compile_not(expression)
    if isinstance(expression, FunctionCall):
        return _compile_call(expression)
    if isinstance(expression, Star):
        return _failing("'*' is only legal as a SELECT item")
    return _failing(f"cannot evaluate {type(expression).__name__}")


def _failing(message: str) -> Compiled:
    def fail(context: EvaluationContext) -> Any:
        raise QueryError(message)
    return fail


def _compile_column(ref: ColumnRef) -> Compiled:
    name = ref.name
    if not ref.qualifier:
        return lambda context: _resolve_unqualified(name, context)
    qualifier = ref.qualifier
    location = name == LOCATION_PSEUDO_COLUMN

    def column(context: EvaluationContext) -> Any:
        try:
            row = context.tuples[qualifier]
        except KeyError:
            raise BindingError(
                f"unknown table alias {qualifier!r} in {qualifier}.{name}"
            ) from None
        return _location(row) if location else row[name]
    return column


def _location(row: DeviceTuple) -> Any:
    """``row.loc``: a real ``loc`` column wins over the pseudo-column."""
    if LOCATION_PSEUDO_COLUMN in row:
        return row[LOCATION_PSEUDO_COLUMN]
    return Point(row["loc_x"], row["loc_y"])


def _resolve_unqualified(name: str, context: EvaluationContext) -> Any:
    """An unqualified column: the one bound tuple that has it."""
    location = name == LOCATION_PSEUDO_COLUMN
    owners = [
        (alias, row) for alias, row in context.tuples.items()
        if name in row or (location and "loc_x" in row and "loc_y" in row)
    ]
    if len(owners) > 1:
        raise BindingError(
            f"ambiguous column {name!r}: present in aliases "
            f"{sorted(alias for alias, _row in owners)}"
        )
    if not owners:
        raise BindingError(f"unknown column {name!r}")
    row = owners[0][1]
    return _location(row) if location else row[name]


def _compile_comparison(expression: Comparison) -> Compiled:
    op = expression.op
    left = compile_expression(expression.left)
    right = compile_expression(expression.right)
    if op == "=":
        return lambda context: left(context) == right(context)
    if op == "<>":
        return lambda context: not left(context) == right(context)
    test = _ORDERINGS.get(op)
    if test is None:
        return lambda context: compare_values(op, left(context),
                                              right(context))
    ordering: Callable[[Any, Any], bool] = test

    def ordered(context: EvaluationContext) -> bool:
        a = left(context)
        b = right(context)
        if _orderable(a, b):
            return ordering(a, b)
        raise _incomparable(op, a, b)
    return ordered


def _compile_arithmetic(expression: Arithmetic) -> Compiled:
    op = expression.op
    left = compile_expression(expression.left)
    right = compile_expression(expression.right)
    return lambda context: _arithmetic(op, left(context), right(context))


def _compile_negate(expression: Negate) -> Compiled:
    operand = compile_expression(expression.operand)

    def negate(context: EvaluationContext) -> Any:
        value = operand(context)
        if not isinstance(value, _NUMERIC) or isinstance(value, bool):
            raise QueryError(f"cannot negate a {type(value).__name__}")
        return -value
    return negate


def _not_boolean(expression: Expression, value: Any) -> QueryError:
    return QueryError(
        f"expected a boolean condition, {expression} evaluated to "
        f"{type(value).__name__}"
    )


def _compile_boolean(expression: BooleanOp) -> Compiled:
    operands: List[Tuple[Compiled, Expression]] = [
        (compile_expression(operand), operand)
        for operand in expression.operands]
    # AND stops at the first False, OR at the first True; every operand
    # evaluated on the way must be a boolean.
    stop = expression.op != "AND"
    go_on = not stop

    def junction(context: EvaluationContext) -> bool:
        for operand, source in operands:
            value = operand(context)
            if value is go_on:
                continue
            if value is stop:
                return stop
            raise _not_boolean(source, value)
        return go_on
    return junction


def _compile_not(expression: Not) -> Compiled:
    source = expression.operand
    operand = compile_expression(source)

    def negation(context: EvaluationContext) -> bool:
        value = operand(context)
        if not isinstance(value, bool):
            raise _not_boolean(source, value)
        return not value
    return negation


def _compile_call(expression: FunctionCall) -> Compiled:
    name = expression.name
    arguments = [compile_expression(arg) for arg in expression.args]

    def call(context: EvaluationContext) -> Any:
        functions = context.functions
        if functions is None:
            raise BindingError(
                f"no function registry available to call {name!r}"
            )
        return functions.call(name,
                              [argument(context) for argument in arguments])
    return call
