"""Brute-force oracles for the query layer: the interpreters it replaced.

* :func:`reference_evaluate` is the tree-walking evaluator the compiled
  closures of :func:`repro.query.expressions.compile_expression` are
  tested against: for any expression and bindings, both must produce
  the same value, or raise the same exception type with the same
  message.
* :class:`ScanAllExecutor` is the scan-all detection walk the
  predicate index replaced: every poll evaluates every enabled query's
  whole event predicate, with the tree walk, on every scanned row.
  Engines built inside :func:`scan_all_engines` use it, so identity
  tests and the multi-query benchmark can compare the indexed engine
  against it.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, List

import repro.core.engine as engine_module
from repro.comm.tuples import DeviceTuple
from repro.core.continuous import ContinuousQueryExecutor

from repro.errors import BindingError, QueryError
from repro.geometry import Point
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
from repro.query.expressions import (
    LOCATION_PSEUDO_COLUMN,
    EvaluationContext,
)
from repro.query.query_catalog import RegisteredQuery

_NUMERIC = (int, float)


def _resolve_column(ref: ColumnRef, context: EvaluationContext) -> Any:
    if ref.qualifier:
        if ref.qualifier not in context.tuples:
            raise BindingError(
                f"unknown table alias {ref.qualifier!r} in "
                f"{ref.qualifier}.{ref.name}"
            )
        candidates = {ref.qualifier: context.tuples[ref.qualifier]}
    else:
        candidates = {
            alias: row for alias, row in context.tuples.items()
            if ref.name in row or (
                ref.name == LOCATION_PSEUDO_COLUMN
                and "loc_x" in row and "loc_y" in row)
        }
        if len(candidates) > 1:
            raise BindingError(
                f"ambiguous column {ref.name!r}: present in aliases "
                f"{sorted(candidates)}"
            )
        if not candidates:
            raise BindingError(f"unknown column {ref.name!r}")
    alias, row = next(iter(candidates.items()))
    if ref.name == LOCATION_PSEUDO_COLUMN and ref.name not in row:
        return Point(row["loc_x"], row["loc_y"])
    return row[ref.name]


def _compare(op: str, left: Any, right: Any) -> bool:
    if op in ("=", "<>"):
        equal = left == right
        return equal if op == "=" else not equal
    comparable = (
        (isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC))
        or (isinstance(left, str) and isinstance(right, str))
    )
    if not comparable:
        raise QueryError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__} using {op!r}"
        )
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    if op == "<=":
        return left <= right
    raise QueryError(f"unknown comparison operator {op!r}")


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
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


def reference_evaluate(expression: Expression,
                       context: EvaluationContext) -> Any:
    """Evaluate an expression by walking its tree on every call."""
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return _resolve_column(expression, context)
    if isinstance(expression, Comparison):
        left = reference_evaluate(expression.left, context)
        right = reference_evaluate(expression.right, context)
        return _compare(expression.op, left, right)
    if isinstance(expression, Arithmetic):
        left = reference_evaluate(expression.left, context)
        right = reference_evaluate(expression.right, context)
        return _arithmetic(expression.op, left, right)
    if isinstance(expression, Negate):
        value = reference_evaluate(expression.operand, context)
        if not isinstance(value, _NUMERIC) or isinstance(value, bool):
            raise QueryError(
                f"cannot negate a {type(value).__name__}"
            )
        return -value
    if isinstance(expression, BooleanOp):
        if expression.op == "AND":
            return all(_as_bool(operand, context)
                       for operand in expression.operands)
        return any(_as_bool(operand, context)
                   for operand in expression.operands)
    if isinstance(expression, Not):
        return not _as_bool(expression.operand, context)
    if isinstance(expression, FunctionCall):
        if context.functions is None:
            raise BindingError(
                f"no function registry available to call "
                f"{expression.name!r}"
            )
        args = [reference_evaluate(arg, context) for arg in expression.args]
        return context.functions.call(expression.name, args)
    if isinstance(expression, Star):
        raise QueryError("'*' is only legal as a SELECT item")
    raise QueryError(f"cannot evaluate {type(expression).__name__}")


def _as_bool(expression: Expression, context: EvaluationContext) -> bool:
    value = reference_evaluate(expression, context)
    if not isinstance(value, bool):
        raise QueryError(
            f"expected a boolean condition, {expression} evaluated to "
            f"{type(value).__name__}"
        )
    return value


class ScanAllExecutor(ContinuousQueryExecutor):
    """Detection by walking every enabled query over every row.

    O(queries x rows) per poll, with no predicate index and no
    candidate memo; registration, edge memory and request emission are
    the engine's own.
    """

    def _detect(self, table: str, rows: List[DeviceTuple]) -> int:
        emitted = 0
        for query in list(self.catalog.readers(table)):
            if query.enabled:
                emitted += self._detect_events(query, rows)
        return emitted

    def _detect_events(self, query: RegisteredQuery,
                       rows: List[DeviceTuple]) -> int:
        plan = query.plan
        emitted = 0
        context = EvaluationContext(tuples={}, functions=self.functions)
        for row in rows:
            context.tuples[plan.event_alias] = row
            holds = (True if plan.event_predicate is None
                     else bool(reference_evaluate(plan.event_predicate,
                                                  context)))
            previously = self.catalog.edge_state(query.name, row.device_id)
            self.catalog.set_edge(query, row.device_id, holds)
            if not holds:
                continue
            if self.config.edge_triggered and previously:
                continue  # still the same event, no re-trigger
            query.events_detected += 1
            self.obs.inc("continuous.events_detected", query=query.name)
            self.dispatcher.tracer.record(
                self.env.now, "event_detected", query=query.name,
                sensor=row.device_id)
            if self._emit_request(query, row, context, memo={}):
                emitted += 1
        return emitted


@contextlib.contextmanager
def scan_all_engines() -> Iterator[None]:
    """Engines (and shards) built in this block use :class:`ScanAllExecutor`."""
    original = engine_module.ContinuousQueryExecutor
    engine_module.ContinuousQueryExecutor = ScanAllExecutor
    try:
        yield
    finally:
        engine_module.ContinuousQueryExecutor = original
