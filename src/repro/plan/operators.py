"""Relational operators over virtual device tables.

Operators form trees whose ``rows()`` method is a simulation generator
producing *bindings*: maps from table alias to the
:class:`~repro.comm.tuples.DeviceTuple` bound to it. Scans consume
virtual time (live sensory reads over the network); the relational
operators above them are pure.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import PlanError, QueryError
from repro.comm.scan import ScanOperator
from repro.comm.tuples import DeviceTuple
from repro.query.ast import Expression, Star
from repro.query.expressions import (
    Compiled,
    EvaluationContext,
    compile_expression,
)
from repro.query.functions import FunctionRegistry

#: One intermediate row: alias -> device tuple.
Bindings = Dict[str, DeviceTuple]


class Operator:
    """Base class of plan operators."""

    def rows(self) -> Generator[Any, Any, List[Bindings]]:
        """Produce this operator's current output rows."""
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """A one-line-per-operator plan rendering."""
        raise NotImplementedError


class TableScanOp(Operator):
    """Leaf: scan one virtual device table under an alias."""

    def __init__(self, alias: str, scan: ScanOperator) -> None:
        self.alias = alias
        self.scan = scan

    def rows(self) -> Generator[Any, Any, List[Bindings]]:
        tuples = yield from self.scan.scan()
        return [{self.alias: row} for row in tuples]

    def explain(self, indent: int = 0) -> str:
        return " " * indent + (
            f"Scan({self.scan.device_type} AS {self.alias})")


class FilterOp(Operator):
    """Keep the child's rows satisfying a boolean predicate."""

    def __init__(self, child: Operator, predicate: Expression,
                 functions: Optional[FunctionRegistry] = None) -> None:
        self.child = child
        self.predicate = predicate
        self.functions = functions
        self._test = compile_expression(predicate)

    def rows(self) -> Generator[Any, Any, List[Bindings]]:
        input_rows = yield from self.child.rows()
        kept = []
        for bindings in input_rows:
            context = EvaluationContext(tuples=bindings,
                                        functions=self.functions)
            value = self._test(context)
            if not isinstance(value, bool):
                raise QueryError(
                    f"filter predicate {self.predicate} returned "
                    f"{type(value).__name__}, expected bool"
                )
            if value:
                kept.append(bindings)
        return kept

    def explain(self, indent: int = 0) -> str:
        return (" " * indent + f"Filter({self.predicate})\n"
                + self.child.explain(indent + 2))


class JoinOp(Operator):
    """Nested-loop join of two children (cross product; filter above)."""

    def __init__(self, left: Operator, right: Operator) -> None:
        self.left = left
        self.right = right

    def rows(self) -> Generator[Any, Any, List[Bindings]]:
        left_rows = yield from self.left.rows()
        right_rows = yield from self.right.rows()
        joined: List[Bindings] = []
        for left_bindings in left_rows:
            for right_bindings in right_rows:
                overlap = set(left_bindings) & set(right_bindings)
                if overlap:
                    raise PlanError(
                        f"join children share aliases: {sorted(overlap)}"
                    )
                merged = dict(left_bindings)
                merged.update(right_bindings)
                joined.append(merged)
        return joined

    def explain(self, indent: int = 0) -> str:
        return (" " * indent + "Join\n"
                + self.left.explain(indent + 2) + "\n"
                + self.right.explain(indent + 2))


class ProjectOp(Operator):
    """Evaluate the SELECT list; ``*`` expands every bound column.

    Unlike the other operators this one produces value rows, exposed
    via :meth:`result_rows`; :meth:`rows` passes bindings through so it
    can still be composed.
    """

    def __init__(self, child: Operator, items: Tuple[Expression, ...],
                 functions: Optional[FunctionRegistry] = None) -> None:
        self.child = child
        self.items = items
        self.functions = functions
        #: One closure per item; ``None`` marks a ``*`` to expand.
        self._columns: List[Optional[Compiled]] = [
            None if isinstance(item, Star) else compile_expression(item)
            for item in items]

    def rows(self) -> Generator[Any, Any, List[Bindings]]:
        return (yield from self.child.rows())

    def result_rows(self) -> Generator[Any, Any, List[Tuple[Any, ...]]]:
        input_rows = yield from self.child.rows()
        results = []
        for bindings in input_rows:
            context = EvaluationContext(tuples=bindings,
                                        functions=self.functions)
            values: List[Any] = []
            for column in self._columns:
                if column is None:
                    for alias in sorted(bindings):
                        values.extend(bindings[alias].values[name]
                                      for name in sorted(
                                          bindings[alias].values))
                else:
                    values.append(column(context))
            results.append(tuple(values))
        return results

    def column_labels(self, sample: Optional[Bindings] = None) -> List[str]:
        """Human-readable column names for the projected rows."""
        labels: List[str] = []
        for item in self.items:
            if isinstance(item, Star):
                if sample is None:
                    labels.append("*")
                else:
                    for alias in sorted(sample):
                        labels.extend(f"{alias}.{name}" for name in
                                      sorted(sample[alias].values))
            else:
                labels.append(str(item))
        return labels

    def explain(self, indent: int = 0) -> str:
        items = ", ".join(str(i) for i in self.items)
        return (" " * indent + f"Project({items})\n"
                + self.child.explain(indent + 2))
