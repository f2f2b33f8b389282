"""Normalized band form of continuous-query event predicates.

An AQ's event predicate is a conjunction over one event alias; the
indexable part of that conjunction is a set of *bands* — per-attribute
interval or point constraints of the shape ``s.attr op literal``.
:func:`compile_event_predicate` splits a predicate into

* one :class:`Band` per constrained attribute (same-attribute
  constraints intersect at compile time, so ``x > 3 AND x < 9`` is one
  band and ``x > 5 AND x < 3`` is recognized as unsatisfiable), and
* a *residual* expression holding every conjunct the band form cannot
  express (ORs, NOT, function calls, cross-column comparisons, string
  ordering) — compiled once and evaluated per candidate tuple.

The band form is the unit the predicate index routes on; its
``matches`` method is the exact (non-superset) membership test, reusing
:func:`~repro.query.expressions.compare_values` so banded conjuncts
keep the comparison semantics of the expression evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.comm.tuples import DeviceTuple
from repro.profiles.schema import DeviceCatalog
from repro.query.ast import (
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
)
from repro.query.expressions import (
    LOCATION_PSEUDO_COLUMN,
    EvaluationContext,
    compare_values,
    evaluate,
)

_INF = float("inf")

#: Comparison operator seen from the column's side when the literal is
#: on the left (``5 < s.x`` reads as ``s.x > 5``).
_FLIPPED_OPS = {">": "<", "<": ">", ">=": "<=", "<=": ">=", "=": "="}

_NUMERIC_TYPES = (int, float)


@dataclass(frozen=True)
class Band:
    """One attribute's conjunctive constraint: an interval or a point.

    A *point* band (``has_point``) is an equality constraint keyed by
    dictionary lookup in the index; an *interval* band is a numeric
    range with per-end strictness (``low_strict`` means ``value >
    low``, inclusive otherwise). Unused ends stay at +/-infinity.
    """

    attribute: str
    point: Any = None
    has_point: bool = False
    low: float = -_INF
    high: float = _INF
    low_strict: bool = False
    high_strict: bool = False

    def admits(self, value: Any) -> bool:
        """Whether ``value`` satisfies this band.

        Delegates to :func:`compare_values`, so type errors (e.g. a
        string value against a numeric interval) raise the same
        :class:`~repro.errors.QueryError` the evaluator would.
        """
        if self.has_point:
            return compare_values("=", value, self.point)
        if self.low != -_INF and not compare_values(
                ">" if self.low_strict else ">=", value, self.low):
            return False
        if self.high != _INF and not compare_values(
                "<" if self.high_strict else "<=", value, self.high):
            return False
        return True

    def intersect(self, other: "Band") -> Optional["Band"]:
        """The conjunction of two same-attribute bands.

        Returns ``None`` when the conjunction is unsatisfiable (empty
        interval, contradictory points, or a point outside the other
        band's range).
        """
        if self.has_point and other.has_point:
            return self if self.point == other.point else None
        if self.has_point or other.has_point:
            point, ranged = ((self, other) if self.has_point
                             else (other, self))
            if not isinstance(point.point, _NUMERIC_TYPES):
                # A non-numeric point can never satisfy a numeric
                # interval — the conjunction is empty, exactly as the
                # evaluator's short-circuiting ``=`` would
                # report False before the interval conjunct errors.
                return None
            return point if ranged.admits(point.point) else None
        low, low_strict = self.low, self.low_strict
        if other.low > low or (other.low == low and other.low_strict):
            low, low_strict = other.low, other.low_strict
        high, high_strict = self.high, self.high_strict
        if other.high < high or (other.high == high and other.high_strict):
            high, high_strict = other.high, other.high_strict
        if low > high or (low == high and (low_strict or high_strict)):
            return None
        return Band(self.attribute, low=low, high=high,
                    low_strict=low_strict, high_strict=high_strict)

    def __str__(self) -> str:
        if self.has_point:
            return f"{self.attribute} = {self.point!r}"
        left = "" if self.low == -_INF else \
            f"{self.low} {'<' if self.low_strict else '<='} "
        right = "" if self.high == _INF else \
            f" {'<' if self.high_strict else '<='} {self.high}"
        return f"{left}{self.attribute}{right}"


@dataclass(frozen=True)
class BandForm:
    """The normalized form of one event predicate.

    ``bands`` are conjunctive per-attribute constraints (at most one
    per attribute); ``residual`` is the conjunction of everything the
    band form cannot express, or ``None``. An empty form (no bands, no
    residual) matches every tuple — the shape of a WHERE-less AQ. An
    ``unsatisfiable`` form matches nothing.
    """

    bands: Tuple[Band, ...] = ()
    residual: Optional[Expression] = None
    unsatisfiable: bool = False

    @property
    def indexable(self) -> bool:
        """Whether at least one band exists to route index lookups on."""
        return bool(self.bands)

    @property
    def primary(self) -> Optional[Band]:
        """The band index lookups route on (first constrained attribute)."""
        return self.bands[0] if self.bands else None

    def matches(self, row: DeviceTuple,
                context: EvaluationContext) -> bool:
        """Exact membership: every band admits, the residual holds.

        ``context`` must already have the event alias bound to ``row``
        for residual evaluation.
        """
        if self.unsatisfiable:
            return False
        for band in self.bands:
            if not band.admits(row[band.attribute]):
                return False
        if self.residual is not None:
            return bool(evaluate(self.residual, context))
        return True


def conjuncts_of(expression: Optional[Expression]) -> List[Expression]:
    """Flatten nested ANDs into their conjunct list."""
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.op == "AND":
        flattened: List[Expression] = []
        for operand in expression.operands:
            flattened.extend(conjuncts_of(operand))
        return flattened
    return [expression]


def conjoin(conjuncts: List[Expression]) -> Optional[Expression]:
    """Rebuild a conjunction from a conjunct list (None when empty)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BooleanOp("AND", tuple(conjuncts))


def _band_of(conjunct: Expression, event_alias: str,
             catalog: DeviceCatalog) -> Optional[Band]:
    """The band one conjunct expresses, or None if non-indexable."""
    if not isinstance(conjunct, Comparison):
        return None
    if isinstance(conjunct.left, ColumnRef) \
            and isinstance(conjunct.right, Literal):
        ref, literal, op = conjunct.left, conjunct.right, conjunct.op
    elif isinstance(conjunct.right, ColumnRef) \
            and isinstance(conjunct.left, Literal):
        ref, literal = conjunct.right, conjunct.left
        op = _FLIPPED_OPS.get(conjunct.op, "")
    else:
        return None
    if op not in _FLIPPED_OPS:
        return None  # <> (and anything exotic) stays residual
    if ref.qualifier and ref.qualifier != event_alias:
        return None
    if ref.name == LOCATION_PSEUDO_COLUMN \
            or not catalog.has_attribute(ref.name):
        return None
    value = literal.value
    if op == "=":
        # Point bands hold any literal: dict-bucket lookup agrees with
        # ``=`` for every literal type (1 == 1.0 == True included).
        return Band(ref.name, point=value, has_point=True)
    # Ordering ops band only when both sides are numeric; a string
    # column (or string literal against a numeric column) would make
    # the comparison row-dependent on errors, so it stays residual.
    if catalog.attribute(ref.name).python_type not in _NUMERIC_TYPES:
        return None
    if not isinstance(value, _NUMERIC_TYPES):
        return None
    bound = float(value)
    if op == ">":
        return Band(ref.name, low=bound, low_strict=True)
    if op == ">=":
        return Band(ref.name, low=bound)
    if op == "<":
        return Band(ref.name, high=bound, high_strict=True)
    return Band(ref.name, high=bound)


def compile_event_predicate(predicate: Optional[Expression],
                            event_alias: str,
                            catalog: DeviceCatalog) -> BandForm:
    """Split an event predicate into bands plus a residual.

    Top-level conjuncts of the shape ``alias.attr op literal`` (either
    orientation; the alias may be implicit) become bands; same-attribute
    bands intersect, and a contradictory intersection yields an
    unsatisfiable form. Everything else is re-conjoined into the
    residual in its original order, preserving the evaluator's AND
    short-circuit behaviour among residual conjuncts.
    """
    if predicate is None:
        return BandForm()
    bands: Dict[str, Band] = {}
    residual: List[Expression] = []
    for conjunct in conjuncts_of(predicate):
        band = _band_of(conjunct, event_alias, catalog)
        if band is None:
            residual.append(conjunct)
            continue
        existing = bands.get(band.attribute)
        merged = band if existing is None else existing.intersect(band)
        if merged is None:
            return BandForm(unsatisfiable=True)
        bands[band.attribute] = merged
    return BandForm(tuple(bands.values()), conjoin(residual))
