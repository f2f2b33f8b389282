"""Event→AQ predicate index: route a tuple to the queries it matches.

One :class:`PredicateIndex` serves one event table. Each registered
query contributes its :class:`~repro.query.bands.BandForm`; the index
files the form under its *primary* band's attribute — a point band
lands in a hash bucket keyed by the literal, an interval band lands in
a segment tree over the elementary pieces of all interval endpoints.
Forms with no bands at all (WHERE-less or fully residual predicates)
live on a scan-always list, and unsatisfiable forms are filed nowhere.

A lookup stabs every attribute structure with the tuple's value for
that attribute, unions the scan-always list, and post-filters each
candidate exactly (every band re-checked numerically, then the
residual test the query was filed with) — the structures only need to
return supersets, so endpoint strictness and tombstoned entries are
resolved in the post-filter, never in the tree.

Incremental maintenance: new intervals buffer in an *overflow* list
(scanned linearly at lookup) and removals tombstone tree entries
(filtered by a liveness check). Rebuilds are lazy: the next *lookup*
that finds either buffer above an eighth of the live population folds
everything into a fresh tree — a bulk registration of 100k queries
pays zero rebuilds, the first scan afterwards pays exactly one, and
interleaved add/drop/lookup traffic stays amortized O(log n) per
operation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.comm.tuples import DeviceTuple
from repro.query.bands import BandForm

#: Overflow/tombstone count below which a rebuild is never triggered —
#: small indexes just scan the buffer.
MIN_REBUILD_THRESHOLD = 64

#: Exact test of one query's residual conjunction on one row.
RowTest = Callable[[DeviceTuple], bool]

_NUMERIC = (int, float)
_INF = float("inf")


class _IndexEntry:
    """One registered query's slot in the index."""

    __slots__ = ("name", "seq", "form", "residual")

    def __init__(self, name: str, seq: int, form: BandForm,
                 residual: Optional[RowTest]) -> None:
        self.name = name
        self.seq = seq
        self.form = form
        self.residual = residual


class _IntervalTree:
    """Static segment tree over the elementary pieces of the endpoints.

    The value line is cut at every distinct finite endpoint ``b`` into
    pieces ``(..., b0) [b0] (b0, b1) [b1] ...`` — ``2n + 1`` pieces for
    ``n`` endpoints. Each interval covers a contiguous piece range and
    is stored on the O(log n) canonical nodes of an implicit array
    tree; a stab walks one leaf-to-root path and unions the node lists.
    Nodes live in a dict so the (mostly empty) array is never
    materialized. Strictness is ignored here — closed-piece coverage
    yields a superset the caller's band re-check tightens.
    """

    __slots__ = ("_bounds", "_size", "_nodes")

    def __init__(self, entries: List[_IndexEntry]) -> None:
        bounds = set()
        for entry in entries:
            band = entry.form.bands[0]
            if band.low != -_INF:
                bounds.add(band.low)
            if band.high != _INF:
                bounds.add(band.high)
        self._bounds = sorted(bounds)
        pieces = 2 * len(self._bounds) + 1
        size = 1
        while size < pieces:
            size <<= 1
        self._size = size
        self._nodes: Dict[int, List[_IndexEntry]] = {}
        for entry in entries:
            band = entry.form.bands[0]
            left = 0 if band.low == -_INF else self._piece(band.low)
            right = pieces - 1 if band.high == _INF \
                else self._piece(band.high)
            lo, hi = left + size, right + size + 1
            while lo < hi:
                if lo & 1:
                    self._nodes.setdefault(lo, []).append(entry)
                    lo += 1
                if hi & 1:
                    hi -= 1
                    self._nodes.setdefault(hi, []).append(entry)
                lo >>= 1
                hi >>= 1

    def _piece(self, value: float) -> int:
        index = bisect_left(self._bounds, value)
        if index < len(self._bounds) and self._bounds[index] == value:
            return 2 * index + 1
        return 2 * index

    def stab(self, value: float) -> List[_IndexEntry]:
        """Every stored interval whose closed hull contains ``value``."""
        out: List[_IndexEntry] = []
        nodes = self._nodes
        index = self._piece(value) + self._size
        while index:
            bucket = nodes.get(index)
            if bucket:
                out.extend(bucket)
            index >>= 1
        return out


class AttributeIndex:
    """All primary bands of one (event-table, attribute) pair."""

    __slots__ = ("_points", "_live", "_tree", "_overflow", "_dead",
                 "rebuilds")

    def __init__(self) -> None:
        #: Point bands, bucketed by literal value.
        self._points: Dict[Any, List[_IndexEntry]] = {}
        #: Live interval entries by query name (the liveness oracle for
        #: tombstoned tree slots).
        self._live: Dict[str, _IndexEntry] = {}
        self._tree: Optional[_IntervalTree] = None
        #: Interval entries added since the last rebuild.
        self._overflow: List[_IndexEntry] = []
        #: Tree entries dropped since the last rebuild.
        self._dead = 0
        self.rebuilds = 0

    def __len__(self) -> int:
        return len(self._live) + sum(
            len(bucket) for bucket in self._points.values())

    def add(self, entry: _IndexEntry) -> None:
        band = entry.form.bands[0]
        if band.has_point:
            self._points.setdefault(band.point, []).append(entry)
            return
        self._live[entry.name] = entry
        self._overflow.append(entry)

    def remove(self, entry: _IndexEntry) -> None:
        band = entry.form.bands[0]
        if band.has_point:
            bucket = self._points.get(band.point, [])
            if entry in bucket:
                bucket.remove(entry)
                if not bucket:
                    del self._points[band.point]
            return
        self._live.pop(entry.name, None)
        if entry in self._overflow:
            self._overflow.remove(entry)
        else:
            self._dead += 1

    def _rebuild_threshold(self) -> int:
        return max(MIN_REBUILD_THRESHOLD, len(self._live) // 8)

    def _rebuild(self) -> None:
        entries = list(self._live.values())
        self._tree = _IntervalTree(entries) if entries else None
        self._overflow = []
        self._dead = 0
        self.rebuilds += 1

    def collect(self, value: Any, out: List[_IndexEntry]) -> None:
        """Append every candidate entry for one attribute value."""
        try:
            bucket = self._points.get(value)
        except TypeError:  # unhashable value cannot equal any literal
            bucket = None
        if bucket:
            out.extend(bucket)
        if not self._live:
            return
        # Interval bands exist only for numeric attributes; a
        # non-numeric value (ill-typed row) matches none of them and
        # must not reach the tree's bisect.
        if not isinstance(value, _NUMERIC):
            return
        # Lazy amortized rebuild: fold overflow adds and tombstoned
        # drops into a fresh tree once either outgrows an eighth of
        # the live population (bulk registrations pay one rebuild on
        # the first lookup, not one per threshold crossing).
        threshold = self._rebuild_threshold()
        if len(self._overflow) > threshold or self._dead > threshold:
            self._rebuild()
        if self._tree is not None:
            live = self._live
            for entry in self._tree.stab(value):
                if live.get(entry.name) is entry:
                    out.append(entry)
        out.extend(self._overflow)


class PredicateIndex:
    """The event→AQ index of one event table."""

    def __init__(self, table: str) -> None:
        self.table = table
        self._attributes: Dict[str, AttributeIndex] = {}
        #: Band-less forms, brute-forced per tuple (insertion order).
        self._scan_always: Dict[str, _IndexEntry] = {}
        self._entries: Dict[str, _IndexEntry] = {}
        self.lookups = 0
        self.candidates_examined = 0
        self.matches = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def add(self, name: str, seq: int, form: BandForm,
            residual: Optional[RowTest] = None) -> None:
        """File one registered query under its band form.

        ``residual`` tests the form's residual expression on a row; pass
        it exactly when the form has a residual.
        """
        entry = _IndexEntry(name, seq, form, residual)
        self._entries[name] = entry
        if form.unsatisfiable:
            return  # matches nothing; filed nowhere
        primary = form.primary
        if primary is None:
            self._scan_always[name] = entry
            return
        attribute = self._attributes.get(primary.attribute)
        if attribute is None:
            attribute = self._attributes[primary.attribute] = \
                AttributeIndex()
        attribute.add(entry)

    def remove(self, name: str) -> None:
        """Unfile a dropped query (no-op for unknown names)."""
        entry = self._entries.pop(name, None)
        if entry is None:
            return
        if entry.form.unsatisfiable:
            return
        primary = entry.form.primary
        if primary is None:
            self._scan_always.pop(name, None)
            return
        attribute = self._attributes.get(primary.attribute)
        if attribute is not None:
            attribute.remove(entry)
            if not len(attribute):
                del self._attributes[primary.attribute]

    def match(self, row: DeviceTuple,
              admit: Optional[Callable[[str], bool]] = None,
              ) -> List[Tuple[int, str]]:
        """Exactly the queries whose predicate admits ``row``.

        Returns ``(seq, name)`` pairs (registration order is the seq
        order). ``admit`` pre-filters candidates by name before any
        predicate work — the executor passes the enabled check, so
        disabled queries cost nothing and see no evaluation, exactly
        like a query that is not registered.
        """
        self.lookups += 1
        candidates: List[_IndexEntry] = []
        for name, attribute in self._attributes.items():
            if name in row:
                attribute.collect(row[name], candidates)
        candidates.extend(self._scan_always.values())
        out: List[Tuple[int, str]] = []
        for entry in candidates:
            self.candidates_examined += 1
            if admit is not None and not admit(entry.name):
                continue
            form = entry.form
            admitted = True
            for band in form.bands:
                if not band.admits(row[band.attribute]):
                    admitted = False
                    break
            if not admitted:
                continue
            if entry.residual is not None and not entry.residual(row):
                continue
            self.matches += 1
            out.append((entry.seq, entry.name))
        return out

    def stats(self) -> Dict[str, int]:
        """Size and traffic counters for statistics() reporting."""
        indexed = sum(
            0 if entry.form.unsatisfiable or entry.form.primary is None
            else 1 for entry in self._entries.values())
        return {
            "queries": len(self._entries),
            "indexed_queries": indexed,
            "residual_only_queries": len(self._scan_always),
            "unsatisfiable_queries": sum(
                1 for entry in self._entries.values()
                if entry.form.unsatisfiable),
            "lookups": self.lookups,
            "candidates_examined": self.candidates_examined,
            "matches": self.matches,
            "rebuilds": sum(attribute.rebuilds for attribute
                            in self._attributes.values()),
        }
