"""The live catalog of registered continuous queries.

:class:`QueryCatalog` owns registered-query lifecycle — the name →
query map, the per-event-table reader lists, per-query counters and
the event-edge memory — so the executor, engine facade, sharded
coordinator and CLI all read one structure instead of ad-hoc dicts.

Edge-trigger memory lives here as (query, device) keys: per query, the
set of event devices whose predicate held at the last poll. Detection
writes the matches and prunes the scanned non-matches, so membership
is what a walk writing every scanned row's outcome would leave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set

from repro.query.bands import BandForm
from repro.query.expressions import Compiled

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.plan.planner import ContinuousPlan


@dataclass
class RegisteredQuery:
    """One live continuous query and its per-query statistics."""

    plan: "ContinuousPlan"
    enabled: bool = True
    events_detected: int = 0
    requests_emitted: int = 0
    #: Events whose candidate set was empty (e.g. no camera covers the
    #: sensor's location) — nothing to schedule.
    uncovered_events: int = 0
    #: Priority tier stamped on every request this query emits (only
    #: meaningful with overload control on; larger = more important).
    priority: int = 1
    #: Relative service deadline for emitted requests, in virtual
    #: seconds from emission; ``None`` = no deadline.
    deadline_seconds: Optional[float] = None
    #: Requests refused by admission control or queue backpressure
    #: (stays zero with overload control off).
    requests_rejected: int = 0
    #: The event predicate compiled at registration: its band form (the
    #: predicate index's routing key) and a closure for the residual
    #: the bands cannot express (``None`` when there is none).
    band_form: Optional[BandForm] = None
    residual: Optional[Compiled] = None
    #: The candidate predicate as a closure (``None``: every device of
    #: the device table is a candidate).
    candidate: Optional[Compiled] = None
    #: Action argument name -> closure, in the plan's argument order.
    arguments: Dict[str, Compiled] = field(default_factory=dict)
    #: Registration sequence number, catalog-assigned and monotone —
    #: sorting by seq recovers registration order.
    seq: int = -1

    @property
    def name(self) -> str:
        return self.plan.query_name


class QueryCatalog:
    """Registered queries, reader lists per table, and edge memory."""

    def __init__(self) -> None:
        #: Query name -> query, in registration order.
        self.queries: Dict[str, RegisteredQuery] = {}
        #: Event table -> queries reading it, maintained at
        #: register/drop time so each poll walks an index instead of
        #: rebuilding the table set from every registered query. A
        #: table whose last reader is dropped loses its entry.
        self.by_table: Dict[str, List[RegisteredQuery]] = {}
        #: Query name -> event devices where the predicate held at the
        #: last poll (the edge-trigger memory).
        self._edge: Dict[str, Set[str]] = {}
        #: Event table -> queries with non-empty edge memory, so the
        #: indexed path can clear stale edges without walking every
        #: registered query.
        self._held: Dict[str, Dict[str, RegisteredQuery]] = {}
        self._next_seq = 0
        self.registered_total = 0
        self.dropped_total = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(self, query: RegisteredQuery) -> RegisteredQuery:
        """Admit one query (the caller has already validated it)."""
        query.seq = self._next_seq
        self._next_seq += 1
        self.queries[query.name] = query
        self.by_table.setdefault(query.plan.event_table, []).append(query)
        self.registered_total += 1
        return query

    def drop(self, name: str) -> RegisteredQuery:
        """Remove one query and every trace of its edge memory."""
        query = self.queries.pop(name)
        table = query.plan.event_table
        readers = self.by_table.get(table, [])
        if query in readers:
            readers.remove(query)
            if not readers:
                del self.by_table[table]
        self._edge.pop(name, None)
        held = self._held.get(table)
        if held is not None:
            held.pop(name, None)
            if not held:
                del self._held[table]
        self.dropped_total += 1
        return query

    def get(self, name: str) -> Optional[RegisteredQuery]:
        return self.queries.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.queries

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterable[RegisteredQuery]:
        return iter(self.queries.values())

    def set_enabled(self, name: str, enabled: bool) -> RegisteredQuery:
        """Pause or resume a query; raises KeyError on unknown names."""
        query = self.queries[name]
        query.enabled = enabled
        return query

    def readers(self, table: str) -> List[RegisteredQuery]:
        """The queries reading one event table, registration order."""
        return self.by_table.get(table, [])

    # ------------------------------------------------------------------
    # Edge-trigger memory
    # ------------------------------------------------------------------
    def edge_state(self, name: str, device_id: str) -> bool:
        """Whether the query's predicate held for this device last poll."""
        held = self._edge.get(name)
        return held is not None and device_id in held

    def set_edge(self, query: RegisteredQuery, device_id: str,
                 holds: bool) -> None:
        """Record one (query, device) predicate outcome."""
        held = self._edge.get(query.name)
        if holds:
            if held is None:
                held = self._edge[query.name] = set()
            if not held:
                self._held.setdefault(
                    query.plan.event_table, {})[query.name] = query
            held.add(device_id)
        elif held is not None and device_id in held:
            held.remove(device_id)
            if not held:
                self._forget_held(query)

    def held_queries(self, table: str) -> List[RegisteredQuery]:
        """Queries on this table with non-empty edge memory."""
        return list(self._held.get(table, {}).values())

    def prune_edges(self, query: RegisteredQuery, seen: Set[str],
                    matched: Set[str]) -> None:
        """Forget held devices that were scanned but no longer match.

        Devices outside ``seen`` keep their edge state — an unscanned
        device carries no new information, so only rows the scan
        returned update state.
        """
        held = self._edge.get(query.name)
        if not held:
            return
        stale = [device_id for device_id in held
                 if device_id in seen and device_id not in matched]
        for device_id in stale:
            held.remove(device_id)
        if not held:
            self._forget_held(query)

    def _forget_held(self, query: RegisteredQuery) -> None:
        held = self._held.get(query.plan.event_table)
        if held is not None:
            held.pop(query.name, None)
            if not held:
                del self._held[query.plan.event_table]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> List[Dict[str, Any]]:
        """Per-query listing in registration order (CLI / coordinator)."""
        return [
            {
                "name": query.name,
                "state": "enabled" if query.enabled else "disabled",
                "event_table": query.plan.event_table,
                "action": query.plan.action.name,
                "priority": query.priority,
                "events_detected": query.events_detected,
                "requests_emitted": query.requests_emitted,
                "requests_rejected": query.requests_rejected,
                "uncovered_events": query.uncovered_events,
            }
            for query in sorted(self.queries.values(),
                                key=lambda query: query.seq)
        ]
