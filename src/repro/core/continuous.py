"""Event-driven execution of registered continuous queries.

"Many pervasive computing applications have an event-driven and
action-oriented processing nature: when the application detects an
event, a pre-defined action on some type of devices is triggered."
(Section 2.2) The executor polls the event tables' scan operators —
one shared scan per table regardless of how many queries read it —
and matches each scanned tuple against the registered queries.

Each AQ is compiled once, when it is registered, and never
interpreted per row:

* its event predicate is split into a
  :class:`~repro.query.bands.BandForm` (per-attribute bands plus a
  residual) and filed in the event table's
  :class:`~repro.query.PredicateIndex`, so each scanned row reaches
  only the queries whose bands admit it;
* the residual, the candidate predicate and the action's argument
  expressions become closures
  (:func:`~repro.query.expressions.compile_expression`) stored on the
  :class:`~repro.query.RegisteredQuery`.

Matching is row-at-a-time, but emission replays the matches
query-major in registration order (row order within a query), the
order a scan-all walk over every query would produce, so traces,
counters and request ids do not depend on the index. The one
documented difference: band conjuncts are checked before residual
conjuncts, so a row whose residual would raise mid-AND cleanly does
not match when a band already rejects it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import (
    AdmissionError,
    AortaError,
    PlanError,
    RegistrationError,
)
from repro.actions.request import ActionRequest
from repro.comm.layer import CommunicationLayer
from repro.comm.scan import ScanOperator
from repro.comm.tuples import DeviceTuple
from repro.devices.base import Device
from repro.plan.planner import ContinuousPlan
from repro.query.ast import Expression
from repro.query.bands import compile_event_predicate
# ``evaluate`` is unused here but stays importable from this module:
# perfbench's traced run wraps ``repro.core.continuous.evaluate``.
from repro.query.expressions import (  # noqa: F401
    LOCATION_PSEUDO_COLUMN,
    Compiled,
    EvaluationContext,
    compile_expression,
    evaluate,
)
from repro.query.functions import FunctionRegistry
from repro.query.predicate_index import PredicateIndex, RowTest
from repro.query.query_catalog import QueryCatalog, RegisteredQuery
from repro.runtime import Runtime
from repro.core.config import EngineConfig
from repro.core.dispatcher import Dispatcher

__all__ = ["ContinuousQueryExecutor", "RegisteredQuery"]

#: Memo key of one candidate-set computation within a single poll:
#: (device table, device alias, candidate predicate, event device).
_CandidateKey = Tuple[str, str, Optional[Expression], str]


class ContinuousQueryExecutor:
    """Runs every registered AQ against the live device network."""

    def __init__(
        self,
        env: Runtime,
        comm: CommunicationLayer,
        functions: FunctionRegistry,
        dispatcher: Dispatcher,
        config: EngineConfig,
    ) -> None:
        self.env = env
        self.comm = comm
        self.functions = functions
        self.dispatcher = dispatcher
        self.config = config
        #: Query lifecycle, per-table reader lists and edge memory.
        self.catalog = QueryCatalog()
        #: Per-event-table predicate indexes; a table has one exactly
        #: while it has readers.
        self._indexes: Dict[str, PredicateIndex] = {}
        self._scans: Dict[str, ScanOperator] = {}
        self._running = False
        self.polls = 0

    @property
    def obs(self):
        """The engine's observability sink (shared via the dispatcher)."""
        return self.dispatcher.obs

    @property
    def queries(self) -> Dict[str, RegisteredQuery]:
        """Query name -> registered query (the catalog's live map)."""
        return self.catalog.queries

    @property
    def _queries_by_table(self) -> Dict[str, List[RegisteredQuery]]:
        """Event table -> reader list (the catalog's live index)."""
        return self.catalog.by_table

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, plan: ContinuousPlan, *, priority: int = 1,
                 deadline_seconds: Optional[float] = None,
                 ) -> RegisteredQuery:
        """Install a planned AQ (the CREATE AQ effect).

        ``priority`` and ``deadline_seconds`` are stamped on every
        request the query emits; they only influence behaviour when the
        engine's overload-control plane is on. Registration itself is
        an admission unit: with overload control on, a configured
        per-tier registration rate limit may refuse the AQ with
        :class:`~repro.errors.AdmissionError`.
        """
        if plan.query_name in self.catalog:
            raise RegistrationError(
                f"query {plan.query_name!r} is already registered"
            )
        self._check_candidate_predicate(plan)
        plane = self.dispatcher.overload
        if plane is not None:
            reason = plane.admission.admit_query(priority, self.env.now)
            if reason is not None:
                self.dispatcher.tracer.record(
                    self.env.now, "query_rejected",
                    query=plan.query_name, priority=priority,
                    reason=reason)
                raise AdmissionError(
                    f"registration of {plan.query_name!r} refused: "
                    f"{reason}")
        query = self._compile(plan, priority, deadline_seconds)
        self.dispatcher.operator_for(plan.action).attach(plan.query_name)
        self.catalog.register(query)
        self._index_for(plan.event_table).add(
            query.name, query.seq, query.band_form,
            self._residual_test(query))
        self.dispatcher.tracer.record(
            self.env.now, "query_registered", query=plan.query_name,
            action=plan.action.name)
        return query

    def drop(self, name: str) -> None:
        """Remove a query (the DROP AQ effect)."""
        if name not in self.catalog:
            raise RegistrationError(f"no registered query {name!r}")
        query = self.catalog.drop(name)
        table = query.plan.event_table
        if table not in self.catalog.by_table:
            # Last reader gone: retire the table's scan and index so an
            # idle table stops polling (and costs nothing until a new
            # reader registers).
            self._scans.pop(table, None)
            self._indexes.pop(table, None)
        else:
            self._indexes[table].remove(name)
        self.dispatcher.operator_for(query.plan.action).detach(name)
        self.dispatcher.tracer.record(self.env.now, "query_dropped",
                                      query=name)

    def _compile(self, plan: ContinuousPlan, priority: int,
                 deadline_seconds: Optional[float]) -> RegisteredQuery:
        """The registered form of a plan: its band form and closures."""
        form = compile_event_predicate(
            plan.event_predicate, plan.event_alias,
            self.comm.catalog(plan.event_table))
        return RegisteredQuery(
            plan=plan, priority=priority,
            deadline_seconds=deadline_seconds, band_form=form,
            residual=(None if form.residual is None
                      else compile_expression(form.residual)),
            candidate=(None if plan.candidate_predicate is None
                       else compile_expression(plan.candidate_predicate)),
            arguments={
                name: compile_expression(expression)
                for name, expression in plan.argument_expressions.items()
            },
        )

    def _residual_test(self, query: RegisteredQuery) -> Optional[RowTest]:
        """The index's exact test of the query's residual on one row."""
        residual = query.residual
        if residual is None:
            return None
        alias = query.plan.event_alias
        functions = self.functions

        def test(row: DeviceTuple) -> bool:
            return bool(residual(EvaluationContext(
                tuples={alias: row}, functions=functions)))
        return test

    def _check_candidate_predicate(self, plan: ContinuousPlan) -> None:
        """Candidate predicates may only read the device's static data.

        Sensory device attributes would need a live read per candidate
        per event; availability and status go through probing instead
        (Section 4), so we reject such predicates at registration.
        """
        if plan.candidate_predicate is None:
            return
        catalog = self.comm.catalog(plan.device_table)
        for ref in plan.candidate_predicate.column_refs():
            if ref.qualifier != plan.device_alias:
                continue
            if ref.name == LOCATION_PSEUDO_COLUMN:
                continue
            if catalog.attribute(ref.name).sensory:
                raise PlanError(
                    f"candidate predicate of {plan.query_name!r} reads "
                    f"sensory attribute {ref.name!r}; device status is "
                    f"obtained by probing, not by candidate predicates"
                )

    def _index_for(self, table: str) -> PredicateIndex:
        if table not in self._indexes:
            self._indexes[table] = PredicateIndex(table)
        return self._indexes[table]

    def index_stats(self) -> Dict[str, int]:
        """Summed per-table predicate-index counters."""
        totals: Dict[str, int] = {"tables": len(self._indexes)}
        for index in self._indexes.values():
            for key, value in index.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # The polling loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the polling loop as a simulation process."""
        if self._running:
            raise AortaError("continuous executor already started")
        self._running = True
        self.env.process(self._run())

    def _run(self) -> Generator[Any, Any, None]:
        while True:
            yield from self.poll_once()
            yield self.env.timeout(self.config.poll_interval)

    def poll_once(self) -> Generator[Any, Any, int]:
        """One detection pass over all event tables; returns emit count.

        The scan of each event table is shared by every query reading
        it — one network acquisition per poll regardless of how many
        queries watch the same sensors.
        """
        self.polls += 1
        emitted = 0
        self.obs.inc("continuous.polls")
        # Detached: dispatch batches emitted by this poll outlive it on
        # concurrent processes, so they must not nest under the poll.
        with self.obs.span("continuous.poll", detached=True):
            for table in list(self.catalog.by_table):
                if not any(q.enabled
                           for q in self.catalog.readers(table)):
                    continue
                scan = self._scan_for(table)
                rows = yield from scan.scan()
                # Re-read the index after the scan: queries may have been
                # registered or dropped while the acquisition was in flight.
                emitted += self._detect(table, rows)
        return emitted

    def _scan_for(self, table: str) -> ScanOperator:
        if table not in self._scans:
            self._scans[table] = self.comm.scan_operator(table)
        return self._scans[table]

    # ------------------------------------------------------------------
    # Event detection
    # ------------------------------------------------------------------
    def _detect(self, table: str, rows: List[DeviceTuple]) -> int:
        """Route each row through the table's predicate index.

        Matching is event-at-a-time, but emission replays query-major
        in registration order, so traces and request ids do not depend
        on which queries the index touched.
        """
        index = self._indexes.get(table)
        if index is None:
            return 0
        catalog = self.catalog

        def admit(name: str) -> bool:
            query = catalog.get(name)
            return query is not None and query.enabled

        matched: Dict[str, List[DeviceTuple]] = {}
        seen: Set[str] = set()
        for row in rows:
            seen.add(row.device_id)
            for _seq, name in index.match(row, admit=admit):
                matched.setdefault(name, []).append(row)

        # Queries to visit: everyone matched this poll, plus everyone
        # holding edge memory that a scanned non-match must clear.
        active = {query.name: query
                  for query in catalog.held_queries(table)}
        for name in matched:
            if name not in active:
                query = catalog.get(name)
                if query is not None:
                    active[name] = query
        ordered = sorted(active.values(), key=lambda query: query.seq)

        emitted = 0
        memo: Dict[_CandidateKey, List[str]] = {}
        for query in ordered:
            if not query.enabled:
                continue
            emitted += self._emit_matched(
                query, matched.get(query.name, []), seen, memo)
        return emitted

    def _emit_matched(self, query: RegisteredQuery,
                      matched_rows: List[DeviceTuple], seen: Set[str],
                      memo: Dict[_CandidateKey, List[str]]) -> int:
        """Replay one query's matches in row order; prune stale edges."""
        plan = query.plan
        emitted = 0
        context = EvaluationContext(tuples={}, functions=self.functions)
        matched_ids: Set[str] = set()
        for row in matched_rows:
            matched_ids.add(row.device_id)
            previously = self.catalog.edge_state(query.name, row.device_id)
            self.catalog.set_edge(query, row.device_id, True)
            if self.config.edge_triggered and previously:
                continue  # still the same event, no re-trigger
            query.events_detected += 1
            self.obs.inc("continuous.events_detected", query=query.name)
            self.dispatcher.tracer.record(
                self.env.now, "event_detected", query=query.name,
                sensor=row.device_id)
            context.tuples[plan.event_alias] = row
            if self._emit_request(query, row, context, memo=memo):
                emitted += 1
        self.catalog.prune_edges(query, seen, matched_ids)
        return emitted

    # ------------------------------------------------------------------
    # Request emission
    # ------------------------------------------------------------------
    def _emit_request(self, query: RegisteredQuery, event_row: DeviceTuple,
                      context: EvaluationContext,
                      memo: Dict[_CandidateKey, List[str]]) -> bool:
        """Emit one event's request; False when nothing was submitted.

        ``context`` has the query's event alias bound to ``event_row``.
        """
        plan = query.plan
        arguments = {name: argument(context)
                     for name, argument in query.arguments.items()}
        candidates = self._candidates(query, context,
                                      event_row.device_id, memo)
        if not candidates:
            query.uncovered_events += 1
            self.obs.inc("continuous.uncovered_events",
                         query=plan.query_name)
            return False
        operator = self.dispatcher.operator_for(plan.action)
        self.dispatcher.tracer.record(
            self.env.now, "request_emitted", query=plan.query_name,
            action=plan.action.name, candidates=len(candidates))
        deadline = (None if query.deadline_seconds is None
                    else self.env.now + query.deadline_seconds)
        fan_out = plan.action.select_all
        # Fan out: one single-candidate request per device, so the
        # action runs on every candidate (extension semantics), each
        # with its own copy of the arguments.
        candidate_sets = ([(device_id,) for device_id in candidates]
                          if fan_out else [tuple(candidates)])
        emitted_any = False
        for candidate_set in candidate_sets:
            request = ActionRequest(
                action_name=plan.action.name,
                arguments=dict(arguments) if fan_out else arguments,
                query_id=plan.query_name,
                created_at=self.env.now,
                candidates=candidate_set,
                priority=query.priority,
                deadline=deadline,
            )
            if self.dispatcher.submit(operator, request):
                emitted_any = True
                query.requests_emitted += 1
                self.obs.inc("continuous.requests_emitted",
                             query=plan.query_name)
            else:
                query.requests_rejected += 1
        return emitted_any

    def _candidates(self, query: RegisteredQuery,
                    event_context: EvaluationContext, event_device: str,
                    memo: Dict[_CandidateKey, List[str]]) -> List[str]:
        """Device IDs satisfying the candidate predicate for this event.

        Membership, not liveness, is checked here: devices "may join,
        move around, or leave the network dynamically in a way
        unpredictable to the system" (Section 4), so unavailability is
        discovered by the dispatcher's probe, not assumed here.

        ``memo`` caches the result per (device table, alias, predicate,
        event device) within one detection pass — queries sharing a
        candidate shape reuse one evaluation, the shared-operator
        merge's candidate half.
        """
        plan = query.plan
        key: _CandidateKey = (plan.device_table, plan.device_alias,
                              plan.candidate_predicate, event_device)
        cached = memo.get(key)
        if cached is not None:
            return list(cached)
        devices = self.comm.registry.of_type(plan.device_table)
        candidate = query.candidate
        if candidate is None:
            candidates = [device.device_id for device in devices]
        else:
            candidates = self._join(candidate, plan.device_alias,
                                    devices, event_context)
        memo[key] = list(candidates)
        return candidates

    def _join(self, candidate: Compiled, alias: str, devices: List[Device],
              event_context: EvaluationContext) -> List[str]:
        """The devices whose static row satisfies ``candidate``.

        One context serves the whole event: each device's row is
        rebound under ``alias`` next to the event's bindings.
        """
        context = EvaluationContext(tuples=dict(event_context.tuples),
                                    functions=self.functions)
        tuples = context.tuples
        now = self.env.now
        kept = []
        for device in devices:
            tuples[alias] = DeviceTuple(
                device_type=device.device_type,
                device_id=device.device_id,
                values=device.static_attributes(),
                acquired_at=now,
            )
            if candidate(context):
                kept.append(device.device_id)
        return kept
