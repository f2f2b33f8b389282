"""The traced run: per-layer counts and self time at public boundaries.

:func:`instrument` wraps the engine's public functions at each layer
boundary for the duration of a ``with`` block and restores them on
exit. Nothing under ``src/`` changes; the untraced runs never enter the
block. Hot per-call boundaries (``evaluate``, ``estimate``, ``covers``,
``bind``) keep an aggregate count and self time, not a span per call.

Layer -> boundary:

* ``sim``: ``Environment.run`` (what no other layer claims);
* ``shard``: ``ShardedEngine.run`` minus the per-shard ``run`` calls;
* ``network``: ``Connection.request``;
* ``comm.scan``: ``ScanOperator.scan``;
* ``comm.probe``: ``Prober.probe_all``;
* ``query.match``: ``PredicateIndex.match``, and ``evaluate`` on
  single-alias contexts (the scan-all path);
* ``continuous.join``: ``EvaluationContext.bind``, ``evaluate`` on the
  two-alias contexts it makes, ``PanTiltZoomCamera.covers`` and
  ``static_attributes`` when called from the executor;
* ``continuous``: ``ContinuousQueryExecutor.poll_once``;
* ``overload``: ``OverloadControlPlane.offer``, ``Dispatcher.shed_request``;
* ``dispatch``: ``Dispatcher.dispatch_batch``;
* ``scheduling``: ``Scheduler.schedule`` (and overrides);
* ``cost``: ``CostModel.estimate``;
* ``sync``: ``DeviceLockManager.acquire`` / ``release``;
* ``actions``: ``ActionDefinition.execute``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from measure import SelfTimer

import repro.core.continuous as continuous_module
from repro.actions.action import ActionDefinition
from repro.comm.probe import Prober
from repro.comm.scan import ScanOperator
from repro.core.continuous import ContinuousQueryExecutor
from repro.core.dispatcher import Dispatcher
from repro.cost.model import CostModel
from repro.devices.base import Device
from repro.devices.camera import PanTiltZoomCamera
from repro.network.transport import Connection
from repro.overload.plane import OverloadControlPlane
from repro.query.expressions import EvaluationContext
from repro.query.predicate_index import PredicateIndex
from repro.scheduling.base import Scheduler
from repro.shard.coordinator import ShardedEngine
from repro.sim import Environment
from repro.sync.locks import DeviceLockManager


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class LayerTrace:
    """Counts and self time collected while :func:`instrument` is active."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.timer = SelfTimer(clock)
        self.counts: Counter = Counter()
        #: Deadlines of the per-shard run calls inside the current
        #: ``shard`` span.
        self.round_deadlines: set = set()
        self.batch_sizes: List[int] = []

    def self_seconds(self, layer: str) -> float:
        return self.timer.self_seconds.get(layer, 0.0)

    # -- wrapper factories ---------------------------------------------
    def call(self, layer: str, function: Callable,
             count: Optional[Callable[[Any], None]] = None,
             outermost: bool = False) -> Callable:
        """A plain function timed as one span of ``layer``.

        With ``outermost``, a call made inside the same layer (a
        wrapper scheduler delegating to its inner one) is neither timed
        again nor counted.
        """
        timer = self.timer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if outermost and timer.current == layer:
                return function(*args, **kwargs)
            timer.enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                timer.exit()
            if count is not None:
                count(result)
            return result
        return wrapper

    def steps(self, layer: str, function: Callable,
              count: Optional[Callable[[Any], None]] = None) -> Callable:
        """A generator function timed one resumed step at a time."""
        timer = self.timer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = yield from timer.timed_steps(
                layer, function(*args, **kwargs))
            if count is not None:
                count(result)
            return result
        return wrapper

    def join_part(self, function: Callable) -> Callable:
        """A join boundary: a span only when called by the executor.

        ``covers`` and ``static_attributes`` also serve scans and
        actions; only calls made directly from the continuous layer are
        candidate-join work. Calls already inside the join are part of
        its open span.
        """
        timer = self.timer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if timer.current != "continuous":
                return function(*args, **kwargs)
            timer.enter("continuous.join")
            try:
                return function(*args, **kwargs)
            finally:
                timer.exit()
        return wrapper

    def evaluate(self, function: Callable) -> Callable:
        """``evaluate`` split by context: match (one alias) or join."""
        timer, counts = self.timer, self.counts

        @functools.wraps(function)
        def wrapper(expression, context):
            joined = len(context.tuples) > 1
            layer = "continuous.join" if joined else "query.match"
            if timer.current == layer:
                return function(expression, context)
            timer.enter(layer)
            try:
                result = function(expression, context)
            finally:
                timer.exit()
            if joined:
                counts["join.examined"] += 1
                counts["join.kept"] += bool(result)
            elif isinstance(result, bool):
                counts["match.tests"] += 1
                counts["match.hits"] += result
            return result
        return wrapper

    # -- counters --------------------------------------------------------
    def _tally(self, key: str) -> Callable[..., None]:
        counts = self.counts

        def count(result):
            counts[key] += 1
        return count

    def _count_scan(self, rows) -> None:
        self.counts["scan.calls"] += 1
        self.counts["scan.rows"] += len(rows)

    def _count_probes(self, results) -> None:
        self.counts["probe.sent"] += len(results)
        self.counts["probe.failed"] += sum(
            1 for result in results if not result.available)

    def _count_index_match(self, matches) -> None:
        self.counts["match.tests"] += 1
        self.counts["match.hits"] += len(matches)

    def _count_offer(self, accepted) -> None:
        self.counts["overload.offered"] += 1
        self.counts["overload.rejected"] += not accepted

    def _count_batch(self, report) -> None:
        self.counts["dispatch.batches"] += 1
        self.batch_sizes.append(report.batch_size)

    def sim_run(self, function: Callable) -> Callable:
        """``Environment.run``; inside a shard span, one lockstep round."""
        inner = self.call("sim", function)
        timer = self.timer

        @functools.wraps(function)
        def wrapper(runtime, until=None, **kwargs):
            if timer.current == "shard":
                self.round_deadlines.add(until)
            return inner(runtime, until, **kwargs)
        return wrapper

    def shard_run(self, function: Callable) -> Callable:
        """``ShardedEngine.run``; counts its distinct round deadlines."""
        inner = self.call("shard", function)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.round_deadlines = set()
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["shard.rounds"] += len(self.round_deadlines)
        return wrapper

    # -- the patch table -------------------------------------------------
    def patches(self) -> List[Tuple[Any, str, Callable]]:
        """(owner, attribute, wrapper factory) for every boundary."""
        table: List[Tuple[Any, str, Callable]] = [
            (Environment, "run", self.sim_run),
            (ShardedEngine, "run", self.shard_run),
            (Connection, "request",
             lambda f: self.steps("network", f, self._tally("network"))),
            (ScanOperator, "scan",
             lambda f: self.steps("comm.scan", f, self._count_scan)),
            (Prober, "probe_all",
             lambda f: self.steps("comm.probe", f, self._count_probes)),
            (PredicateIndex, "match",
             lambda f: self.call("query.match", f,
                                 self._count_index_match)),
            (continuous_module, "evaluate", self.evaluate),
            (EvaluationContext, "bind", self.join_part),
            (PanTiltZoomCamera, "covers", self.join_part),
            (ContinuousQueryExecutor, "poll_once",
             lambda f: self.steps("continuous", f, self._tally("polls"))),
            (OverloadControlPlane, "offer",
             lambda f: self.call("overload", f, self._count_offer)),
            (Dispatcher, "shed_request", lambda f: self.call("overload", f)),
            (Dispatcher, "dispatch_batch",
             lambda f: self.steps("dispatch", f, self._count_batch)),
            (CostModel, "estimate",
             lambda f: self.call("cost", f, self._tally("cost"))),
            (DeviceLockManager, "acquire", lambda f: self.steps("sync", f)),
            (DeviceLockManager, "release", lambda f: self.call("sync", f)),
            (ActionDefinition, "execute",
             lambda f: self.steps("actions", f, self._tally("actions"))),
        ]
        for cls in _subclasses(Device):
            if "static_attributes" in vars(cls):
                table.append((cls, "static_attributes", self.join_part))
        for cls in _subclasses(Scheduler):
            if "schedule" in vars(cls):
                table.append((cls, "schedule", lambda f: self.call(
                    "scheduling", f, self._tally("scheduling"),
                    outermost=True)))
        return table


@contextlib.contextmanager
def instrument(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Wrap every layer boundary for the block; restore on exit."""
    saved: List[Tuple[Any, str, Any, bool]] = []
    try:
        for owner, name, factory in trace.patches():
            own = name in vars(owner)
            original = getattr(owner, name)
            saved.append((owner, name, vars(owner).get(name), own))
            setattr(owner, name, factory(original))
        yield trace
    finally:
        for owner, name, original, own in reversed(saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def layer_metrics(trace: LayerTrace, engines: List[Any]
                  ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced run, name -> (value, unit).

    ``engines`` are the run's per-shard :class:`AortaEngine` objects;
    lock, retry, shed and dispatch-report figures come from their
    public counters. (The overload plane holds the dispatcher's
    ``shed_request`` as a bound method taken at construction, so
    pressure sheds bypass the wrapper.) ``trace.overhead_ratio`` needs
    the untraced runs, so the caller adds it.
    """
    counts = trace.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits = misses = 0
    makespans: List[float] = []
    for engine in engines:
        for report in engine.dispatcher.reports:
            makespans.append(report.makespan_seconds)
            if report.cache_stats:
                hits += report.cache_stats["hits"]
                misses += report.cache_stats["misses"]
    sizes = trace.batch_sizes
    seconds = trace.self_seconds
    metrics: Dict[str, Tuple[float, str]] = {
        "sim.events": (sum(e.env.events_processed for e in engines),
                       "count"),
        "sim.self_s": (seconds("sim"), "s"),
        "network.requests": (counts["network"], "count"),
        "network.self_s": (seconds("network"), "s"),
        "comm.scan.calls": (counts["scan.calls"], "count"),
        "comm.scan.rows": (counts["scan.rows"], "count"),
        "comm.scan.self_s": (seconds("comm.scan"), "s"),
        "comm.probe.sent": (counts["probe.sent"], "count"),
        "comm.probe.failed": (counts["probe.failed"], "count"),
        "comm.probe.self_s": (seconds("comm.probe"), "s"),
        "query.match.tests": (counts["match.tests"], "count"),
        "query.match.hits": (counts["match.hits"], "count"),
        "query.match.hit_ratio": (
            ratio(counts["match.hits"], counts["match.tests"]), "ratio"),
        "query.match.self_s": (seconds("query.match"), "s"),
        "continuous.join.examined": (counts["join.examined"], "count"),
        "continuous.join.kept": (counts["join.kept"], "count"),
        "continuous.join.keep_ratio": (
            ratio(counts["join.kept"], counts["join.examined"]), "ratio"),
        "continuous.join.self_s": (seconds("continuous.join"), "s"),
        "continuous.polls": (counts["polls"], "count"),
        "continuous.self_s": (seconds("continuous"), "s"),
        "overload.offered": (counts["overload.offered"], "count"),
        "overload.rejected": (counts["overload.rejected"], "count"),
        "overload.shed": (sum(e.dispatcher.shed_total for e in engines),
                          "count"),
        "overload.self_s": (seconds("overload"), "s"),
        "dispatch.batches": (counts["dispatch.batches"], "count"),
        "dispatch.batch_size_mean": (
            ratio(sum(sizes), len(sizes)), "count"),
        "dispatch.self_s": (seconds("dispatch"), "s"),
        "scheduling.calls": (counts["scheduling"], "count"),
        "scheduling.self_s": (seconds("scheduling"), "s"),
        "scheduling.cache_hit_ratio": (ratio(hits, hits + misses),
                                       "ratio"),
        "scheduling.makespan_vs_mean": (
            ratio(sum(makespans), len(makespans)), "vs"),
        "cost.estimates": (counts["cost"], "count"),
        "cost.self_s": (seconds("cost"), "s"),
        "sync.acquisitions": (sum(e.locks.acquisitions for e in engines),
                              "count"),
        "sync.contended": (
            sum(e.locks.contended_acquisitions for e in engines), "count"),
        "sync.self_s": (seconds("sync"), "s"),
        "actions.attempts": (counts["actions"], "count"),
        "actions.retries": (
            sum(e.dispatcher.retries_total for e in engines), "count"),
        "actions.failovers": (
            sum(e.dispatcher.failovers_total for e in engines), "count"),
        "actions.self_s": (seconds("actions"), "s"),
        "shard.rounds": (counts["shard.rounds"], "count"),
        "shard.self_s": (seconds("shard"), "s"),
    }
    return metrics
