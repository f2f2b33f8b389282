"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from measure import (  # noqa: E402
    INF,
    SelfTimer,
    highest_tail_percentile,
    match_stimulus,
    outcome_digest,
    percentile,
    samples_beyond,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 20) == 1.0
    assert percentile(values, 21) == 2.0
    assert percentile(values, 100) == 5.0


def test_unserviced_requests_count_as_infinite_latency():
    serviced = [float(i) for i in range(1, 10)]
    assert percentile(serviced + [INF], 90) == 9.0
    assert percentile(serviced + [INF], 91) == INF
    # Two of ten never serviced: the 90th percentile is unbounded.
    assert math.isinf(percentile(serviced[:8] + [INF, INF], 90))
    assert percentile(serviced[:8] + [INF, INF], 50) == 5.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(128, 90) == pytest.approx(12.8)
    # The smallest workload (band_storm) has well over 100 requests.
    assert highest_tail_percentile(128) == 90.0
    assert highest_tail_percentile(100) == 90.0
    assert highest_tail_percentile(99) == 75.0
    assert highest_tail_percentile(1000) == 99.0
    assert highest_tail_percentile(10_000) == 99.9
    assert highest_tail_percentile(30) is None


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    timer = SelfTimer(clock)
    timer.enter("outer")
    clock.now = 2.0
    timer.enter("inner")
    clock.now = 5.0
    timer.enter("leaf")
    clock.now = 6.0
    timer.exit()
    clock.now = 7.0
    timer.exit()
    clock.now = 10.0
    timer.exit()
    assert timer.self_seconds == {"outer": 5.0, "inner": 4.0, "leaf": 1.0}
    assert timer.current is None


def test_same_layer_spans_accumulate():
    clock = FakeClock()
    timer = SelfTimer(clock)
    for start in (0.0, 10.0):
        clock.now = start
        timer.enter("cost")
        clock.now = start + 1.5
        timer.exit()
    assert timer.self_seconds["cost"] == 3.0


def test_generator_steps_are_timed_only_while_running():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def body():
        clock.now += 1.0          # first step: 1 s
        received = yield "a"
        clock.now += 2.0          # second step: 2 s
        yield received
        clock.now += 0.5          # last step: 0.5 s
        return "done"

    steps = timer.timed_steps("network", body())
    timer.enter("sim")
    assert next(steps) == "a"
    clock.now += 100.0            # suspended: charged to nobody here
    assert steps.send("x") == "x"
    with pytest.raises(StopIteration) as stop:
        next(steps)
    assert stop.value.value == "done"
    clock.now += 1.0
    timer.exit()
    assert timer.self_seconds["network"] == 3.5
    # sim's span ran 104.5 s, 3.5 s of it inside network steps.
    assert timer.self_seconds["sim"] == 101.0


def test_generator_steps_nest_inside_each_other():
    clock = FakeClock()
    timer = SelfTimer(clock)

    def inner():
        clock.now += 1.0
        yield "wait"
        clock.now += 1.0
        return 7

    def outer():
        clock.now += 3.0
        value = yield from timer.timed_steps("inner", inner())
        clock.now += 2.0
        return value

    steps = timer.timed_steps("outer", outer())
    assert next(steps) == "wait"
    with pytest.raises(StopIteration) as stop:
        steps.send(None)
    assert stop.value.value == 7
    assert timer.self_seconds == {"inner": 2.0, "outer": 5.0}


def test_generator_wrapper_forwards_throw_and_close():
    timer = SelfTimer(FakeClock())
    caught = []
    closed = []

    def body():
        try:
            yield 1
        except KeyError as exc:
            caught.append(exc)
        try:
            yield 2
        finally:
            closed.append(True)

    steps = timer.timed_steps("x", body())
    assert next(steps) == 1
    assert steps.throw(KeyError("k")) == 2
    assert isinstance(caught[0], KeyError)
    steps.close()
    assert closed == [True]
    assert timer.current is None

    unhandled = timer.timed_steps("x", iter_once())
    next(unhandled)
    with pytest.raises(ValueError):
        unhandled.throw(ValueError("boom"))
    assert timer.current is None


def iter_once():
    yield 1


# ----------------------------------------------------------------------
# Stimulus-to-request matching and outcome digests
# ----------------------------------------------------------------------
def test_match_stimulus_picks_latest_start_at_or_before():
    starts = [1.0, 5.0, 9.0]
    assert match_stimulus(starts, 0.5) is None
    assert match_stimulus(starts, 1.0) == 0
    assert match_stimulus(starts, 4.99) == 0
    assert match_stimulus(starts, 5.0) == 1
    assert match_stimulus(starts, 100.0) == 2
    assert match_stimulus([], 3.0) is None


def test_listener_pairs_each_emission_with_its_detection():
    from run import TraceListener

    listener = TraceListener()

    def record(at, kind, **fields):
        listener(SimpleNamespace(at=at, kind=kind, fields=fields))

    record(1.0, "event_detected", query="q1", sensor="m1")
    record(1.0, "request_emitted", query="q1")
    record(1.0, "event_detected", query="q2", sensor="m1")
    record(1.0, "event_detected", query="q1", sensor="m2")
    record(1.0, "request_emitted", query="q1")
    record(1.0, "request_emitted", query="q2")
    record(1.0, "request_rejected", request="req9", query="q2")
    assert listener.emitted == [("q1", "m1", 1.0), ("q1", "m2", 1.0),
                                ("q2", "m1", 1.0)]
    assert listener.detections == [("m1", 1.0), ("m1", 1.0), ("m2", 1.0)]
    assert listener.rejected == ["req9"]


def test_outcome_digest_ignores_order():
    a = [("q", "m1", "c1", "serviced"), ("q", "m2", "", "shed")]
    assert outcome_digest(a) == outcome_digest(list(reversed(a)))
    assert outcome_digest(a) != outcome_digest(a[:1])


# ----------------------------------------------------------------------
# The traced run on real (small) inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["band_storm", "band_storm_8shard",
                                      "aq_fleet", "sensor_field"])
def test_small_run_is_correct_and_tracing_changes_nothing(workload):
    from layers import LayerTrace, layer_metrics
    from run import run_once
    from workloads import GENERATORS

    inputs = GENERATORS[workload](7, 0.25)
    plain, _ = run_once(inputs)
    trace = LayerTrace()
    traced, engines = run_once(inputs, trace)
    assert plain.errors == [] and traced.errors == []
    assert plain.outcomes
    assert traced.digest == plain.digest
    layers = layer_metrics(trace, engines)
    assert layers["sim.events"][0] > 0
    assert layers["actions.attempts"][0] >= sum(
        1 for o in plain.outcomes if o.state == "serviced")
    if workload == "band_storm_8shard":
        assert layers["shard.rounds"][0] == math.ceil(inputs.horizon)


def test_instrument_restores_every_boundary():
    from layers import LayerTrace, instrument

    trace = LayerTrace()
    before = [(owner, name, vars(owner).get(name))
              for owner, name, _ in trace.patches()]
    with instrument(trace):
        pass
    after = [(owner, name, vars(owner).get(name))
             for owner, name, _ in trace.patches()]
    assert before == after
