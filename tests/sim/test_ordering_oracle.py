"""Ordering oracle for the kernel's one event loop.

Generated process programs mix tied times, both priorities, zero-delay
timeouts, yields of already-processed events, interrupts and defused
failures. A queue wrapper logs every push with its own insertion
counter and every firing; replaying the log against a reference
priority queue keyed by (time, priority, insertion order) must
reproduce the kernel's firing order exactly, and ``events_processed``
must equal the number of firings — also when ``max_events`` or
``until`` stops the run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT, EventQueue

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
STEPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("urgent"), DELAYS),
    st.tuples(st.just("succeed"), DELAYS),
    st.tuples(st.just("yield_done"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("fail_defused"), DELAYS),
    st.tuples(st.just("child_fails"), DELAYS),
    st.tuples(st.just("spawn"), st.integers(0, 7)),
)
PROGRAMS = st.lists(st.lists(STEPS, max_size=6), min_size=1, max_size=5)


class LoggingQueue(EventQueue):
    """Logs pushes and firings in the order they happen."""

    def __init__(self, env):
        super().__init__()
        self.env = env
        self.log = []
        self.fired = []  # processed events, for "yield_done"
        self._inserted = 0

    def push(self, time, priority, event):
        key = (time, priority, self._inserted)
        self._inserted += 1
        self.log.append(("push", key))

        def fired(event, key=key):
            self.log.append(("fire", key, self.env.now))
            self.fired.append(event)

        event.callbacks.insert(0, fired)
        super().push(time, priority, event)


def body(env, programs, index, processes, depth):
    queue = env._queue
    for op, arg in programs[index]:
        try:
            if op == "timeout":
                yield env.timeout(arg)
            elif op == "urgent":
                # Shaped like the kernel's own process-resume events.
                event = env.event()
                event._ok, event._value = True, None
                env.schedule(event, delay=arg, priority=PRIORITY_URGENT)
                yield event
            elif op == "succeed":
                yield env.event().succeed(arg, delay=arg)
            elif op == "yield_done":
                if queue.fired:
                    yield queue.fired[arg % len(queue.fired)]
                else:
                    yield env.timeout(0.0)
            elif op == "interrupt":
                target = processes[arg % len(processes)]
                if target.is_alive and target._waiting_on is not None:
                    target.interrupt("redirect")
            elif op == "fail_defused":
                env.event().defuse().fail(ValueError("quiet"), delay=arg)
            elif op == "child_fails":
                env.process(failing(env, arg)).defuse()
            elif op == "spawn" and depth < 2:
                processes.append(env.process(body(
                    env, programs, arg % len(programs), processes,
                    depth + 1)))
        except (Interrupt, ValueError):
            pass


def failing(env, delay):
    yield env.timeout(delay)
    raise ValueError("child died")


def build(programs):
    env = Environment()
    env._queue = LoggingQueue(env)
    processes = []
    for index in range(len(programs)):
        processes.append(env.process(body(env, programs, index, processes,
                                          depth=0)))
    return env


def replay(log):
    """Check the log against a reference queue; return the fired keys."""
    pending = set()
    fired = []
    for entry in log:
        if entry[0] == "push":
            pending.add(entry[1])
            continue
        _, key, now = entry
        assert key == min(pending), "fired out of (time, priority, seq) order"
        assert now == key[0], "clock not at the event's time when it fired"
        pending.remove(key)
        fired.append(key)
    return fired, pending


@settings(max_examples=150, deadline=None)
@given(programs=PROGRAMS)
def test_run_fires_in_reference_order(programs):
    env = build(programs)
    end = env.run()
    fired, pending = replay(env._queue.log)
    assert not pending and env.pending_events == 0
    assert env.events_processed == len(fired)
    assert end == env.now == (fired[-1][0] if fired else 0.0)


@settings(max_examples=100, deadline=None)
@given(programs=PROGRAMS)
def test_step_shares_the_run_loop(programs):
    by_run = build(programs)
    by_run.run()
    by_step = build(programs)
    steps = 0
    while by_step.pending_events:
        by_step.step()
        steps += 1
        assert by_step.events_processed == steps
    assert by_step._queue.log == by_run._queue.log
    with pytest.raises(SimulationError, match="empty"):
        by_step.step()


@settings(max_examples=150, deadline=None)
@given(programs=PROGRAMS, budget=st.integers(0, 25))
def test_budget_stops_after_exactly_that_many_events(programs, budget):
    env = build(programs)
    try:
        env.run(max_events=budget)
        exhausted = False
    except SimulationError as error:
        assert "event budget exhausted" in str(error)
        exhausted = True
    fired, pending = replay(env._queue.log)
    assert env.events_processed == len(fired)
    assert len(pending) == env.pending_events
    if exhausted:
        assert len(fired) == budget and env.pending_events > 0
    else:
        assert len(fired) <= budget and env.pending_events == 0
    # The run resumes where the budget stopped it, in the same order.
    env.run()
    fired, pending = replay(env._queue.log)
    assert not pending and env.events_processed == len(fired)


@settings(max_examples=100, deadline=None)
@given(programs=PROGRAMS, until=st.sampled_from([0.0, 0.5, 1.0, 1.7, 3.0]))
def test_until_fires_everything_due_and_nothing_later(programs, until):
    env = build(programs)
    assert env.run(until=until) == until == env.now
    fired, pending = replay(env._queue.log)
    assert all(key[0] <= until for key in fired)
    assert all(key[0] > until for key in pending)
    assert env.events_processed == len(fired)


def test_budget_exhausted_message():
    env = Environment()

    def runaway(env):
        while True:
            yield env.timeout(1.0)

    env.process(runaway(env))
    with pytest.raises(SimulationError) as excinfo:
        env.run(max_events=3)
    assert str(excinfo.value) == (
        "event budget exhausted: processed 3 events by t=2.000000 with 1 "
        "still pending (next: t=3.000000 p=1 Timeout); a process is likely "
        "scheduling work faster than it completes")
    assert env.events_processed == 3


def test_an_entry_earlier_than_now_is_refused():
    env = Environment()
    env.run(until=5.0)
    env._queue.push(2.0, PRIORITY_NORMAL, env.event())
    with pytest.raises(SimulationError,
                       match=r"cannot move clock backwards from 5\.0 to 2\.0"):
        env.run()
    assert env.now == 5.0
    assert env.events_processed == 0


def test_scheduled_item_view_of_the_heap():
    env = Environment()
    queue = EventQueue()
    late, early = env.event(), env.event()
    queue.push(2.0, PRIORITY_NORMAL, late)
    queue.push(1.0, PRIORITY_URGENT, early)
    head = queue.peek_items(5)
    assert [(item.time, item.priority, item.seq) for item in head] == [
        (1.0, PRIORITY_URGENT, 1), (2.0, PRIORITY_NORMAL, 0)]
    assert head[0].event is early
    item = queue.pop()
    assert item.event is early and item.time == 1.0
    assert len(queue) == 1
