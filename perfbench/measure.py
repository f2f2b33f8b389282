"""Pure helpers of the end-to-end benchmark: percentiles, matching, digests.

Nothing here imports the engine, so the helpers are unit-tested on
plain values (see ``test_helpers.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

INF = float("inf")

#: Percentiles considered for the latency tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with >= p% at or below.

    ``values`` may hold ``inf`` for requests that were never serviced;
    they sort last, so they only surface once more than ``100 - p``
    percent of the samples are missing.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie beyond the p-th percentile."""
    # Rounded so that 99.9 on 10 000 samples gives exactly 10.
    return round(count * (100.0 - p) / 100.0, 9)


def highest_tail_percentile(count: int) -> Optional[float]:
    """The highest tail percentile with enough samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(count, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def match_stimulus(starts: Sequence[float], at: float) -> Optional[int]:
    """Index of the latest stimulus start at or before ``at``.

    ``starts`` is one sensor's stimulus start times, ascending. A
    detection (or the request it emitted) at time ``at`` belongs to the
    newest stimulus that had begun by then; ``None`` means no stimulus
    had started, i.e. the detection has no physical cause.
    """
    index = bisect.bisect_right(starts, at) - 1
    return index if index >= 0 else None


def outcome_digest(outcomes: Iterable[Tuple[str, str, str, str]]) -> str:
    """Order-free digest of (query, sensor, device, state) outcomes."""
    lines = sorted("\t".join(outcome) for outcome in outcomes)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


#: Iterations of :func:`calibrate`: about 50 ms on a 2-core x86 host.
CALIBRATION_ROUNDS = 40_000


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Wall seconds of a fixed pure-Python workload: the host's speed now.

    Heap pushes and pops, dict updates and float math, like the sim
    kernel and the engine's bookkeeping, but none of the engine's code,
    so no change to the engine can move it.
    """
    started = time.perf_counter()
    heap: List[Tuple[float, int]] = []
    table: Dict[str, float] = {}
    for i in range(rounds):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i))
        key = "k%d" % (i % 256)
        table[key] = table.get(key, 0.0) + math.atan2(i % 13, 1 + i % 7)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


class SelfTimer:
    """Per-layer self time from nested spans on one stack.

    ``enter(layer)`` opens a span, ``exit()`` closes the newest one. A
    span's self time is its duration minus the time of the spans closed
    directly inside it; the full duration is charged to the parent as
    child time. Generator layers open one span per resumed step, so a
    suspended generator owns no time while other processes run.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.self_seconds: Dict[str, float] = {}
        self._stack: List[List] = []

    @property
    def current(self) -> Optional[str]:
        """The innermost open layer, or None outside every span."""
        return self._stack[-1][0] if self._stack else None

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, started, child = self._stack.pop()
        elapsed = self.clock() - started
        self.self_seconds[layer] = \
            self.self_seconds.get(layer, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def timed_steps(self, layer: str, generator):
        """Drive ``generator`` step by step, each step inside ``layer``.

        Forwards ``send``, ``throw`` and ``close`` so the wrapper is a
        drop-in for the generator, including its return value.
        """
        value, error = None, None
        while True:
            self.enter(layer)
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit()
            value, error = None, None
            try:
                value = yield target
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                error = exc
