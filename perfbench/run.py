"""End-to-end benchmark of the Aorta engine: four workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload band_storm --seed 1 --seconds 30 \
        --trace 0

The seed generates three episodes of the workload, and a run cycles
through them for about ``--seconds`` of wall time. ``--trace 0``
reports the end-to-end metrics: wall-clock medians over the
repetitions, virtual-time metrics pooled over the episodes. ``--trace
1`` follows each untraced repetition with a traced one, which wraps
every layer boundary, and reports the per-layer metrics of whole
cycles. Every repetition is checked for correctness; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--smoke`` shrinks the inputs for a quick
try; its results go to ``perfbench/results/smoke/``, never over a full
result in ``perfbench/results/full/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The latency tail reported: the highest percentile with at least ten
#: samples beyond it on the smallest workload (band_storm, 192
#: requests), per ``measure.highest_tail_percentile``.
TAIL = 90.0

#: Each run generates this many episodes from its seed (seeds
#: ``seed * EPISODES + i``) and cycles through them. Short episodes give
#: a run many timed repetitions, which steadies the wall-clock medians
#: on a noisy host; the virtual-time metrics pool all episodes, which
#: gives them enough samples.
EPISODES = 3

#: Fewest set-ups timed per run (extra ones are built and discarded).
MIN_SETUPS = 7

#: Wall-clock metrics are scaled to a host on which
#: ``measure.calibrate()`` takes this long: a repetition's rate is
#: multiplied, and its set-up time divided, by (calibration seconds /
#: this). The host this benchmark was written on changes speed by up to
#: 1.9x within minutes, and engine and calibration slow down together,
#: so the scaled figures stay put where the raw ones do not.
REFERENCE_CALIBRATION_S = 0.05

SMOKE_SCALE = 0.25


@dataclass
class Outcome:
    query: str
    sensor: str
    device: str
    state: str
    latency: float


@dataclass
class RunRecord:
    """One repetition: timings, outcomes and correctness findings."""

    setup_s: float
    run_s: float
    outcomes: List[Outcome]
    detected: int
    stimuli: int
    errors: List[str]
    digest: str
    #: Mean wall seconds of the calibrations just before and after this
    #: repetition (untraced repetitions only).
    calibration_s: float = 0.0

    @property
    def terminal(self) -> int:
        """Requests that reached a terminal state."""
        return len(self.outcomes)


class TraceListener:
    """Follows one engine's tracer: detections, emissions, rejections.

    A request carries its query but not the sensor that triggered it;
    the executor records ``event_detected`` (query, sensor) right before
    ``request_emitted`` (query), so each emission is paired with its
    query's latest detection. Rejected requests never reach the
    completion log, so their ids are taken from ``request_rejected``.
    """

    def __init__(self) -> None:
        self.detections: List[Tuple[str, float]] = []
        self.emitted: List[Tuple[str, str, float]] = []
        self.rejected: List[str] = []
        self._last_sensor: Dict[str, str] = {}

    def __call__(self, record: Any) -> None:
        kind, fields = record.kind, record.fields
        if kind == "event_detected":
            self._last_sensor[fields["query"]] = fields["sensor"]
            self.detections.append((fields["sensor"], record.at))
        elif kind == "request_emitted":
            query = fields["query"]
            self.emitted.append((query, self._last_sensor[query], record.at))
        elif kind == "request_rejected":
            self.rejected.append(fields["request"])


def _request_number(request_id: str) -> int:
    return int(request_id[3:])


def collect(inputs, engines, listeners) -> Tuple[List[Outcome], int,
                                                 List[str]]:
    """Outcomes of every emitted request, plus correctness findings."""
    from measure import INF, match_stimulus

    errors: List[str] = []
    start_times: Dict[str, List[float]] = {}
    for sensor, stimulus in inputs.stimuli:
        start_times.setdefault(sensor, []).append(stimulus.start)
    for starts in start_times.values():
        starts.sort()
    locations = inputs.sensor_locations()

    detected = set()
    outcomes: List[Outcome] = []
    for engine, listener in zip(engines, listeners):
        for sensor, at in listener.detections:
            index = match_stimulus(start_times.get(sensor, []), at)
            if index is None:
                errors.append(f"detection on {sensor} at {at:.3f} "
                              f"precedes every stimulus")
                continue
            detected.add((sensor, index))
        if engine.dispatcher.pending_requests:
            errors.append(f"{engine.dispatcher.pending_requests} requests "
                          f"still pending after the drain")
        completed = {request.request_id: request
                     for request in engine.completed_requests}
        if len(completed) != len(engine.completed_requests):
            errors.append("a request completed more than once")
        ids = sorted(list(completed) + listener.rejected,
                     key=_request_number)
        if len(ids) != len(listener.emitted):
            errors.append(f"{len(listener.emitted)} requests emitted but "
                          f"{len(ids)} reached a terminal state")
            continue
        for request_id, (query, sensor, emitted_at) in zip(
                ids, listener.emitted):
            request = completed.get(request_id)
            if request is None:  # rejected at admission
                outcomes.append(Outcome(query, sensor, "", "rejected", INF))
                continue
            state = request.state.value
            if request.query_id != query or \
                    abs(request.created_at - emitted_at) > 1e-9:
                errors.append(f"{request_id} does not match its emission")
            if state not in ("serviced", "failed", "shed"):
                errors.append(f"{request_id} ended in state {state}")
            latency = INF
            if state == "serviced":
                device = engine.comm.registry.get(request.assigned_device)
                if request.assigned_device not in request.candidates or \
                        not device.covers(locations[sensor]):
                    errors.append(f"{request_id} serviced on "
                                  f"{request.assigned_device}, not a "
                                  f"candidate")
                index = match_stimulus(start_times[sensor],
                                       request.created_at)
                latency = request.completed_at - start_times[sensor][index]
            outcomes.append(Outcome(query, sensor,
                                    request.assigned_device or "", state,
                                    latency))
    return outcomes, len(detected), errors


def run_once(inputs, trace=None) -> Tuple[RunRecord, List[Any]]:
    """Build, run and check one repetition; returns it and its engines.

    With a :class:`layers.LayerTrace`, the run is traced into it.
    """
    from layers import instrument
    from measure import outcome_digest
    from workloads import build

    gc.collect()
    started = time.perf_counter()
    system = build(inputs)
    setup_s = time.perf_counter() - started
    listeners = []
    for engine in system.engines:
        listener = TraceListener()
        engine.tracer.listener = listener
        listeners.append(listener)
    with (instrument(trace) if trace is not None
          else contextlib.nullcontext()):
        started = time.perf_counter()
        system.runner.run(until=inputs.horizon)
        run_s = time.perf_counter() - started
    outcomes, detected, errors = collect(inputs, system.engines, listeners)
    digest = outcome_digest((o.query, o.sensor, o.device, o.state)
                            for o in outcomes)
    record = RunRecord(setup_s=setup_s, run_s=run_s, outcomes=outcomes,
                       detected=detected, stimuli=len(inputs.stimuli),
                       errors=errors, digest=digest)
    return record, system.engines


def setup_only(inputs) -> float:
    """Wall seconds of one more set-up, for the set-up median."""
    from workloads import build

    gc.collect()
    started = time.perf_counter()
    build(inputs)
    return time.perf_counter() - started


@dataclass
class Measurement:
    """Every repetition of one run, grouped by episode."""

    #: Untraced repetitions per episode, in run order.
    untraced: List[List[RunRecord]]
    #: Traced repetitions per episode (``--trace 1`` only).
    traced: List[List[RunRecord]]
    #: (set-up seconds, calibration seconds) of every set-up.
    setups: List[Tuple[float, float]]
    #: Per-layer metrics of each traced cycle (one run of every episode).
    layer_cycles: List[Dict[str, Tuple[float, str]]]


def measure(episodes: List[Any], seconds: float, traced: bool
            ) -> Measurement:
    """Repeat cycles over the episodes for about ``seconds`` of wall time.

    A cycle runs every episode once untraced; with ``traced``, each
    untraced run is followed by a traced run of the same episode, so
    the tracing overhead compares runs taken over the same stretch of
    time, and the cycle's traced runs add up to one per-layer reading
    of the whole workload. :func:`measure.calibrate` runs between
    repetitions, and each untraced repetition and set-up keeps the mean
    of the calibrations on either side of it. Set-up is repeated until
    there are at least :data:`MIN_SETUPS` samples of it.
    """
    from layers import LayerTrace, layer_metrics
    from measure import calibrate

    found = Measurement(untraced=[[] for _ in episodes],
                        traced=[[] for _ in episodes], setups=[],
                        layer_cycles=[])
    before = calibrate()

    def calibrated(record: RunRecord) -> RunRecord:
        nonlocal before
        after = calibrate()
        record.calibration_s = (before + after) / 2
        before = after
        found.setups.append((record.setup_s, record.calibration_s))
        return record

    began = time.perf_counter()
    cycles = 0
    while True:
        elapsed = time.perf_counter() - began
        if cycles and elapsed * (cycles + 1) / cycles > seconds:
            break
        trace = LayerTrace() if traced else None
        engines: List[Any] = []
        plain_s = traced_s = 0.0
        for index, inputs in enumerate(episodes):
            record = calibrated(run_once(inputs)[0])
            found.untraced[index].append(record)
            plain_s += record.run_s
            if traced:
                record, run_engines = run_once(inputs, trace)
                found.traced[index].append(record)
                engines.extend(run_engines)
                traced_s += record.run_s
        if traced:
            layers = layer_metrics(trace, engines)
            layers["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
            found.layer_cycles.append(layers)
        cycles += 1
    while len(found.setups) < MIN_SETUPS:
        setup_s = setup_only(episodes[0])
        after = calibrate()
        found.setups.append((setup_s, (before + after) / 2))
        before = after
    return found


def end_to_end(found: Measurement, horizon: float
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced measurement.

    Virtual-time metrics pool the first run of every episode (later
    runs repeat them exactly). Wall-clock metrics are medians over all
    runs, each scaled to the reference host speed by its calibration.
    """
    from measure import percentile

    firsts = [runs[0] for runs in found.untraced]
    outcomes = [o for record in firsts for o in record.outcomes]
    latencies = [o.latency for o in outcomes]
    serviced = sum(1 for o in outcomes if o.state == "serviced")

    def tail(p: float) -> float:
        # An unserviced request is +inf; a percentile that lands on one
        # reports the horizon, the longest latency a run can observe.
        value = percentile(latencies, p)
        return horizon if math.isinf(value) else value

    runs = [record for runs in found.untraced for record in runs]
    return {
        "requests_per_s": (statistics.median(
            r.terminal / r.run_s * r.calibration_s / REFERENCE_CALIBRATION_S
            for r in runs), "1/s"),
        "setup_s": (statistics.median(
            setup_s * REFERENCE_CALIBRATION_S / calibration_s
            for setup_s, calibration_s in found.setups), "s"),
        "latency_p50_vs": (tail(50.0), "vs"),
        "latency_p90_vs": (tail(TAIL), "vs"),
        "serviced_ratio": (serviced / len(outcomes), "ratio"),
        "detect_ratio": (sum(r.detected for r in firsts)
                         / sum(r.stimuli for r in firsts), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "commit": git_commit()}


def write_result(args, payload: Dict[str, Any]) -> str:
    """Persist the full result; smoke and full runs never share a path."""
    kind = "smoke" if args.smoke else "full"
    directory = os.path.join(HERE, "results", kind)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Aorta engine.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall seconds of repetitions to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size inputs; results kept apart")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: engine sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from measure import MIN_SAMPLES_BEYOND, highest_tail_percentile
    from workloads import GENERATORS

    if args.workload not in GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {sorted(GENERATORS)}")
    scale = SMOKE_SCALE if args.smoke else 1.0
    episodes = [GENERATORS[args.workload](args.seed * EPISODES + index,
                                          scale)
                for index in range(EPISODES)]

    found = measure(episodes, args.seconds, bool(args.trace))
    errors = []
    for index, runs in enumerate(found.untraced):
        runs = runs + found.traced[index]
        errors.extend(error for record in runs for error in record.errors)
        digests = sorted({record.digest for record in runs})
        if len(digests) > 1:
            errors.append(f"outcome digest of episode {index} differs "
                          f"across repetitions: {digests}")
    firsts = [runs[0] for runs in found.untraced]
    samples = sum(record.terminal for record in firsts)
    if not args.smoke and (highest_tail_percentile(samples) or 0) < TAIL:
        errors.append(f"{samples} latency samples leave fewer than "
                      f"{MIN_SAMPLES_BEYOND} beyond p{TAIL:g}")
    if args.trace:
        metrics = {
            name: (statistics.median(
                cycle[name][0] for cycle in found.layer_cycles), unit)
            for name, (_, unit) in found.layer_cycles[0].items()}
    else:
        metrics = end_to_end(found, episodes[0].horizon)

    everything = [record for runs in found.untraced + found.traced
                  for record in runs]
    attempted = sum(record.terminal for record in everything)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    states = {state: sum(1 for record in firsts for o in record.outcomes
                         if o.state == state)
              for state in ("serviced", "failed", "shed", "rejected")}
    payload = dict(result)
    payload.update({
        "workload": args.workload, "seed": args.seed,
        "smoke": args.smoke, "trace": bool(args.trace),
        "seconds": args.seconds, "host": host_info(),
        "episodes": EPISODES,
        "untraced_run_s": [[record.run_s for record in runs]
                           for runs in found.untraced],
        "traced_run_s": [[record.run_s for record in runs]
                         for runs in found.traced],
        "setup_s": [setup_s for setup_s, _ in found.setups],
        "calibration_s": [record.calibration_s
                          for runs in found.untraced for record in runs],
        "raw_requests_per_s": statistics.median(
            record.terminal / record.run_s
            for runs in found.untraced for record in runs),
        "raw_setup_s": statistics.median(
            setup_s for setup_s, _ in found.setups),
        "latency_samples": samples,
        "latency_tail_percentile": TAIL,
        "states": states,
        "stimuli": sum(record.stimuli for record in firsts),
        "stimuli_detected": sum(record.detected for record in firsts),
        "digests": [runs[0].digest for runs in found.untraced],
        "errors": errors[:20],
    })
    path = write_result(args, payload)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'smoke' if args.smoke else 'full'}: {EPISODES} episodes, "
          f"{sum(map(len, found.untraced))} untraced + "
          f"{sum(map(len, found.traced))} traced repetitions; {samples} "
          f"requests and latency samples ("
          f"{', '.join(f'{k} {v}' for k, v in states.items())})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for error in errors[:20]:
        print(f"  CHECK FAILED: {error}")
    print(f"  result written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
