"""The benchmark's four workloads: inputs generated from a seed.

Each generator turns ``(seed, scale)`` into a :class:`Inputs` value —
devices, standing queries, stimuli and outages at fixed virtual times
— and :func:`build` hands them to the engine through its public API.
The seed never reaches the engine: every engine is built with seed 0
and the default :class:`EngineConfig`, except for the settings that
define the workload (``probing``, ``retry``, ``health``, ``overload``,
``shards``). No speed flag is turned on, so a later change that makes
a faster path the default shows up as a gain.

Arrivals are open-loop in virtual time: stimuli and outages are
scheduled before ``start()``, so a slow engine cannot delay them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    AortaEngine,
    DeviceSpec,
    EngineConfig,
    HealthPolicy,
    OverloadPolicy,
    PanTiltZoomCamera,
    Point,
    RegionPlacement,
    RetryPolicy,
    SensorMote,
    SensorStimulus,
    ShardedEngine,
)
from repro.devices.failures import FailureInjector, OutageSpec


@dataclass(frozen=True)
class StandingQuery:
    sql: str
    deadline_seconds: Optional[float] = None


@dataclass
class Inputs:
    """Everything one workload run feeds the engine."""

    config: EngineConfig
    #: (device id, factory) in admission order.
    devices: List[Tuple[str, DeviceSpec]]
    queries: List[StandingQuery]
    #: (sensor id, stimulus), any order.
    stimuli: List[Tuple[str, SensorStimulus]]
    outages: List[OutageSpec] = field(default_factory=list)
    #: device id -> shard, for sharded workloads.
    placement: Optional[Dict[str, int]] = None
    #: Virtual seconds to run: the last stimulus plus a drain.
    horizon: float = 0.0

    def sensor_locations(self) -> Dict[str, Point]:
        return {device_id: spec.args[1]
                for device_id, spec in self.devices
                if spec.factory is SensorMote}


def _camera(device_id: str, location: Point, **kwargs: Any
            ) -> Tuple[str, DeviceSpec]:
    # An explicit address keeps the photo arguments independent of the
    # interpreter's string-hash randomization.
    return device_id, DeviceSpec(
        PanTiltZoomCamera, device_id, location,
        ip_address=f"10.{len(device_id)}.0.1", **kwargs)


def _mote(device_id: str, location: Point) -> Tuple[str, DeviceSpec]:
    return device_id, DeviceSpec(SensorMote, device_id, location,
                                 noise_amplitude=0.0)


# ----------------------------------------------------------------------
# band_storm / band_storm_8shard
# ----------------------------------------------------------------------
BAND_REGIONS = 8
BAND_CAMERAS = 480
BAND_EVENTS_PER_REGION = 8
BAND_EVENT_PERIOD = 10.0
BAND_STIMULUS_SECONDS = 3.0
BAND_DRAIN = 15.0

BAND_AQ = '''CREATE AQ band_storm AS
    SELECT photo(c.ip, s.loc, "photos/storm")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''


def band_storm(seed: int, scale: float = 1.0, shards: int = 1) -> Inputs:
    """Wide-range cameras in 8 regions, one mote each, one AQ.

    Every camera covers every mote, so on one engine each request
    carries the whole fleet as candidates: the candidate join and the
    cost/schedule stack do almost all the work and matching (1 AQ)
    almost none. With ``shards=8`` each region is its own shard.
    """
    rng = random.Random(seed)
    per_region = max(1, int(BAND_CAMERAS * scale) // BAND_REGIONS)
    events = max(2, int(BAND_EVENTS_PER_REGION * scale))
    devices = []
    placement = {}
    stimuli = []
    for region in range(BAND_REGIONS):
        base = 100.0 * region
        for k in range(per_region):
            camera_id = f"cam{region:02d}_{k:04d}"
            devices.append(_camera(
                camera_id,
                Point(base + 0.01 * k + rng.uniform(0.0, 0.005),
                      rng.uniform(-1.0, 0.0)),
                facing=0.0, view_half_angle=180.0,
                view_range=1e9))
            placement[camera_id] = region % shards
        mote_id = f"mote{region:02d}"
        devices.append(_mote(mote_id, Point(base + 5.0, 3.0)))
        placement[mote_id] = region % shards
        for event in range(events):
            start = (2.0 + BAND_EVENT_PERIOD * event + 0.25 * region
                     + rng.uniform(0.0, 1.0))
            stimuli.append((mote_id, SensorStimulus(
                "accel_x", start=start, duration=BAND_STIMULUS_SECONDS,
                magnitude=850.0)))
    horizon = 2.0 + BAND_EVENT_PERIOD * events + BAND_DRAIN
    return Inputs(
        config=EngineConfig(probing=False, shards=shards),
        devices=devices, queries=[StandingQuery(BAND_AQ)],
        stimuli=stimuli, placement=placement if shards > 1 else None,
        horizon=horizon)


# ----------------------------------------------------------------------
# aq_fleet
# ----------------------------------------------------------------------
FLEET_MOTES = 16
FLEET_CAMERAS_PER_MOTE = 2
FLEET_AQS = 600
FLEET_STIMULI_PER_MOTE = 8
FLEET_PERIOD = 4.0
FLEET_STIMULUS_SECONDS = 3.0
FLEET_BAND_LOW = 40.0
FLEET_BAND_SPAN = 400.0
#: Expected AQs whose band holds one stimulus's temperature.
FLEET_HITS_PER_STIMULUS = 2.0
FLEET_DRAIN = 10.0


def aq_fleet(seed: int, scale: float = 1.0) -> Inputs:
    """Many narrow temperature-band AQs over a small device fleet.

    16 motes on a grid, two short-range cameras beside each, and
    hundreds of AQs each watching a narrow temperature band. Every
    poll evaluates every AQ's event predicate on every row (scan-all
    matching), while each request has only two candidates.
    """
    rng = random.Random(seed)
    n_aqs = max(10, int(FLEET_AQS * scale))
    per_mote = max(2, int(FLEET_STIMULI_PER_MOTE * scale))
    devices = []
    stimuli = []
    for m in range(FLEET_MOTES):
        x, y = 30.0 * (m % 4), 30.0 * (m // 4)
        for k in range(FLEET_CAMERAS_PER_MOTE):
            devices.append(_camera(
                f"cam{m:02d}_{k}",
                Point(x + rng.uniform(-3.0, 3.0), y + rng.uniform(-3.0, 3.0)),
                facing=rng.uniform(-180.0, 180.0), view_half_angle=180.0,
                view_range=10.0))
        mote_id = f"mote{m:02d}"
        devices.append(_mote(mote_id, Point(x, y)))
        offset = FLEET_PERIOD * m / FLEET_MOTES
        for event in range(per_mote):
            temperature = FLEET_BAND_LOW + rng.uniform(0.0, FLEET_BAND_SPAN)
            stimuli.append((mote_id, SensorStimulus(
                "temperature",
                start=(2.0 + offset + FLEET_PERIOD * event
                       + rng.uniform(0.0, 0.5)),
                duration=FLEET_STIMULUS_SECONDS,
                magnitude=temperature - 22.0)))
    queries = []
    step = FLEET_BAND_SPAN / n_aqs
    width = FLEET_HITS_PER_STIMULUS * step
    for i in range(n_aqs):
        low = FLEET_BAND_LOW + step * i
        queries.append(StandingQuery(
            f'''CREATE AQ band{i:05d} AS
    SELECT photo(c.ip, s.loc, "photos/band{i:05d}")
    FROM sensor s, camera c
    WHERE s.temperature >= {low:.4f}
      AND s.temperature <= {low + width:.4f}
      AND coverage(c.id, s.loc)'''))
    horizon = 2.0 + FLEET_PERIOD * (per_mote + 1) + FLEET_DRAIN
    return Inputs(config=EngineConfig(), devices=devices, queries=queries,
                  stimuli=stimuli, horizon=horizon)


# ----------------------------------------------------------------------
# sensor_field
# ----------------------------------------------------------------------
FIELD_COLUMNS, FIELD_ROWS = 8, 6
FIELD_SPACING = 10.0
FIELD_CAMERAS = 96
FIELD_CAMERA_RANGE = 12.0
FIELD_WINDOW = 100.0
#: Bursts: every few seconds the motes within a radius of a random
#: centre fire together, so neighbouring requests compete for the few
#: cameras that cover them.
FIELD_BURSTS = 100
FIELD_BURST_RADIUS = 15.0
FIELD_STIMULUS_SECONDS = 4.0
FIELD_MIN_GAP = 4.0
FIELD_DEADLINE = 6.0
FIELD_OUTAGE_RATE = 1.0 / 200.0
FIELD_OUTAGE_MEAN = 20.0
FIELD_DRAIN = 20.0

FIELD_AQ = '''CREATE AQ intrusion AS
    SELECT photo(c.ip, s.loc, "photos/field")
    FROM sensor s, camera c
    WHERE s.accel_x > 500 AND coverage(c.id, s.loc)'''

FIELD_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.5,
                          backoff_factor=2.0, backoff_max=4.0, jitter=0.1,
                          failover=True, max_dispatches=3)
FIELD_HEALTH = HealthPolicy(failure_threshold=2, quarantine_seconds=10.0,
                            backoff_factor=2.0, quarantine_max=60.0)
FIELD_QUEUE_LIMIT = 20
FIELD_SHED_HIGH = 12
FIELD_SHED_LOW = 8


def sensor_field(seed: int, scale: float = 1.0) -> Inputs:
    """A lossy field: many motes, overlapping cameras, faults, deadlines.

    48 motes on a grid and 96 cameras on a jittered lattice with
    overlapping short-range coverage; one AQ with a deadline; probing,
    retry with failover, health breakers and the overload plane with a
    queue bound; bursts of stimuli and random camera outages. Many
    small batches with a few candidates each, and some requests shed.
    """
    rng = random.Random(seed)
    window = FIELD_WINDOW * scale
    width = FIELD_SPACING * (FIELD_COLUMNS - 1)
    height = FIELD_SPACING * (FIELD_ROWS - 1)
    devices = []
    # Cameras on a regular lattice over the field (jittered), so every
    # seed sees the same coverage density.
    lattice_columns = 12
    lattice_rows = FIELD_CAMERAS // lattice_columns
    centre = Point(width / 2.0, height / 2.0)
    for j in range(FIELD_CAMERAS):
        column, row = j % lattice_columns, j // lattice_columns
        location = Point(
            -5.0 + (width + 10.0) * column / (lattice_columns - 1)
            + rng.uniform(-1.0, 1.0),
            -5.0 + (height + 10.0) * row / (lattice_rows - 1)
            + rng.uniform(-1.0, 1.0))
        devices.append(_camera(
            f"cam{j:03d}", location,
            facing=location.bearing_to(centre) + rng.uniform(-20.0, 20.0),
            view_half_angle=120.0, view_range=FIELD_CAMERA_RANGE))
    locations = {}
    for m in range(FIELD_COLUMNS * FIELD_ROWS):
        mote_id = f"mote{m:02d}"
        locations[mote_id] = Point(FIELD_SPACING * (m % FIELD_COLUMNS),
                                   FIELD_SPACING * (m // FIELD_COLUMNS))
        devices.append(_mote(mote_id, locations[mote_id]))
    motes = list(locations)
    busy_until = {mote_id: 0.0 for mote_id in motes}
    stimuli = []
    n_bursts = max(4, int(FIELD_BURSTS * scale))
    for burst in range(n_bursts):
        nominal = 2.0 + window * burst / n_bursts
        focus = locations[rng.choice(motes)]
        # Motes still inside a previous stimulus (plus a quiet gap) sit
        # this burst out, so one mote's stimuli never overlap.
        for mote_id in motes:
            if locations[mote_id].distance_to(focus) > FIELD_BURST_RADIUS \
                    or busy_until[mote_id] > nominal:
                continue
            start = nominal + rng.uniform(0.0, 0.5)
            busy_until[mote_id] = (start + FIELD_STIMULUS_SECONDS
                                   + FIELD_MIN_GAP)
            stimuli.append((mote_id, SensorStimulus(
                "accel_x", start=start, duration=FIELD_STIMULUS_SECONDS,
                magnitude=850.0)))
    outages = []
    for device_id, _ in devices[:FIELD_CAMERAS]:
        at = rng.expovariate(FIELD_OUTAGE_RATE)
        while at < window:
            duration = max(rng.expovariate(1.0 / FIELD_OUTAGE_MEAN), 1.0)
            duration = min(duration, window - at + FIELD_DRAIN / 2)
            outages.append(OutageSpec(
                device_id=device_id, start=at, duration=duration,
                kind="crash" if rng.random() < 0.3 else "offline"))
            at += duration + rng.expovariate(FIELD_OUTAGE_RATE)
    return Inputs(
        config=EngineConfig(
            retry=FIELD_RETRY, health=FIELD_HEALTH, overload=True,
            overload_policy=OverloadPolicy(
                queue_limit=FIELD_QUEUE_LIMIT,
                shed_high_watermark=FIELD_SHED_HIGH,
                shed_low_watermark=FIELD_SHED_LOW)),
        devices=devices,
        queries=[StandingQuery(FIELD_AQ, deadline_seconds=FIELD_DEADLINE)],
        stimuli=stimuli, outages=outages,
        horizon=2.0 + window + FIELD_DRAIN)


GENERATORS: Dict[str, Callable[[int, float], Inputs]] = {
    "band_storm": lambda seed, scale: band_storm(seed, scale),
    "band_storm_8shard": lambda seed, scale: band_storm(seed, scale,
                                                        shards=8),
    "aq_fleet": aq_fleet,
    "sensor_field": sensor_field,
}


# ----------------------------------------------------------------------
# Building a system from inputs
# ----------------------------------------------------------------------
@dataclass
class System:
    """A started engine (or fleet) and its per-shard engines."""

    runner: Any
    engines: List[AortaEngine]


def build(inputs: Inputs) -> System:
    """Construct, populate and start the engine; nothing runs yet."""
    if inputs.config.shards > 1:
        fleet = ShardedEngine(
            config=inputs.config,
            placement=RegionPlacement(inputs.config.shards,
                                      inputs.placement), seed=0)
        for device_id, spec in inputs.devices:
            fleet.add_device(device_id, spec)
        engines = [fleet.shard(i) for i in range(fleet.n_shards)]
        runner, register, inject = fleet, fleet.create_aq, fleet.inject
        device = fleet.device
    else:
        engine = AortaEngine(config=inputs.config, seed=0)
        for device_id, spec in inputs.devices:
            engine.add_device(spec(engine.env))
        engines = [engine]
        runner, register = engine, engine.create_aq
        device = engine.comm.registry.get

        def inject(device_id: str, stimulus: SensorStimulus) -> None:
            device(device_id).inject(stimulus)
    for query in inputs.queries:
        register(query.sql, deadline_seconds=query.deadline_seconds)
    for sensor_id, stimulus in inputs.stimuli:
        inject(sensor_id, stimulus)
    if inputs.outages:
        injectors = {id(engine.env): FailureInjector(engine.env)
                     for engine in engines}
        for spec in inputs.outages:
            target = device(spec.device_id)
            injectors[id(target.env)].schedule_outage(target, spec)
    runner.start()
    return System(runner=runner, engines=engines)
