"""Config-matrix identity: the dispatcher under each of its knobs.

Every case runs one deterministic scenario under one dispatcher
configuration and compares a SHA-256 of the normalized dump
(:func:`repro.obs.dump.dump_engine`, wall-clock metrics excluded) with
the digest recorded in ``tests/core/goldens/dispatch_matrix.json``. The
checked-in goldens of ``tests/obs`` pin two configurations in full;
this matrix pins every knob the dispatcher branches on (locking,
probing, retry/failover, health, overload, status cache, concurrent
dispatch, incremental scheduling), so a refactor of the dispatch path
that moves any trace record, counter or outcome fails here.

The same runs check completion accounting: every request in the
completion log appears once and is in a terminal state, and the
serviced, failed and shed totals add up to the completed count.

Recording digests after an intentional behaviour change::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest -q \\
        tests/core/test_dispatch_matrix.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable, Dict

import pytest

from repro import (
    AortaEngine,
    Environment,
    PanTiltZoomCamera,
    Point,
    RetryPolicy,
    SensorMote,
)
from repro.actions.request import TRANSITIONS, ActionRequest
from repro.core.config import EngineConfig
from repro.devices.failures import FailureInjector, OutageSpec
from repro.obs.dump import dump_engine
from tests.obs.scenarios import (
    OVERLOAD_STORM_POLICY,
    continuous_outage_scenario,
    ft_scenario,
    overload_storm_scenario,
    snapshot_scenario,
)

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "goldens",
                            "dispatch_matrix.json")

#: A queue bound of 4 (watermarks 3/1) against the 40-request storm:
#: eviction, backpressure and pressure shedding all fire early.
TIGHT_QUEUE = dataclasses.replace(
    OVERLOAD_STORM_POLICY, queue_limit=4, shed_high_watermark=3,
    shed_low_watermark=1)

#: The two-action lab's photos per tick: (id suffix, candidates).
PHOTO_CANDIDATES = (("a", ("cam2",)), ("b", ("cam2", "cam3")),
                    ("c", ("cam1", "cam2", "cam3")))

#: Retries plus failover re-dispatch, for the two-action lab.
FAILOVER = RetryPolicy(max_attempts=2, failover=True)


def two_action_scenario(**config_kwargs) -> AortaEngine:
    """Three photos and a beep every 2 s, so each drain has two batches.

    Three cameras and two motes. The photos of one tick name cam2
    alone, cam2 and cam3, and all three cameras, so they batch together
    and queue on cam2. cam2 crashes 6.5s..12s, in the middle of a
    photo: later photos fail on execution, are excluded by the probe,
    or (with failover) are drained from cam2's queue. Two actions give
    ``concurrent_dispatch`` more than one batch to overlap. Runs 40
    virtual seconds with explicit request ids.
    """
    env = Environment()
    engine = AortaEngine(env, config=EngineConfig(observability=True,
                                                  **config_kwargs),
                         seed=0)
    cameras = []
    for index in range(3):
        camera = PanTiltZoomCamera(
            env, f"cam{index + 1}", Point(15.0 * index, 0.0),
            facing=0.0, view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras.append(camera)
    for index in range(2):
        engine.add_device(SensorMote(env, f"mote{index + 1}",
                                     Point(5.0 + 10.0 * index, 3.0),
                                     noise_amplitude=0.0))
    photo = engine.dispatcher.operator_for(engine.actions.get("photo"))
    beep = engine.dispatcher.operator_for(engine.actions.get("beep"))

    def workload(env):
        for tick in range(1, 11):           # t = 2, 4, ..., 20
            yield env.timeout(2.0 * tick - env.now)
            for suffix, candidates in PHOTO_CANDIDATES:
                photo.submit(ActionRequest(
                    action_name="photo",
                    arguments={"target": Point(10.0 + tick, 5.0),
                               "directory": "photos"},
                    created_at=env.now,
                    candidates=candidates,
                    request_id=f"p{tick:02d}{suffix}"))
            beep.submit(ActionRequest(
                action_name="beep", arguments={}, created_at=env.now,
                candidates=("mote1", "mote2"),
                request_id=f"b{tick:02d}"))

    env.process(workload(env))
    engine.dispatcher.start()
    FailureInjector(env).schedule_outage(cameras[1], OutageSpec(
        device_id="cam2", start=6.5, duration=5.5, kind="crash"))
    engine.run(until=40.0)
    return engine


def _outage(**kwargs) -> Callable[[], AortaEngine]:
    return lambda: continuous_outage_scenario(observability=True, **kwargs)


def _snapshot(**kwargs) -> Callable[[], AortaEngine]:
    return lambda: snapshot_scenario(observability=True, **kwargs)


#: Case id -> scenario run. The outage scenario's own settings are
#: probing off, retries with failover, a circuit breaker and leases.
CASES: Dict[str, Callable[[], AortaEngine]] = {
    "default/snapshot": _snapshot(),
    "default/two_action": lambda: two_action_scenario(),
    "locking_off/snapshot": _snapshot(locking=False),
    "locking_off/outage": _outage(locking=False),
    "locking_off/two_action": lambda: two_action_scenario(locking=False),
    "probing_off/snapshot": _snapshot(probing=False),
    "probing_off/two_action": lambda: two_action_scenario(probing=False),
    "failover/two_action": lambda: two_action_scenario(retry=FAILOVER),
    "failover/two_action_probing_off": lambda: two_action_scenario(
        probing=False, retry=FAILOVER),
    "failover_health/outage": _outage(),
    "failover_health/outage_probing": _outage(probing=True),
    "failover_health/ft": lambda: ft_scenario(observability=True),
    "overload/storm": lambda: overload_storm_scenario(observability=True),
    "overload_tight_queue/storm": lambda: overload_storm_scenario(
        observability=True, overload_policy=TIGHT_QUEUE),
    "status_cache/snapshot": _snapshot(status_cache=True),
    "status_cache/outage_probing": _outage(probing=True,
                                           status_cache=True),
    "concurrent_dispatch/two_action": lambda: two_action_scenario(
        concurrent_dispatch=True),
    "concurrent_dispatch/outage": _outage(concurrent_dispatch=True),
    "incremental/outage": _outage(incremental=True),
    "incremental/outage_probing_status_cache": _outage(
        probing=True, status_cache=True, incremental=True),
}


def dump_digest(engine: AortaEngine) -> str:
    """SHA-256 of the normalized dump, serialized canonically."""
    dump = json.loads(json.dumps(dump_engine(engine)))
    text = json.dumps(dump, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, str]:
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def record_digest(case: str, digest: str) -> None:
    digests = load_digests()
    digests[case] = digest
    os.makedirs(os.path.dirname(DIGESTS_PATH), exist_ok=True)
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")


def assert_accounting(engine: AortaEngine) -> None:
    completed = engine.completed_requests
    assert len({id(request) for request in completed}) == len(completed), \
        "a request entered the completion log twice"
    for request in completed:
        assert not TRANSITIONS[request.state], (
            f"{request.request_id} completed in non-terminal state "
            f"{request.state.value}")
    stats = engine.statistics()
    assert (stats["requests_serviced"] + stats["requests_failed"]
            + engine.dispatcher.shed_total) == stats["requests_completed"]
    if "requests_shed" in stats:
        assert stats["requests_shed"] == engine.dispatcher.shed_total


@pytest.mark.parametrize("case", sorted(CASES))
def test_dispatch_matrix_is_identical(case):
    engine = CASES[case]()
    assert_accounting(engine)
    digest = dump_digest(engine)
    if os.environ.get("UPDATE_GOLDENS"):
        record_digest(case, digest)
        return
    expected = load_digests().get(case)
    assert expected is not None, (
        f"no digest for {case!r}; record one with UPDATE_GOLDENS=1")
    assert digest == expected, (
        f"{case}: the normalized dump changed (digest {digest[:12]} != "
        f"{expected[:12]})")


def test_every_case_has_a_digest_and_no_digest_is_stale():
    assert sorted(load_digests()) == sorted(CASES)
