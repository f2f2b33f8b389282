"""Fault-tolerance benchmark: serviced fraction under random outages.

Drives a continuous photo() workload over a camera field while
:class:`~repro.devices.failures.FailureInjector` injects random outage
episodes (offline periods and crashes), and compares two otherwise
identical engines:

* ``baseline`` — the default policy: one attempt, no failover, no
  health tracking. A request assigned to a mid-outage camera is lost.
* ``fault_tolerant`` — retries with exponential backoff, failover
  re-dispatch minus the failed device, and circuit-breaker quarantine.

Both engines run with probing disabled (the Section 4 ablation): the
optimizer assigns blindly, so device loss hits the execution path and
the recovery layer — not the probe filter — is what's measured. The
outage schedule is identical in both runs (per-device deterministic RNG
substreams keyed by device ID), so the comparison is exact, not
statistical.

Writes a machine-readable ``BENCH_fault_tolerance.json`` at the repo
root. The acceptance gate: the fault-tolerant engine services >= 90% of
submitted requests AND a strictly higher fraction than the baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import format_table, record, result_path, write_result  # noqa: E402

from repro.actions.request import ActionRequest  # noqa: E402
from repro.core.config import EngineConfig, RetryPolicy  # noqa: E402
from repro.core.engine import AortaEngine  # noqa: E402
from repro.devices.camera import PanTiltZoomCamera  # noqa: E402
from repro.devices.failures import FailureInjector  # noqa: E402
from repro.devices.health import HealthPolicy  # noqa: E402
from repro.geometry import Point  # noqa: E402
from repro.sim import Environment  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_fault_tolerance.json")

#: Reference outage process: each camera suffers ~`rate * horizon`
#: episodes of ~`mean_duration` seconds, i.e. it is down roughly
#: `rate * mean_duration` = 36% of the time.
N_CAMERAS = 8
OUTAGE_RATE = 0.03          # episodes per second per device
MEAN_DURATION = 12.0        # seconds per episode
FAILURE_SEED = 11
WORKLOAD_SEED = 5
REQUEST_PERIOD = 2.0        # one photo() submission every 2 s

HORIZON = 400.0             # injection window
DRAIN = 120.0               # quiet tail so failovers can complete
SMOKE_HORIZON = 100.0
SMOKE_DRAIN = 60.0

#: Acceptance floor for the fault-tolerant serviced fraction.
TARGET_RATIO = 0.90

FT_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.5,
                       backoff_factor=2.0, backoff_max=10.0,
                       jitter=0.1, failover=True, max_dispatches=4)
FT_HEALTH = HealthPolicy(failure_threshold=3, quarantine_seconds=15.0,
                         backoff_factor=2.0, quarantine_max=120.0)


def make_config(fault_tolerant: bool) -> EngineConfig:
    if not fault_tolerant:
        return EngineConfig(probing=False)
    return EngineConfig(probing=False, retry=FT_RETRY, health=FT_HEALTH,
                        lock_lease_seconds=60.0)


def build_workload(horizon: float) -> list:
    """Deterministic (submit_time, target) schedule, shared by both runs."""
    rng = random.Random(WORKLOAD_SEED)
    schedule = []
    t = REQUEST_PERIOD
    while t < horizon:
        schedule.append((t, Point(rng.uniform(0.0, 100.0),
                                  rng.uniform(0.0, 100.0))))
        t += REQUEST_PERIOD
    return schedule


def run_engine(fault_tolerant: bool, horizon: float, drain: float) -> dict:
    env = Environment()
    engine = AortaEngine(env, config=make_config(fault_tolerant), seed=0)
    cam_rng = random.Random(1)
    cameras = []
    for j in range(N_CAMERAS):
        camera = PanTiltZoomCamera(
            env, f"cam{j + 1}",
            Point(cam_rng.uniform(0.0, 100.0), cam_rng.uniform(0.0, 100.0)),
            facing=cam_rng.uniform(-180.0, 180.0),
            view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras.append(camera)
    candidates = tuple(camera.device_id for camera in cameras)

    action = engine.actions.get("photo")
    operator = engine.dispatcher.operator_for(action)
    schedule = build_workload(horizon)

    def workload(env):
        for submit_at, target in schedule:
            delay = submit_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            operator.submit(ActionRequest(
                action_name="photo",
                arguments={"target": target, "directory": "photos"},
                created_at=env.now,
                candidates=candidates,
            ))

    env.process(workload(env))
    engine.dispatcher.start()

    injector = FailureInjector(env)
    episodes = injector.random_outages(
        cameras, horizon=horizon, outage_rate_per_device=OUTAGE_RATE,
        mean_duration=MEAN_DURATION, rng=random.Random(FAILURE_SEED))

    env.run(until=horizon + drain)

    submitted = len(schedule)
    stats = engine.statistics()
    serviced = engine.dispatcher.serviced_total
    failed = engine.dispatcher.failed_total
    result = {
        "submitted": submitted,
        "serviced": serviced,
        "failed": failed,
        "unresolved": submitted - serviced - failed,
        "serviced_ratio": serviced / submitted,
        "outage_episodes": episodes,
        "execution_attempts": stats["execution_attempts"],
        "retries": stats["retries"],
        "failovers": stats["failovers"],
        "lock_recoveries": stats["lock_recoveries"],
    }
    if fault_tolerant:
        result.update({
            "devices_quarantined": stats["devices_quarantined"],
            "devices_readmitted": stats["devices_readmitted"],
            "mean_recovery_seconds": stats["mean_recovery_seconds"],
        })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short horizon for CI")
    args = parser.parse_args(argv)

    horizon = SMOKE_HORIZON if args.smoke else HORIZON
    drain = SMOKE_DRAIN if args.smoke else DRAIN

    baseline = run_engine(False, horizon, drain)
    fault_tolerant = run_engine(True, horizon, drain)

    gates = {
        "serviced_ratio_met":
            fault_tolerant["serviced_ratio"] >= TARGET_RATIO,
        "beats_baseline":
            fault_tolerant["serviced_ratio"] > baseline["serviced_ratio"],
    }

    payload = {
        "benchmark": "bench_fault_tolerance",
        "workload": (f"photo() every {REQUEST_PERIOD}s over {N_CAMERAS} "
                     f"cameras for {horizon}s (+{drain}s drain), probing "
                     f"off; outages: rate {OUTAGE_RATE}/s/device, mean "
                     f"duration {MEAN_DURATION}s, seed {FAILURE_SEED}"),
        "smoke": args.smoke,
        "retry_policy": {
            "max_attempts": FT_RETRY.max_attempts,
            "backoff_base": FT_RETRY.backoff_base,
            "backoff_factor": FT_RETRY.backoff_factor,
            "backoff_max": FT_RETRY.backoff_max,
            "jitter": FT_RETRY.jitter,
            "failover": FT_RETRY.failover,
            "max_dispatches": FT_RETRY.max_dispatches,
        },
        "health_policy": {
            "failure_threshold": FT_HEALTH.failure_threshold,
            "quarantine_seconds": FT_HEALTH.quarantine_seconds,
            "backoff_factor": FT_HEALTH.backoff_factor,
            "quarantine_max": FT_HEALTH.quarantine_max,
        },
        "baseline": baseline,
        "fault_tolerant": fault_tolerant,
        "gate": {
            "target_ratio": TARGET_RATIO,
            "fault_tolerant_ratio": round(
                fault_tolerant["serviced_ratio"], 4),
            "baseline_ratio": round(baseline["serviced_ratio"], 4),
        },
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    rows = [
        ("baseline", baseline["submitted"], baseline["serviced"],
         baseline["failed"], baseline["serviced_ratio"],
         baseline["retries"], baseline["failovers"]),
        ("fault_tolerant", fault_tolerant["submitted"],
         fault_tolerant["serviced"], fault_tolerant["failed"],
         fault_tolerant["serviced_ratio"], fault_tolerant["retries"],
         fault_tolerant["failovers"]),
    ]
    table = format_table(
        ("policy", "submitted", "serviced", "failed", "ratio",
         "retries", "failovers"), rows)
    verdict = (f"gate (fault_tolerant >= {TARGET_RATIO:.0%} and > "
               f"baseline): {'PASS' if exit_code == 0 else 'FAIL'} "
               f"(ft {fault_tolerant['serviced_ratio']:.1%} vs baseline "
               f"{baseline['serviced_ratio']:.1%})")
    record("fault_tolerance",
           "Fault tolerance: serviced fraction under random outages",
           table + "\n\n" + verdict +
           f"\nJSON: {os.path.relpath(result_path(JSON_PATH, args.smoke))}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
