"""Scheduling-time regression benchmark: oracle, vector, incremental.

Three sections, one machine-readable ``BENCH_scheduling.json``.

**Oracle** times all five algorithms on *engine-oracle* problems — the
scheduling cost model is the dispatcher's :class:`_ActionCostAdapter`
over the real :class:`~repro.cost.model.CostModel` photo() pipeline
(quantity resolution + profile interpolation), exactly what a
dispatched batch pays per estimate — in three modes:

* ``uncached`` — ``cost_cache=False``, the pre-oracle behaviour: every
  ``(request, device, status)`` estimate re-runs the cost pipeline.
* ``cold`` — a fresh per-schedule :class:`CachingCostModel` (the
  scheduler default), hits only from repeats inside one run.
* ``warm`` — a shared persistent cache across schedules of the same
  recurring batch: the steady-state dispatcher scenario, where a
  periodic event re-emits the same action workload every poll and the
  oracle already holds every triple.

**Vector** times the numpy column kernel (``vectorize=True``) against
the scalar walk on the calibrated camera workload at 400x100 and
4000x1000, asserting byte-identical assignments. Skipped when numpy is
not installed (the scalar path is the shipped default).

**Incremental** times a warm-start re-schedule
(:class:`IncrementalScheduler`) of a recurring engine-oracle batch in
which 10% of the devices moved, against the full re-schedule the
dispatcher would otherwise run, and checks the warm-start identity
(an unchanged batch equals a full run bit-for-bit).

The acceptance gate is a real boolean in every mode: equivalence checks
(cache transparency, vector identity, incremental identity) always
count; the speedup floors (warm oracle >= 3x at 400x100, vectorized
SRFAE >= 5x / LERFA+SRFE >= 3x at 4000x1000, incremental >= 3x at 10%
dirt) are evaluated on full runs only. A gate miss fails the process.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py [--smoke]
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import ALGORITHM_ORDER, format_table, record, result_path, write_result  # noqa: E402

from repro.actions.request import ActionRequest  # noqa: E402
from repro.core.dispatcher import _ActionCostAdapter  # noqa: E402
from repro.core.engine import AortaEngine  # noqa: E402
from repro.devices.camera import PanTiltZoomCamera  # noqa: E402
from repro.geometry import Point  # noqa: E402
from repro.scheduling import (  # noqa: E402
    HAVE_NUMPY,
    CachingCostModel,
    IncrementalScheduler,
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SAParameters,
    SchedRequest,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
    uniform_camera_workload,
)
from repro.sim import Environment  # noqa: E402

JSON_PATH = os.path.join(os.path.dirname(__file__), "..",
                         "BENCH_scheduling.json")

#: (n requests, m devices); the last entry is the paper's E10 scale.
SIZES = ((20, 5), (100, 25), (400, 100))
SMOKE_SIZES = ((20, 5),)

#: The acceptance gate of the perf work: warm-oracle speedup floor for
#: the paper's algorithms at the largest size.
TARGET_SPEEDUP = 3.0
GATED_ALGORITHMS = ("SRFAE", "LERFA+SRFE")

#: Vector section: calibrated-camera workload sizes; the second is the
#: 10x-the-paper scale the vectorized kernel exists for.
VECTOR_SIZES = ((400, 100), (4000, 1000))
VECTOR_SMOKE_SIZES = ((20, 5),)
#: Per-algorithm vectorized-vs-scalar floors at the largest size. SRFAE
#: keys every (request, device) pair so it vectorizes hardest; LERFA's
#: scalar loop is already light, so its floor is lower.
VECTOR_TARGETS = {"SRFAE": 5.0, "LERFA+SRFE": 3.0}

#: Incremental section: engine-oracle size, dirty fraction and floor.
INCREMENTAL_SIZE = (400, 100)
INCREMENTAL_SMOKE_SIZE = (20, 5)
DIRTY_FRACTION = 0.10
INCREMENTAL_TARGET = 3.0


def engine_oracle_problem(n: int, m: int, seed: int = 0) -> Problem:
    """A photo() batch costed by the real engine cost model.

    m cameras scattered over a 100x100 m field, n requests aiming at
    random targets, every camera a candidate (the Figure 4 uniform
    shape). Estimates go through ``CostModel.estimate`` — the same
    resolver + profile path the dispatcher pays.
    """
    rng = random.Random(seed)
    env = Environment()
    engine = AortaEngine(env, seed=seed)
    cameras = {}
    for j in range(m):
        camera = PanTiltZoomCamera(
            env, f"cam{j + 1}",
            Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            facing=rng.uniform(-180.0, 180.0),
            view_half_angle=170.0, view_range=1000.0)
        engine.add_device(camera)
        cameras[camera.device_id] = camera
    device_ids = tuple(cameras)
    action = engine.actions.get("photo")
    statuses = {device_id: camera.physical_status()
                for device_id, camera in cameras.items()}
    requests = []
    for i in range(n):
        action_request = ActionRequest(
            action_name="photo",
            arguments={
                "target": Point(rng.uniform(0.0, 100.0),
                                rng.uniform(0.0, 100.0)),
                "directory": "/photos",
            },
            request_id=f"req{i + 1}",
            candidates=device_ids,
        )
        requests.append(SchedRequest(
            request_id=action_request.request_id,
            candidates=device_ids,
            payload=action_request,
        ))
    return Problem(
        requests=tuple(requests),
        device_ids=device_ids,
        cost_model=_ActionCostAdapter(engine.cost_model, action, cameras,
                                      statuses),
        label=f"engine-oracle photo n={n} m={m} seed={seed}",
    )


def scheduler_factory(name: str, n: int):
    """Factory taking ``cost_cache`` so each mode builds fresh state.

    SA gets a reduced annealing schedule at the larger sizes so the
    benchmark completes in minutes; the relative cached/uncached shape
    is unaffected (the same moves are evaluated in every mode).
    """
    if name == "SA":
        if n > 100:
            parameters = SAParameters(moves_per_temperature_per_request=4,
                                      max_evaluations=5_000)
        elif n > 20:
            parameters = SAParameters(moves_per_temperature_per_request=10,
                                      max_evaluations=20_000)
        else:
            parameters = SAParameters(moves_per_temperature_per_request=4,
                                      max_evaluations=2_000)
        return lambda cache: SimulatedAnnealingScheduler(
            0, parameters=parameters, cost_cache=cache)
    factory = {
        "LERFA+SRFE": LerfaSrfeScheduler,
        "SRFAE": SrfaeScheduler,
        "LS": ListScheduler,
        "RANDOM": RandomScheduler,
    }[name]
    return lambda cache: factory(0, cost_cache=cache)


def _time_schedule(make_scheduler, problem: Problem, cache, repeats: int):
    """Best-of-``repeats`` scheduling seconds plus last cache stats."""
    best = float("inf")
    stats = None
    for _ in range(repeats):
        scheduler = make_scheduler(cache)
        schedule = scheduler.schedule(problem)
        best = min(best, schedule.scheduling_seconds)
        stats = scheduler.last_cache_stats
    return best, stats, schedule.assignments


def bench_one(name: str, n: int, m: int, repeats: int) -> dict:
    problem = engine_oracle_problem(n, m, seed=0)
    make = scheduler_factory(name, n)

    uncached_s, _, reference = _time_schedule(make, problem, False, repeats)
    cold_s, cold_stats, cold_asg = _time_schedule(make, problem, True,
                                                  repeats)

    # Warm: one priming run fills the shared oracle, then the recurring
    # batch is re-scheduled against it (steady-state dispatch).
    shared = CachingCostModel(problem.cost_model)
    make(shared).schedule(problem)
    primed = shared.stats()
    warm_s, warm_stats, warm_asg = _time_schedule(make, problem, shared,
                                                  repeats)
    # last_cache_stats is cumulative over the shared cache's lifetime;
    # report the warm runs' own hit rate by diffing out the priming run.
    if warm_stats is not None:
        hits = warm_stats["hits"] - primed["hits"]
        misses = warm_stats["misses"] - primed["misses"]
        lookups = hits + misses
        warm_stats = {
            "hits": hits,
            "misses": misses,
            "entries": warm_stats["entries"],
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    if cold_asg != reference or warm_asg != reference:
        raise AssertionError(
            f"{name} n={n}: cached schedule differs from uncached")

    return {
        "n": n,
        "m": m,
        "uncached_s": uncached_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup_cold": uncached_s / cold_s if cold_s > 0 else float("inf"),
        "speedup_warm": uncached_s / warm_s if warm_s > 0 else float("inf"),
        "cold_cache": cold_stats,
        "warm_cache": warm_stats,
    }


def bench_vector(name: str, n: int, m: int, repeats: int) -> dict:
    """Scalar vs vectorized scheduling time on the camera workload."""
    problem = uniform_camera_workload(n, m, seed=0)
    factory = {"SRFAE": SrfaeScheduler, "LERFA+SRFE": LerfaSrfeScheduler}[name]
    # The scalar walk at 4000x1000 runs minutes; one timing is plenty.
    scalar_repeats = repeats if n <= 400 else 1
    scalar_s = float("inf")
    for _ in range(scalar_repeats):
        schedule = factory(0).schedule(problem)
        scalar_s = min(scalar_s, schedule.scheduling_seconds)
    reference = schedule.assignments
    vector_s = float("inf")
    for _ in range(repeats):
        schedule = factory(0, vectorize=True).schedule(problem)
        vector_s = min(vector_s, schedule.scheduling_seconds)
    return {
        "n": n,
        "m": m,
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
        "identical": schedule.assignments == reference,
    }


def bench_incremental(n: int, m: int, repeats: int) -> dict:
    """Warm-start re-schedule vs full re-schedule, 10% of devices dirty.

    Mirrors the dispatcher's steady state: one adapter + shared memo
    cache persist across batches; between batches 10% of the devices
    moved (their statuses perturbed, their cache entries invalidated),
    the rest are exactly where the previous schedule left them.
    """
    problem = engine_oracle_problem(n, m, seed=0)
    adapter = problem.cost_model
    devices = adapter._devices
    base = {device_id: dict(adapter.initial_status(device_id))
            for device_id in problem.device_ids}
    rng = random.Random(1)
    dirty = rng.sample(list(problem.device_ids),
                       max(1, int(m * DIRTY_FRACTION)))

    def statuses(perturbed: bool) -> dict:
        out = {device_id: dict(status)
               for device_id, status in base.items()}
        if perturbed:
            for device_id in dirty:
                out[device_id]["pan"] = out[device_id].get("pan", 0.0) + 17.0
        return out

    # Identity: an unchanged recurring batch must equal a full run
    # bit-for-bit (this is the correctness half of the gate).
    adapter.rebind(devices, statuses(False))
    warm = IncrementalScheduler(SrfaeScheduler(0))
    first = warm.schedule(problem)
    second = warm.schedule(problem)
    reference = SrfaeScheduler(0).schedule(problem)
    unchanged_identical = (
        first.assignments == reference.assignments
        and second.assignments == reference.assignments)

    # Baseline: the full re-schedule the dispatcher would otherwise run
    # on the perturbed batch (default per-schedule cold cache).
    adapter.rebind(devices, statuses(True))
    full_s = float("inf")
    for _ in range(repeats):
        schedule = SrfaeScheduler(0).schedule(problem)
        full_s = min(full_s, schedule.scheduling_seconds)

    # Incremental: prime on the base statuses, perturb + signal the
    # dirty devices, re-schedule warm. Re-primed per repeat so every
    # timing sees the same previous-batch state.
    incremental_s = float("inf")
    for _ in range(repeats):
        cache = CachingCostModel(adapter, track_devices=True)
        warm = IncrementalScheduler(SrfaeScheduler(0), cost_cache=cache)
        adapter.rebind(devices, statuses(False))
        warm.schedule(problem)
        adapter.rebind(devices, statuses(True))
        for device_id in dirty:
            warm.mark_dirty(device_id)
            cache.invalidate_device(device_id)
        schedule = warm.schedule(problem)
        incremental_s = min(incremental_s, schedule.scheduling_seconds)
    schedule.validate(problem)

    return {
        "n": n,
        "m": m,
        "algorithm": "SRFAE",
        "dirty_devices": len(dirty),
        "dirty_fraction": DIRTY_FRACTION,
        "full_s": full_s,
        "incremental_s": incremental_s,
        "speedup": (full_s / incremental_s if incremental_s > 0
                    else float("inf")),
        "unchanged_identical": unchanged_identical,
        "last_batch": {
            "reused": warm.stats.reused_requests,
            # Minus the priming full run's n re-placements.
            "replaced": warm.stats.replaced_requests - n,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size only, single repeat (CI)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best-of)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    sizes = SMOKE_SIZES if args.smoke else SIZES
    repeats = 1 if args.smoke else args.repeats

    results: dict = {}
    rows = []
    for n, m in sizes:
        for name in ALGORITHM_ORDER:
            cell = bench_one(name, n, m, repeats)
            results.setdefault(name, {})[f"{n}x{m}"] = cell
            hit_rate = (cell["warm_cache"] or {}).get("hit_rate", 0.0)
            rows.append((name, f"{n}x{m}",
                         cell["uncached_s"] * 1e3, cell["cold_s"] * 1e3,
                         cell["warm_s"] * 1e3, cell["speedup_warm"],
                         hit_rate))
            print(f"  {name:>10} {n}x{m}: uncached {cell['uncached_s']:.3f}s"
                  f"  warm {cell['warm_s']:.3f}s"
                  f"  ({cell['speedup_warm']:.1f}x)", flush=True)

    # ------------------------------------------------------------------
    # Vector section (skipped without numpy: the scalar default ships)
    # ------------------------------------------------------------------
    vector_results: dict = {}
    vector_identical = None
    if HAVE_NUMPY:
        vector_identical = True
        vector_sizes = VECTOR_SMOKE_SIZES if args.smoke else VECTOR_SIZES
        for n, m in vector_sizes:
            for name in VECTOR_TARGETS:
                cell = bench_vector(name, n, m, repeats)
                vector_results.setdefault(name, {})[f"{n}x{m}"] = cell
                vector_identical = vector_identical and cell["identical"]
                print(f"  {name:>10} {n}x{m} vector: "
                      f"scalar {cell['scalar_s']:.3f}s"
                      f"  vector {cell['vector_s']:.3f}s"
                      f"  ({cell['speedup']:.1f}x, identical="
                      f"{cell['identical']})", flush=True)
    else:
        print("  vector section skipped: numpy not installed", flush=True)

    # ------------------------------------------------------------------
    # Incremental section
    # ------------------------------------------------------------------
    inc_n, inc_m = INCREMENTAL_SMOKE_SIZE if args.smoke else INCREMENTAL_SIZE
    incremental_cell = bench_incremental(inc_n, inc_m, repeats)
    print(f"  incremental {inc_n}x{inc_m} "
          f"({incremental_cell['dirty_devices']} dirty): "
          f"full {incremental_cell['full_s']:.3f}s"
          f"  warm {incremental_cell['incremental_s']:.4f}s"
          f"  ({incremental_cell['speedup']:.1f}x, identical="
          f"{incremental_cell['unchanged_identical']})", flush=True)

    # ------------------------------------------------------------------
    # The gate: equivalence always counts; speedup floors on full runs
    # ------------------------------------------------------------------
    gate_size = "x".join(map(str, sizes[-1]))
    acceptance = {
        f"{name}@{gate_size}": round(
            results[name][gate_size]["speedup_warm"], 2)
        for name in GATED_ALGORITHMS
    }
    equivalence = {
        # bench_one raises on any cached-vs-uncached mismatch, so
        # reaching this point proves transparency for every cell.
        "cache_transparent": True,
        "vector_identical": vector_identical,
        "incremental_identity": incremental_cell["unchanged_identical"],
    }
    # None-valued equivalence checks (e.g. vector identity without
    # numpy) are skipped, not silently passed or failed.
    gates = {name: value for name, value in equivalence.items()
             if value is not None}
    vector_acceptance = None
    incremental_acceptance = None
    if not args.smoke:
        gates["oracle_speedup"] = all(
            results[name][gate_size]["speedup_warm"] >= TARGET_SPEEDUP
            for name in GATED_ALGORITHMS)
        vector_size = "x".join(map(str, VECTOR_SIZES[-1]))
        if HAVE_NUMPY:
            vector_acceptance = {
                f"{name}@{vector_size}": round(
                    vector_results[name][vector_size]["speedup"], 2)
                for name in VECTOR_TARGETS}
            gates["vector_speedup"] = all(
                vector_results[name][vector_size]["speedup"] >= floor
                for name, floor in VECTOR_TARGETS.items())
        incremental_acceptance = {
            f"SRFAE@{inc_n}x{inc_m}": round(incremental_cell["speedup"], 2),
            "target": INCREMENTAL_TARGET}
        gates["incremental_speedup"] = \
            incremental_cell["speedup"] >= INCREMENTAL_TARGET

    payload = {
        "benchmark": "bench_perf_regression",
        "workload": ("photo() batches costed by the engine CostModel via "
                     "_ActionCostAdapter (resolver + profile estimation "
                     "per call)"),
        "modes": {
            "uncached": "cost_cache=False (pre-oracle behaviour)",
            "cold": "fresh per-schedule CachingCostModel",
            "warm": ("shared persistent CachingCostModel across schedules "
                     "of the recurring batch (steady-state dispatch)"),
            "vector": ("vectorize=True numpy column kernel vs the scalar "
                       "walk, calibrated camera workload"),
            "incremental": ("IncrementalScheduler warm re-schedule vs full "
                            f"re-schedule, {DIRTY_FRACTION:.0%} of devices "
                            "dirty, engine-oracle workload"),
        },
        "smoke": args.smoke,
        "numpy": HAVE_NUMPY,
        "timing": f"best of {repeats} repeat(s), scheduling_seconds",
        "target_speedup": TARGET_SPEEDUP,
        "vector_targets": VECTOR_TARGETS,
        "incremental_target": INCREMENTAL_TARGET,
        "gate": {"size": gate_size, "algorithms": list(GATED_ALGORITHMS),
                 "speedups": acceptance,
                 "vector": vector_acceptance,
                 "incremental": incremental_acceptance,
                 "equivalence": equivalence},
        "results": results,
        "vector_results": vector_results,
        "incremental_result": incremental_cell,
    }
    exit_code = write_result(JSON_PATH, payload, gates)

    table = format_table(
        ("algorithm", "size", "uncached ms", "cold ms", "warm ms",
         "warm speedup", "warm hit rate"), rows)
    scope = ("equivalence only (smoke)" if args.smoke
             else "equivalence + speedup floors")
    verdict = (f"gate [{scope}]: {'PASS' if exit_code == 0 else 'FAIL'} "
               f"oracle={acceptance} vector={vector_acceptance} "
               f"incremental={incremental_acceptance} "
               f"equivalence={equivalence}")
    record("perf_regression",
           "Scheduling-time regression: oracle, vector, incremental",
           table + "\n\n" + verdict +
           f"\nJSON: {os.path.relpath(result_path(JSON_PATH, args.smoke))}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
