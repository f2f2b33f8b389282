"""The memoizing cost oracle: keying, transparency, incremental SA.

The load-bearing property here is *observational transparency*: with a
deterministic inner model, every scheduler must produce byte-identical
schedules with the cache on and off, and SA's incremental evaluator
must agree bit-for-bit with a full re-walk — otherwise the perf work
would silently change the paper's reproduced figures.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.scheduling import (
    CachingCostModel,
    LerfaSrfeScheduler,
    ListScheduler,
    Problem,
    RandomScheduler,
    SAParameters,
    SchedRequest,
    SimulatedAnnealingScheduler,
    SrfaeScheduler,
    StaticCostModel,
    freeze_status,
    uniform_camera_workload,
)
from repro.scheduling.simulated_annealing import IncrementalMakespan

TINY_SA = SAParameters(moves_per_temperature_per_request=4,
                       max_evaluations=400)

SCHEDULER_FACTORIES = (
    lambda cache: LerfaSrfeScheduler(0, cost_cache=cache),
    lambda cache: SrfaeScheduler(0, cost_cache=cache),
    lambda cache: ListScheduler(0, cost_cache=cache),
    lambda cache: SimulatedAnnealingScheduler(0, parameters=TINY_SA,
                                              cost_cache=cache),
    lambda cache: RandomScheduler(0, cost_cache=cache),
)


# ----------------------------------------------------------------------
# freeze_status keying
# ----------------------------------------------------------------------
def test_freeze_status_dicts_are_value_keyed():
    a = freeze_status({"pan": 10.0, "tilt": -5.0})
    b = freeze_status({"tilt": -5.0, "pan": 10.0})  # other insert order
    assert a == b
    assert hash(a) == hash(b)
    assert freeze_status({"pan": 10.0, "tilt": 0.0}) != a


def test_freeze_status_nested_structures():
    status = {"head": {"pan": 1.0, "tilt": 2.0}, "queue": [1, 2],
              "flags": {"busy"}}
    frozen = freeze_status(status)
    hash(frozen)
    assert frozen == freeze_status(
        {"queue": [1, 2], "flags": {"busy"}, "head": {"tilt": 2.0, "pan": 1.0}})


def test_freeze_status_passes_through_hashables():
    assert freeze_status(3.5) == 3.5
    assert freeze_status("idle") == "idle"
    assert freeze_status(None) is None


def test_freeze_status_rejects_unhashable_objects():
    class Opaque:
        __hash__ = None

    with pytest.raises(SchedulingError):
        freeze_status(Opaque())


# ----------------------------------------------------------------------
# CachingCostModel unit behaviour
# ----------------------------------------------------------------------
def _static_problem():
    costs = {("r1", "d1"): 2.0, ("r1", "d2"): 3.0,
             ("r2", "d1"): 1.0, ("r2", "d2"): 4.0}
    return Problem(
        requests=(SchedRequest("r1", ("d1", "d2")),
                  SchedRequest("r2", ("d1", "d2"))),
        device_ids=("d1", "d2"),
        cost_model=StaticCostModel(costs),
    )


def test_cache_counts_hits_and_misses():
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    request = problem.requests[0]
    status = cache.initial_status("d1")
    first = cache.estimate(request, "d1", status)
    second = cache.estimate(request, "d1", status)
    assert first == second
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.entries == 1
    stats = cache.stats()
    assert stats["hit_rate"] == pytest.approx(0.5)
    cache.clear()
    assert cache.entries == 0
    assert cache.stats()["hits"] == 0


def test_cache_accepts_dict_statuses():
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    request = problem.requests[0]
    cache.estimate(request, "d1", {"pan": 0.0, "tilt": 1.0})
    cache.estimate(request, "d1", {"tilt": 1.0, "pan": 0.0})
    assert (cache.hits, cache.misses) == (1, 1)


def test_cache_payload_identity_guard():
    """Same request id, different payload object: a miss, not a lie."""
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    status = cache.initial_status("d1")
    cache.estimate(SchedRequest("r1", ("d1",), payload=("batch", 1)),
                   "d1", status)
    cache.estimate(SchedRequest("r1", ("d1",), payload=("batch", 2)),
                   "d1", status)
    assert cache.hits == 0
    assert cache.misses == 2


def test_cache_refuses_nesting_and_nondeterminism():
    problem = _static_problem()
    cache = CachingCostModel(problem.cost_model)
    with pytest.raises(SchedulingError):
        CachingCostModel(cache)
    noisy = uniform_camera_workload(4, 2, seed=0, estimate_noise=0.1)
    assert not noisy.cost_model.deterministic
    with pytest.raises(SchedulingError):
        CachingCostModel(noisy.cost_model)


def test_auto_policy_follows_the_models_hint():
    """"auto" caches only models that opt in via cache_by_default."""
    cheap = uniform_camera_workload(6, 2, seed=0)
    assert not cheap.cost_model.cache_by_default
    scheduler = LerfaSrfeScheduler(0)  # default cost_cache="auto"
    scheduler.schedule(cheap)
    assert scheduler.last_cache_stats is None

    class OptIn(StaticCostModel):
        cache_by_default = True

    costs = {("r1", "d1"): 2.0, ("r2", "d1"): 1.0}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1",)), SchedRequest("r2", ("d1",))),
        device_ids=("d1",), cost_model=OptIn(costs))
    scheduler = LerfaSrfeScheduler(0)
    scheduler.schedule(problem)
    assert scheduler.last_cache_stats is not None

    forced = LerfaSrfeScheduler(0, cost_cache=True)
    forced.schedule(cheap)
    assert forced.last_cache_stats is not None


def test_auto_policy_skips_algorithms_that_never_reuse_estimates():
    """SRFAE declares it asks for each estimate once, so "auto" leaves
    even an opted-in model bare; forcing or sharing a cache still wraps
    it."""
    class OptIn(StaticCostModel):
        cache_by_default = True

    costs = {("r1", "d1"): 2.0, ("r2", "d1"): 1.0}
    problem = Problem(
        requests=(SchedRequest("r1", ("d1",)), SchedRequest("r2", ("d1",))),
        device_ids=("d1",), cost_model=OptIn(costs))
    assert not SrfaeScheduler.reuses_estimates
    assert LerfaSrfeScheduler.reuses_estimates
    bare = SrfaeScheduler(0)
    bare.schedule(problem)
    assert bare.last_cache_stats is None
    forced = SrfaeScheduler(0, cost_cache=True)
    forced.schedule(problem)
    assert forced.last_cache_stats is not None
    shared = CachingCostModel(problem.cost_model)
    SrfaeScheduler(0, cost_cache=shared).schedule(problem)
    assert shared.misses > 0


def test_schedulers_skip_caching_noisy_models():
    noisy = uniform_camera_workload(6, 2, seed=0, estimate_noise=0.1)
    scheduler = LerfaSrfeScheduler(0, cost_cache=True)
    scheduler.schedule(noisy)
    assert scheduler.last_cache_stats is None


def test_shared_cache_must_wrap_the_problems_model():
    problem = _static_problem()
    other = _static_problem()
    shared = CachingCostModel(other.cost_model)
    with pytest.raises(SchedulingError):
        LerfaSrfeScheduler(0, cost_cache=shared).schedule(problem)


def test_shared_cache_warm_run_hits_everything():
    problem = uniform_camera_workload(12, 4, seed=3)
    shared = CachingCostModel(problem.cost_model)
    SrfaeScheduler(0, cost_cache=shared).schedule(problem)
    primed = shared.stats()
    scheduler = SrfaeScheduler(0, cost_cache=shared)
    warm = scheduler.schedule(problem)
    assert shared.misses == primed["misses"]  # zero new misses
    reference = SrfaeScheduler(0, cost_cache=False).schedule(problem)
    assert warm.assignments == reference.assignments


# ----------------------------------------------------------------------
# Observational transparency: cache on == cache off, all five
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 14), m=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_all_schedulers_identical_with_cache_on_and_off(n, m, seed):
    problem = uniform_camera_workload(n, m, seed=seed)
    for factory in SCHEDULER_FACTORIES:
        cached = factory(True).schedule(problem)
        uncached = factory(False).schedule(problem)
        assert cached.assignments == uncached.assignments


# ----------------------------------------------------------------------
# SA incremental evaluator == full re-walk
# ----------------------------------------------------------------------
def _full_completions(problem, solution):
    scheduler = SimulatedAnnealingScheduler(0)
    return {device_id: scheduler._device_completion(problem, device_id,
                                                    queue)
            for device_id, queue in solution.items()}


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 12), m=st.integers(2, 4),
       seed=st.integers(0, 500), moves=st.integers(1, 40))
def test_incremental_makespan_matches_full_walk(n, m, seed, moves):
    problem = uniform_camera_workload(n, m, seed=seed)
    rng = random.Random(seed)
    solution = {device_id: [] for device_id in problem.device_ids}
    for request in problem.requests:
        solution[rng.choice(request.candidates)].append(request)
    evaluator = IncrementalMakespan(problem, solution)

    for _ in range(moves):
        # A random relocate, committed or undone at random — both paths
        # must leave the evaluator consistent with a full re-walk.
        request = rng.choice(problem.requests)
        source = next(d for d, q in solution.items() if request in q)
        target = rng.choice(request.candidates)
        source_index = solution[source].index(request)
        solution[source].pop(source_index)
        target_index = rng.randint(0, len(solution[target]))
        solution[target].insert(target_index, request)
        if source == target:
            touched = {source: min(source_index, target_index)}
        else:
            touched = {source: source_index, target: target_index}
        new_makespan, tails = evaluator.preview(touched)

        expected = _full_completions(problem, solution)
        assert new_makespan == max(expected.values())

        if rng.random() < 0.5:
            evaluator.commit(new_makespan, tails)
            assert evaluator.completions == expected
            assert evaluator.makespan == max(expected.values())
        else:
            solution[target].remove(request)
            solution[source].insert(source_index, request)
            assert evaluator.completions == _full_completions(problem,
                                                              solution)
