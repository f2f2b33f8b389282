"""Engine configuration."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import AortaError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.devices.health import HealthPolicy
    from repro.overload.policy import OverloadPolicy

#: Scheduler names accepted by EngineConfig.scheduler.
SCHEDULER_NAMES = ("LERFA+SRFE", "SRFAE", "LS", "SA", "RANDOM")

#: Runtime backend names accepted by EngineConfig.runtime (mirrors
#: repro.runtime.RUNTIME_NAMES; duplicated to keep config importable
#: without the runtime package).
RUNTIME_NAMES = ("virtual", "realtime")

#: Worker backends accepted by EngineConfig.parallel_backend:
#: "process" spawns one interpreter per shard (true parallelism),
#: "thread" runs workers as threads of the coordinator process (the
#: portable fallback: identical protocol and determinism, no
#: GIL-escaping speedup).
PARALLEL_BACKENDS = ("process", "thread")


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher reacts to transient execution failures.

    The default policy is the pre-fault-tolerance behaviour: one attempt
    per assignment, no failover — a failed request is final. Enabling
    retries makes the dispatcher re-run a transiently failed action on
    its assigned device after an exponential backoff; enabling failover
    makes a request whose device failed re-enter the next batch with
    that device removed from its candidate set, so the scheduler
    reassigns it to a surviving candidate.
    """

    #: Execution attempts per device assignment (1 = no retries).
    max_attempts: int = 1
    #: First-retry backoff, in virtual seconds.
    backoff_base: float = 0.5
    #: Multiplier applied to the backoff on each further retry.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff wait.
    backoff_max: float = 30.0
    #: Backoff randomization, as a fraction of the nominal wait (0.1 =
    #: +/-10%). Drawn from the dispatcher's named sim RNG stream, so
    #: runs are exactly repeatable.
    jitter: float = 0.1
    #: Re-dispatch a request to surviving candidates when its device
    #: fails (the failed device is removed from the candidate set).
    failover: bool = False
    #: Total times one request may enter a batch (1 = never re-enters).
    max_dispatches: int = 4

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AortaError("retry max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise AortaError("retry backoff must be non-negative")
        if self.backoff_factor < 1.0:
            raise AortaError("retry backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise AortaError("retry jitter must be in [0, 1)")
        if self.max_dispatches < 1:
            raise AortaError("retry max_dispatches must be >= 1")

    @property
    def enabled(self) -> bool:
        """Whether any fault-tolerance behaviour is switched on."""
        return self.max_attempts > 1 or self.failover

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Wait before retry number ``attempt`` (1-based), jittered."""
        nominal = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max)
        if self.jitter:
            nominal *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return nominal


@dataclass
class EngineConfig:
    """Tunables of one engine instance.

    ``synchronization`` switches the Section 4 mechanisms (device
    locking + probing) on or off — off reproduces the unsynchronized
    failure study of Section 6.2.
    """

    #: Seconds between event-scan polls of the continuous executor.
    poll_interval: float = 1.0
    #: Seconds the dispatcher waits after a first request so that
    #: near-simultaneous requests from concurrent queries batch into one
    #: scheduling problem (the shared-operator group optimization).
    batch_window: float = 0.1
    #: Device locking: one action at a time per device.
    locking: bool = True
    #: Probe candidates (availability + status) before optimization.
    probing: bool = True
    #: Emit an event only on a false->true predicate edge per device;
    #: when False, every poll where the predicate holds re-triggers.
    edge_triggered: bool = True
    #: Which scheduling algorithm the dispatcher uses.
    scheduler: str = "SRFAE"
    #: Seed for the scheduler's randomness.
    scheduler_seed: int = 0
    #: Reaction to transient execution failures (default: none, the
    #: pre-fault-tolerance behaviour).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-device circuit-breaker policy; ``None`` disables device
    #: health tracking entirely (no quarantine, no probation probes).
    health: Optional["HealthPolicy"] = None
    #: Lock lease in virtual seconds: a device lock still held this long
    #: after acquisition is forcibly recovered so FIFO waiters proceed
    #: (see DeviceLockManager.recover). ``None`` disables leases.
    lock_lease_seconds: Optional[float] = None
    #: Metrics + span tracing (the repro.obs subsystem). Off by
    #: default; the disabled path is byte-identical to an engine built
    #: before the observability layer existed (benchmark-gated).
    observability: bool = False
    #: Runtime backend the engine builds when no explicit runtime is
    #: passed: "virtual" (discrete-event, default) or "realtime"
    #: (wall-clock paced; see time_scale).
    runtime: str = "virtual"
    #: Realtime pacing: wall seconds per runtime second. 0 fires timers
    #: immediately (deterministic smoke path, trace-identical to the
    #: virtual backend); 1.0 runs in real seconds. Ignored by the
    #: virtual backend.
    time_scale: float = 1.0
    #: Comm fast path, knob 1: keep-alive connection pooling. Probes,
    #: scans and operation executions reuse open control channels
    #: instead of paying the handshake per exchange. Off by default:
    #: the off path is byte-identical to a pre-fastpath engine.
    connection_pool: bool = False
    #: Most idle keep-alive connections retained (LRU-evicted beyond).
    pool_capacity: int = 64
    #: Idle expiry: a pooled connection unused this long (virtual
    #: seconds) is closed on its next checkout attempt.
    pool_idle_seconds: float = 30.0
    #: Comm fast path, knob 2: TTL device-status cache. The dispatcher
    #: skips the probe exchange for devices probed within their type's
    #: freshness TTL, costing from the cached status; entries are
    #: invalidated after any execution on the device, on probe failure
    #: and on health-breaker transitions. Off by default.
    status_cache: bool = False
    #: Fallback freshness TTL (virtual seconds) for device types
    #: without an entry in ``status_ttls``.
    status_ttl_seconds: float = 5.0
    #: Per-type freshness TTL overrides; ``None`` uses the built-in
    #: defaults (:data:`repro.comm.status_cache.DEFAULT_STATUS_TTLS`).
    status_ttls: Optional[Dict[str, float]] = None
    #: Comm fast path, knob 3: run each action's batch as its own sim
    #: process so independent actions' probe/schedule/execute pipelines
    #: overlap instead of draining serially. Off by default.
    concurrent_dispatch: bool = False
    #: Scheduler fast path, knob 1: evaluate cost columns through the
    #: numpy block kernel instead of per-pair Python calls. Requires
    #: numpy (the ``repro[fast]`` extra); byte-identical schedules.
    #: Off by default.
    vectorize: bool = False
    #: Scheduler fast path, knob 2: warm-start recurring batches from
    #: the previous schedule, re-placing only requests touching dirty
    #: devices (health transitions, status-cache invalidations,
    #: executions) and sharing one memoizing cost oracle per action
    #: across batches. Off by default.
    incremental: bool = False
    #: Overload-control plane (repro.overload): admission control at
    #: AQ registration and request ingestion, bounded pending queues
    #: with backpressure, and priority load-shedding with deadlines.
    #: Off by default: the off path is byte-identical to a
    #: pre-overload engine (golden-gated).
    overload: bool = False
    #: Overload-plane tunables; ``None`` uses the defaults of
    #: :class:`~repro.overload.policy.OverloadPolicy`. Only read when
    #: ``overload`` is True.
    overload_policy: Optional["OverloadPolicy"] = None
    #: Number of engine shards the fleet is partitioned across. Only
    #: :class:`~repro.shard.ShardedEngine` honours values above 1 — a
    #: plain :class:`~repro.core.engine.AortaEngine` owns exactly one
    #: partition and refuses a multi-shard config so a sharded config
    #: can never silently run unsharded.
    shards: int = 1
    #: Lockstep bound for multi-shard runs: no shard's clock may lead
    #: the slowest by more than this many runtime seconds. Ignored when
    #: ``shards == 1`` (a single shard runs in one uninterrupted call).
    shard_quantum: float = 1.0
    #: True parallel shard execution: run each shard's lockstep round
    #: concurrently in its own worker instead of stepping shards
    #: sequentially on the coordinator thread. Only
    #: :class:`~repro.shard.ShardedEngine` honours it, and only with
    #: ``shards > 1`` (a 1-shard fleet stays the in-process
    #: pass-through). Off by default: the off path is byte-identical
    #: to the serial lockstep coordinator (benchmark-gated).
    parallel: bool = False
    #: Worker backend for ``parallel=True``: "process" (spawned
    #: interpreters — the wall-clock speedup path) or "thread" (same
    #: command protocol inside the coordinator process — portable, no
    #: speedup). Both replay identical construction commands, so dumps
    #: are byte-identical across backends.
    parallel_backend: str = "process"

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise AortaError("poll_interval must be positive")
        if self.batch_window < 0:
            raise AortaError("batch_window must be non-negative")
        if self.scheduler not in SCHEDULER_NAMES:
            raise AortaError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULER_NAMES}"
            )
        if self.lock_lease_seconds is not None \
                and self.lock_lease_seconds <= 0:
            raise AortaError("lock_lease_seconds must be positive")
        if self.runtime not in RUNTIME_NAMES:
            raise AortaError(
                f"unknown runtime {self.runtime!r}; expected one of "
                f"{RUNTIME_NAMES}"
            )
        if self.time_scale < 0:
            raise AortaError("time_scale must be non-negative")
        if self.pool_capacity < 1:
            raise AortaError("pool_capacity must be >= 1")
        if self.pool_idle_seconds <= 0:
            raise AortaError("pool_idle_seconds must be positive")
        if self.status_ttl_seconds <= 0:
            raise AortaError("status_ttl_seconds must be positive")
        if self.status_ttls is not None:
            for device_type, ttl in self.status_ttls.items():
                if ttl <= 0:
                    raise AortaError(
                        f"status TTL for {device_type!r} must be "
                        f"positive, got {ttl}")
        if self.shards < 1:
            raise AortaError(f"shards must be >= 1, got {self.shards}")
        if self.shard_quantum <= 0:
            raise AortaError("shard_quantum must be positive")
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise AortaError(
                f"unknown parallel_backend {self.parallel_backend!r}; "
                f"expected one of {PARALLEL_BACKENDS}")

    @property
    def synchronization(self) -> bool:
        """Whether both Section 4 mechanisms are active."""
        return self.locking and self.probing

    @property
    def comm_fastpath(self) -> bool:
        """Whether any comm fast-path mechanism is switched on."""
        return (self.connection_pool or self.status_cache
                or self.concurrent_dispatch)

    @property
    def fault_tolerance(self) -> bool:
        """Whether any fault-tolerance mechanism is configured."""
        return self.retry.enabled or self.health is not None
