"""The AortaEngine facade: the whole system behind one object."""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import AortaError, BindingError, QueryError
from repro.actions.action import (
    ActionDefinition,
    ActionImplementation,
    ActionParameter,
)
from repro.actions.builtins import install_builtin_actions
from repro.actions.registry import ActionRegistry
from repro.actions.request import ActionRequest
from repro.comm.layer import CommunicationLayer
from repro.comm.pool import ConnectionPool
from repro.comm.status_cache import DeviceStatusCache
from repro.cost.model import CostModel, QuantityResolver
from repro.devices.base import Device
from repro.devices.camera import PanTiltZoomCamera
from repro.devices.health import BreakerState, DeviceHealthTracker
from repro.geometry import Point
from repro.network.link import LinkModel
from repro.overload import OverloadControlPlane, OverloadPolicy
from repro.plan.planner import Planner, SnapshotPlan
from repro.profiles.action_profile import ActionProfile
from repro.profiles.defaults import register_builtin_types
from repro.query.ast import (
    CreateActionStatement,
    CreateAQStatement,
    DropAQStatement,
    ExplainStatement,
    SelectQuery,
    Statement,
)
from repro.query.catalog import SchemaCatalog
from repro.query.functions import FunctionRegistry, install_standard_functions
from repro.query.parser import parse
from repro.runtime import Runtime, create_runtime
from repro.sim.rng import component_seed
from repro.sync.locks import DeviceLockManager
from repro.core.config import EngineConfig
from repro.core.continuous import ContinuousQueryExecutor, RegisteredQuery
from repro.core.dispatcher import Dispatcher


class AortaEngine:
    """A complete Aorta instance over one simulated environment.

    Typical use::

        env = Environment()
        engine = AortaEngine(env)
        engine.add_device(PanTiltZoomCamera(env, "cam1", Point(0, 0)))
        engine.add_device(SensorMote(env, "mote1", Point(5, 5)))
        engine.execute(FIGURE_1_QUERY)   # CREATE AQ snapshot AS SELECT ...
        engine.start()
        engine.run(until=600.0)          # ten virtual minutes
    """

    def __init__(
        self,
        env: Optional[Runtime] = None,
        *,
        config: Optional[EngineConfig] = None,
        links: Optional[Dict[str, LinkModel]] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or EngineConfig()
        if self.config.shards != 1:
            raise AortaError(
                f"AortaEngine owns exactly one shard; a config with "
                f"shards={self.config.shards} needs "
                f"repro.shard.ShardedEngine")
        #: The runtime backend everything runs on. An explicit ``env``
        #: wins; otherwise the config's ``runtime``/``time_scale``
        #: selection builds one (default: virtual time).
        self.env = env if env is not None else create_runtime(
            self.config.runtime, time_scale=self.config.time_scale)
        #: Master seed; every component RNG is a named substream of it
        #: (see repro.sim.rng.component_seed).
        self.seed = seed
        self.comm = CommunicationLayer(
            self.env, links=links,
            rng=random.Random(component_seed(seed, "comm:transport")))
        register_builtin_types(self.comm)

        self.schema = SchemaCatalog()
        self.cost_model = CostModel()
        for device_type in self.comm.registered_types():
            self.schema.register_table(self.comm.catalog(device_type))
            self.cost_model.register_cost_table(
                self.comm.cost_table(device_type))

        self.actions = ActionRegistry()
        install_builtin_actions(self.actions, self.cost_model)

        self.functions = FunctionRegistry()
        install_standard_functions(self.functions)
        self.functions.register("coverage", self._coverage, arity=2)

        from repro.core.tracing import EngineTracer
        from repro.obs import Observability
        self.tracer = EngineTracer()
        #: Metrics registry + span recorder (disabled unless
        #: config.observability); threaded through every component.
        self.obs = Observability(self.env, tracer=self.tracer,
                                 enabled=self.config.observability)
        self.comm.transport.obs = self.obs
        self.comm.prober.obs = self.obs
        #: Comm fast path (DESIGN.md decision 10). Both pieces are None
        #: unless their config knob is on, and the off path is
        #: byte-identical to a pre-fastpath engine.
        self.pool: Optional[ConnectionPool] = None
        if self.config.connection_pool:
            self.pool = ConnectionPool(
                self.env, self.comm.transport,
                capacity=self.config.pool_capacity,
                idle_seconds=self.config.pool_idle_seconds,
                obs=self.obs)
            self.comm.transport.pool = self.pool
        self.status_cache: Optional[DeviceStatusCache] = None
        if self.config.status_cache:
            self.status_cache = DeviceStatusCache(
                self.env,
                default_ttl=self.config.status_ttl_seconds,
                ttls=self.config.status_ttls,
                obs=self.obs)
        self.locks = DeviceLockManager(self.env, obs=self.obs)
        #: Per-device circuit breakers; None when health tracking is
        #: not configured. The prober feeds it probe outcomes and the
        #: dispatcher feeds it execution outcomes.
        self.health: Optional[DeviceHealthTracker] = None
        if self.config.health is not None:
            self.health = DeviceHealthTracker(self.env, self.config.health,
                                              tracer=self.tracer,
                                              obs=self.obs)
            self.comm.prober.health = self.health
            if self.pool is not None or self.status_cache is not None:
                # Breaker transitions make a device's last-known state
                # untrustworthy: drop its pooled channel and cached
                # status so nothing is reused across a quarantine edge.
                self.health.transition_listeners.append(
                    self._on_breaker_transition)
        #: Overload-control plane (DESIGN.md decision 12); None unless
        #: config.overload, and the off path is byte-identical to a
        #: pre-overload engine.
        self.overload: Optional[OverloadControlPlane] = None
        if self.config.overload:
            policy = self.config.overload_policy or OverloadPolicy()
            self.overload = OverloadControlPlane(
                self.env, policy, self.cost_model,
                device_lookup=self.comm.registry.get,
                fleet_size=lambda: len(self.comm.registry),
                tracer=self.tracer, obs=self.obs)
        self.dispatcher = Dispatcher(self.env, self.comm, self.cost_model,
                                     self.locks, self.config,
                                     tracer=self.tracer,
                                     health=self.health,
                                     obs=self.obs,
                                     status_cache=self.status_cache,
                                     overload=self.overload)
        self.planner = Planner(self.schema, self.actions, self.functions,
                               self.comm)
        self.continuous = ContinuousQueryExecutor(
            self.env, self.comm, self.functions, self.dispatcher,
            self.config)

        #: Assets for CREATE ACTION: profile path -> (profile, resolver,
        #: device-parameter map, select_all flag).
        self._profile_assets: Dict[
            str, Tuple[ActionProfile, QuantityResolver,
                       Dict[str, str], bool]] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------
    def add_device(self, device: Device) -> Device:
        """Admit one device to the network."""
        self.comm.add_device(device)
        return device

    def add_devices(self, devices: List[Device]) -> None:
        """Admit several devices."""
        for device in devices:
            self.add_device(device)

    def _on_breaker_transition(self, device_id: str,
                               state: "BreakerState") -> None:
        """Invalidate fast-path state on any circuit-breaker edge."""
        reason = f"breaker-{state.value}"
        if self.pool is not None:
            self.pool.invalidate(device_id, reason=reason)
        if self.status_cache is not None:
            self.status_cache.invalidate(device_id, reason=reason)

    # ------------------------------------------------------------------
    # Built-in function needing engine context
    # ------------------------------------------------------------------
    def _coverage(self, camera_id: str, location: Any) -> bool:
        """The paper's coverage(camera_id, location) Boolean function."""
        if camera_id not in self.comm.registry:
            return False
        device = self.comm.registry.get(camera_id)
        if not isinstance(device, PanTiltZoomCamera):
            raise QueryError(
                f"coverage() expects a camera, {camera_id!r} is a "
                f"{device.device_type}"
            )
        return device.covers(Point(location.x, location.y))

    # ------------------------------------------------------------------
    # User-defined action assets (the pre-registration steps)
    # ------------------------------------------------------------------
    def install_action_code(self, library_path: str,
                            implementation: ActionImplementation) -> None:
        """Install the executable a CREATE ACTION library path names.

        This is the reproduction's stand-in for "the user must
        pre-compile the code block of the action into a dynamically
        linked library" (Section 2.2).
        """
        self.actions.library.install(library_path, implementation)

    def install_action_profile(
        self,
        profile_path: str,
        profile: ActionProfile,
        resolver: QuantityResolver,
        *,
        device_parameters: Optional[Dict[str, str]] = None,
        select_all: bool = False,
    ) -> None:
        """Install the profile a CREATE ACTION PROFILE path names.

        ``device_parameters`` maps parameter names to the device static
        attribute that identifies the target device (e.g.
        ``{"phone_no": "number"}``). ``select_all=True`` makes the
        action execute on every candidate instead of the cost-optimal
        one (see :class:`~repro.actions.ActionDefinition`).
        """
        if profile_path in self._profile_assets:
            raise AortaError(
                f"profile path {profile_path!r} already installed")
        self._profile_assets[profile_path] = (
            profile, resolver, dict(device_parameters or {}), select_all)

    # ------------------------------------------------------------------
    # The declarative interface
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Any:
        """Execute one statement of the declarative interface.

        Returns the registered :class:`ActionDefinition` for CREATE
        ACTION, the :class:`RegisteredQuery` for CREATE AQ, ``None`` for
        DROP AQ, and a :class:`SnapshotPlan` for plain SELECT (drive it
        with :meth:`run_select`, or execute it inside a running
        simulation).
        """
        return self.execute_statement(parse(sql))

    def execute_statement(self, statement: Statement) -> Any:
        if isinstance(statement, ExplainStatement):
            return self._explain(statement.target)
        if isinstance(statement, CreateActionStatement):
            return self._create_action(statement)
        if isinstance(statement, CreateAQStatement):
            return self._create_aq(statement)
        if isinstance(statement, DropAQStatement):
            self.continuous.drop(statement.name)
            return None
        if isinstance(statement, SelectQuery):
            return self.planner.plan_snapshot(statement)
        raise QueryError(
            f"unsupported statement {type(statement).__name__}")

    def _explain(self, statement: Statement) -> str:
        """Render a statement's plan without executing or registering."""
        if isinstance(statement, CreateAQStatement):
            plan = self.planner.plan_continuous(statement.name,
                                                statement.query)
            return plan.describe()
        if isinstance(statement, SelectQuery):
            return self.planner.plan_snapshot(statement).describe()
        raise QueryError(
            f"EXPLAIN supports SELECT and CREATE AQ, not "
            f"{type(statement).__name__}"
        )

    def _create_action(
        self, statement: CreateActionStatement
    ) -> ActionDefinition:
        implementation = self.actions.library.resolve(statement.library_path)
        if statement.profile_path not in self._profile_assets:
            raise BindingError(
                f"no profile installed for path "
                f"{statement.profile_path!r}; call install_action_profile "
                f"before CREATE ACTION references it"
            )
        profile, resolver, device_parameters, select_all = (
            self._profile_assets[statement.profile_path])
        if profile.action_name != statement.name:
            raise BindingError(
                f"profile at {statement.profile_path!r} is for action "
                f"{profile.action_name!r}, not {statement.name!r}"
            )
        parameters = tuple(
            ActionParameter(
                name=decl.name,
                type_name=decl.type_name,
                device_attribute=device_parameters.get(decl.name, ""),
            )
            for decl in statement.parameters
        )
        definition = ActionDefinition(
            name=statement.name,
            device_type=profile.device_type,
            parameters=parameters,
            implementation=implementation,
            profile=profile,
            resolver=resolver,
            library_path=statement.library_path,
            profile_path=statement.profile_path,
            select_all=select_all,
        )
        self.actions.register(definition)
        self.cost_model.register_action(profile, resolver)
        return definition

    def _create_aq(self, statement: CreateAQStatement) -> RegisteredQuery:
        plan = self.planner.plan_continuous(statement.name, statement.query)
        return self.continuous.register(plan)

    def create_aq(self, sql: str, *, priority: int = 1,
                  deadline_seconds: Optional[float] = None,
                  ) -> RegisteredQuery:
        """CREATE AQ with an overload-control service class.

        Like :meth:`execute` on a CREATE AQ statement, but stamps the
        query's priority tier and relative service deadline (virtual
        seconds from emission) onto every request it emits. The class
        only influences behaviour when ``config.overload`` is on; with
        admission rate limits configured, registration itself may be
        refused with :class:`~repro.errors.AdmissionError`.
        """
        statement = parse(sql)
        if not isinstance(statement, CreateAQStatement):
            raise QueryError("create_aq() expects a CREATE AQ statement")
        plan = self.planner.plan_continuous(statement.name, statement.query)
        return self.continuous.register(plan, priority=priority,
                                        deadline_seconds=deadline_seconds)

    def enable_query(self, name: str) -> None:
        """Resume a paused continuous query."""
        self._query(name).enabled = True

    def disable_query(self, name: str) -> None:
        """Pause a continuous query without dropping it.

        Its event-edge memory is preserved; re-enabling resumes exactly
        where detection left off.
        """
        self._query(name).enabled = False

    def _query(self, name: str):
        if name not in self.continuous.queries:
            raise QueryError(f"no registered query {name!r}")
        return self.continuous.queries[name]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the continuous executor and the dispatcher."""
        if self._started:
            raise AortaError("engine already started")
        self._started = True
        self.dispatcher.start()
        self.continuous.start()
        if self.overload is not None:
            self.overload.start()

    def run(self, until: float,
            max_events: Optional[int] = None) -> float:
        """Advance the runtime to time ``until``.

        ``max_events`` caps how many events this call may process;
        exceeding it raises :class:`~repro.errors.SimulationError` with
        queue diagnostics instead of looping forever on a runaway
        process (useful as a watchdog in tests and services).
        """
        with self.obs.span("engine.run"):
            stopped = self.env.run(until=until, max_events=max_events)
        self.obs.inc("engine.runs")
        return stopped

    def run_select(self, sql: str) -> List[Tuple[Any, ...]]:
        """Convenience: execute a snapshot SELECT to completion.

        Only valid when the caller owns the simulation loop (e.g.
        scripts and tests) — it drains the event queue.
        """
        plan = self.execute(sql)
        if not isinstance(plan, SnapshotPlan):
            raise QueryError("run_select() only executes SELECT statements")
        rows: List[Tuple[Any, ...]] = []

        def runner(env: Runtime) -> Generator[Any, Any, None]:
            result = yield from plan.execute()
            rows.extend(result)

        self.env.process(runner(self.env))
        self.env.run()
        return rows

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def completed_requests(self) -> List[ActionRequest]:
        """Every action request that finished dispatch, oldest first."""
        return self.dispatcher.completed

    def device_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-device utilization snapshot.

        Reports what the paper's objective cares about — how evenly the
        action workload landed on the devices ("balance the action
        workload on all available devices and improve device
        utilization", Section 5.1).
        """
        horizon = self.env.now
        report: Dict[str, Dict[str, Any]] = {}
        for device in self.comm.registry:
            report[device.device_id] = {
                "device_type": device.device_type,
                "state": device.state.value,
                "operations": device.operations_executed,
                "busy_seconds": device.busy_seconds,
                "utilization": (device.busy_seconds / horizon
                                if horizon > 0 else 0.0),
            }
        return report

    def metrics(self) -> Dict[str, Any]:
        """The deterministic metric snapshot of this engine's registry.

        Sections are empty while ``config.observability`` is off — the
        registry exists but nothing writes to it.
        """
        return self.obs.registry.snapshot()

    def query_report(self) -> List[Dict[str, Any]]:
        """Per-query catalog listing: name, state, per-query counters.

        Registration order; backs ``python -m repro metrics --queries``
        and the sharded coordinator's fleet-wide aggregation.
        """
        return self.continuous.catalog.report()

    def statistics(self) -> Dict[str, Any]:
        """A status snapshot for monitoring and tests.

        O(1): outcome totals are maintained by the dispatcher as
        requests complete, not recounted from the completion log.
        """
        serviced = self.dispatcher.serviced_total
        failed = self.dispatcher.failed_total
        stats = {
            "virtual_time": self.env.now,
            "devices": len(self.comm.registry),
            "queries": len(self.continuous.queries),
            "polls": self.continuous.polls,
            "requests_completed": len(self.completed_requests),
            "requests_serviced": serviced,
            "requests_failed": failed,
            "probes_sent": self.comm.prober.probes_sent,
            "probes_failed": self.comm.prober.probes_failed,
            "lock_acquisitions": self.locks.acquisitions,
            "lock_contended": self.locks.contended_acquisitions,
            "lock_recoveries": self.locks.recoveries,
            "execution_attempts": self.dispatcher.attempts_total,
            "retries": self.dispatcher.retries_total,
            "failovers": self.dispatcher.failovers_total,
        }
        if self.health is not None:
            health = self.health.stats()
            stats["devices_quarantined"] = health["quarantines"]
            stats["devices_readmitted"] = health["recoveries"]
            stats["currently_quarantined"] = health["currently_quarantined"]
            stats["mean_recovery_seconds"] = health["mean_recovery_seconds"]
        # Fast-path keys appear only when their mechanism is on, so
        # fastpath-off snapshots stay identical to pre-fastpath ones.
        if self.pool is not None:
            for key, value in self.pool.stats().items():
                stats[f"pool_{key}"] = value
        if self.status_cache is not None:
            for key, value in self.status_cache.stats().items():
                stats[f"status_cache_{key}"] = value
        if self.config.incremental:
            for key, value in self.dispatcher.incremental_stats.items():
                stats[f"incremental_{key}"] = value
        # Overload keys appear only when the plane is on, so
        # overload-off snapshots stay identical to pre-overload ones.
        if self.overload is not None:
            stats["requests_shed"] = self.dispatcher.shed_total
            for key, value in self.overload.stats().items():
                stats[f"overload_{key}"] = value
            stats["overload_peak_queue_depth"] = {
                name: operator.peak_pending
                for name, operator in sorted(
                    self.dispatcher._operators.items())}
            stats["overload_queue_evictions"] = sum(
                operator.total_evicted
                for operator in self.dispatcher._operators.values())
        return stats
