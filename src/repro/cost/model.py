"""Cost estimation for actions on candidate devices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from repro.errors import ProfileError, RegistrationError
from repro.devices.base import Device
from repro.profiles.action_profile import (
    ActionProfile,
    CompositionNode,
    OperationRef,
    Parallel,
    Sequence,
)
from repro.profiles.cost_table import CostTable


def _numpy() -> Any:
    """Lazy numpy import: block estimation is an optional fast path."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - no-numpy CI leg
        raise ProfileError(
            "block cost estimation requires numpy; install the optional "
            "extra (pip install 'repro[fast]')"
        ) from None
    return numpy

#: A device physical-status snapshot, e.g. ``{"pan": 30.0, "tilt": -5.0}``.
Status = Mapping[str, float]


class BlockResolver(Protocol):
    """Vectorized counterpart of :class:`QuantityResolver`.

    Splits the resolver's work along the status dependency:

    * :meth:`prepare` runs once per device over a whole batch of action
      argument mappings and returns index-aligned arrays of everything
      *status-independent* (for ``photo()``: the aimed head pose per
      target). This is where scalar trig lives, so the vectorized path
      stays bit-equal to per-call estimation.
    * :meth:`resolve` turns prepared data plus ONE status into quantity
      arrays for the requested indexes — pure element-wise float64
      arithmetic only.
    * :meth:`post_status` recovers the scalar post-execution status of
      one prepared entry. Block resolvers only exist for actions whose
      post status does not depend on the starting status.
    """

    def prepare(self, device: Device, args_list: "list[Mapping[str, Any]]"
                ) -> Any:
        """Status-independent per-request data, index-aligned arrays."""
        ...

    def resolve(self, device: Device, prepared: Any, status: Status,
                indexes: Optional[Any] = None) -> Dict[str, Any]:
        """Quantity-name -> float64 array for ``indexes`` (None = all)."""
        ...

    def post_status(self, device: Device, prepared: Any,
                    index: int) -> Dict[str, float]:
        """Post-execution status of one prepared entry."""
        ...


class QuantityResolver(Protocol):
    """Turns (device, status, action args) into profile quantities.

    A resolver knows the geometry/semantics of one action: for
    ``photo()`` it computes how many degrees of pan and tilt separate
    the device's current head pose from the pose that aims at the
    action's target. It returns the resolved quantities *and* the
    projected post-execution status — the input to the next estimate in
    a sequence (the paper's sequence-dependent action execution time).
    """

    def __call__(
        self, device: Device, status: Status, args: Mapping[str, Any]
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Return ``(quantities, post_status)``."""
        ...


@dataclass(frozen=True)
class CostEstimate:
    """One estimate: seconds of service time plus the projected status."""

    seconds: float
    post_status: Dict[str, float] = field(default_factory=dict)
    quantities: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class BlockEstimate:
    """A batch of estimates from one status: index-aligned arrays.

    ``seconds[i]`` is bit-equal to the scalar
    :meth:`CostModel.estimate` of the i-th prepared request from the
    same status; ``quantities`` holds the resolved quantity arrays.
    """

    seconds: Any
    quantities: Dict[str, Any] = field(default_factory=dict)


class _Estimator(NamedTuple):
    """Everything :meth:`CostModel.estimate` needs for one combination."""

    resolver: QuantityResolver
    required: FrozenSet[str]
    profile: ActionProfile
    table: CostTable


class CostModel:
    """Estimates action costs from profiles, cost tables and status.

    Registration is two-part: cost tables per device type (from the
    communication layer's profiles) and (action profile, resolver) pairs
    per action/device-type combination.
    """

    def __init__(self) -> None:
        self._cost_tables: Dict[str, CostTable] = {}
        #: (action, device type) -> its estimator, resolved once at
        #: registration so an estimate is one lookup.
        self._estimators: Dict[Tuple[str, str], _Estimator] = {}
        self._block_resolvers: Dict[Tuple[str, str], BlockResolver] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_cost_table(self, table: CostTable) -> None:
        """Register the atomic-operation costs of one device type."""
        if table.device_type in self._cost_tables:
            raise RegistrationError(
                f"cost table for {table.device_type!r} already registered"
            )
        self._cost_tables[table.device_type] = table

    def register_action(
        self, profile: ActionProfile, resolver: QuantityResolver,
        block_resolver: Optional[BlockResolver] = None,
    ) -> None:
        """Register an action's profile and its quantity resolver.

        The profile is validated against the device type's cost table
        immediately, so a typo'd operation name fails at registration
        rather than mid-query. ``block_resolver`` optionally enables the
        vectorized :meth:`estimate_block` entry point for the action.
        """
        key = (profile.action_name, profile.device_type)
        if key in self._estimators:
            raise RegistrationError(
                f"action {profile.action_name!r} on {profile.device_type!r} "
                f"already registered"
            )
        table = self._require_table(profile.device_type)
        profile.validate_against(table)
        self._estimators[key] = _Estimator(
            resolver, frozenset(profile.required_quantities()), profile,
            table)
        if block_resolver is not None:
            self._block_resolvers[key] = block_resolver

    def has_action(self, action_name: str, device_type: str) -> bool:
        """Whether an estimate is possible for this combination."""
        return (action_name, device_type) in self._estimators

    def profile(self, action_name: str, device_type: str) -> ActionProfile:
        """The registered profile, raising on unknown combinations."""
        return self._estimator(action_name, device_type).profile

    def _estimator(self, action_name: str, device_type: str) -> _Estimator:
        try:
            return self._estimators[(action_name, device_type)]
        except KeyError:
            raise ProfileError(
                f"no profile registered for action {action_name!r} on "
                f"device type {device_type!r}"
            ) from None

    def _require_table(self, device_type: str) -> CostTable:
        try:
            return self._cost_tables[device_type]
        except KeyError:
            raise ProfileError(
                f"no cost table registered for device type {device_type!r}"
            ) from None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        action_name: str,
        device: Device,
        args: Mapping[str, Any],
        status: Optional[Status] = None,
    ) -> CostEstimate:
        """Estimate one action execution on one candidate device.

        ``status`` is the device's physical status to estimate *from* —
        pass a probe result for the current status, or a previous
        estimate's ``post_status`` to chain a sequence. ``None`` reads
        the device's live status (convenient in tests; the optimizer
        always passes probed status).
        """
        resolver, required, profile, table = self._estimator(
            action_name, device.device_type)
        if status is None:
            status = device.physical_status()
        quantities, post_status = resolver(device, status, args)
        missing = required.difference(quantities)
        if missing:
            raise ProfileError(
                f"resolver for {action_name!r} on {device.device_type!r} "
                f"did not produce quantities: {sorted(missing)}"
            )
        seconds = profile.estimate(table, quantities)
        return CostEstimate(
            seconds=seconds,
            post_status=dict(post_status),
            quantities=dict(quantities),
        )

    def estimate_sequence(
        self,
        action_name: str,
        device: Device,
        args_sequence: list[Mapping[str, Any]],
        status: Optional[Status] = None,
    ) -> list[CostEstimate]:
        """Estimate a sequence of executions, chaining post-status.

        This is the primitive the schedulers build on: the cost of the
        k-th action depends on where the (k-1)-th left the device.
        """
        if status is None:
            status = device.physical_status()
        estimates = []
        for args in args_sequence:
            estimate = self.estimate(action_name, device, args, status)
            estimates.append(estimate)
            status = estimate.post_status
        return estimates

    # ------------------------------------------------------------------
    # Block (vectorized) estimation
    # ------------------------------------------------------------------
    def supports_block(self, action_name: str, device_type: str) -> bool:
        """Whether a block resolver is registered for this combination."""
        return (action_name, device_type) in self._block_resolvers

    def _require_block(self, action_name: str,
                       device_type: str) -> BlockResolver:
        try:
            return self._block_resolvers[(action_name, device_type)]
        except KeyError:
            raise ProfileError(
                f"no block resolver registered for action {action_name!r} "
                f"on device type {device_type!r}"
            ) from None

    def prepare_block(
        self, action_name: str, device: Device,
        args_list: "list[Mapping[str, Any]]",
    ) -> Any:
        """Status-independent batch preparation for one device.

        The returned opaque object feeds any number of
        :meth:`estimate_block` / :meth:`block_post_status` calls for the
        same (action, device, args batch).
        """
        resolver = self._require_block(action_name, device.device_type)
        return resolver.prepare(device, args_list)

    def estimate_block(
        self,
        action_name: str,
        device: Device,
        prepared: Any,
        status: Status,
        indexes: Optional[Any] = None,
    ) -> BlockEstimate:
        """Vectorized :meth:`estimate` over a prepared batch.

        Evaluates the action profile's composition tree once over
        quantity *arrays* instead of once per request; element ``i`` of
        the result is bit-equal to the scalar estimate of prepared
        request ``indexes[i]`` from the same ``status``.
        """
        numpy = _numpy()
        estimator = self._estimator(action_name, device.device_type)
        resolver = self._require_block(action_name, device.device_type)
        quantities = resolver.resolve(device, prepared, status, indexes)
        missing = estimator.required.difference(quantities)
        if missing:
            raise ProfileError(
                f"block resolver for {action_name!r} on "
                f"{device.device_type!r} did not produce quantities: "
                f"{sorted(missing)}"
            )
        count: Optional[int] = None
        for array in quantities.values():
            count = len(array)
            if len(array) and float(array.min()) < 0:
                raise ProfileError(
                    f"action {action_name!r} block-estimated with a "
                    f"negative quantity"
                )
        if count is None:
            if indexes is None:
                raise ProfileError(
                    f"action {action_name!r} has no quantities; block "
                    f"estimation needs explicit indexes to size the batch"
                )
            count = len(indexes)
        seconds = _block_seconds(estimator.profile.composition,
                                 estimator.table, quantities)
        if not isinstance(seconds, numpy.ndarray):
            seconds = numpy.full(count, seconds, dtype=numpy.float64)
        return BlockEstimate(seconds=seconds, quantities=dict(quantities))

    def block_post_status(
        self, action_name: str, device: Device, prepared: Any, index: int
    ) -> Dict[str, float]:
        """Post-execution status of one prepared request."""
        resolver = self._require_block(action_name, device.device_type)
        return resolver.post_status(device, prepared, index)


def _block_seconds(node: CompositionNode, table: CostTable,
                   quantities: Mapping[str, Any]) -> Any:
    """Element-wise composition-tree evaluation over quantity arrays.

    Mirrors the scalar walk operation for operation and in the same
    fold order, so each element of the result is bit-equal to
    ``node.estimate`` of the corresponding scalar quantities: sequences
    left-fold ``+``, parallels left-fold ``maximum``, and each leaf is
    the cost table's ``fixed + per_unit * quantity`` linear form.
    Fixed-cost subtrees evaluate to Python floats and broadcast.
    """
    numpy = _numpy()
    if isinstance(node, OperationRef):
        operation = table.operation(node.operation)
        if node.quantity:
            if node.quantity not in quantities:
                raise ProfileError(
                    f"quantity {node.quantity!r} for operation "
                    f"{node.operation!r} was not resolved"
                )
            return (operation.fixed_seconds
                    + operation.per_unit_seconds * quantities[node.quantity])
        return operation.estimate()
    if isinstance(node, Sequence):
        total: Any = 0
        for child in node.children:
            total = total + _block_seconds(child, table, quantities)
        return total
    if isinstance(node, Parallel):
        slowest: Any = None
        for child in node.children:
            value = _block_seconds(child, table, quantities)
            slowest = value if slowest is None else numpy.maximum(slowest,
                                                                  value)
        return slowest
    raise ProfileError(  # pragma: no cover - defensive
        f"unknown composition node type {type(node).__name__!r}")
