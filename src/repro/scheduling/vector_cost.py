"""Vectorized column cost kernels for the scheduling stack.

The schedulers' inner loop is per-(request, device) cost estimation:
SRFAE keys every eligible pair and re-keys a device's pairs after each
assignment; LERFA scores every candidate of every request; SRFE
re-scores a device's remaining queue per servicing step. Each of those
walks asks one question — "cost of *these requests* on *this device*
from *this status*" — which is a **column** of the (requests x devices)
cost matrix. A :class:`ColumnKernel` answers it with one numpy
expression instead of thousands of Python calls.

Fidelity contract (property-tested): a kernel's column is **bit-equal**
to the scalar ``estimate`` walk, element by element. Two design rules
make that possible:

* All *status-independent* work (trig aim resolution for the camera
  models) is done once per (request, device) in a scalar ``prepare``
  phase — on this platform ``numpy``'s SIMD ``arctan2``/``hypot``
  differ from CPython's ``math`` equivalents in the last ulp, so the
  transcendental part must stay scalar to preserve byte-identical
  schedules.
* The *status-dependent* arithmetic (absolute axis deltas, the cost
  table's ``fixed + per_unit * quantity`` linear forms, sequence sums
  and parallel maxes) is pure float64 add/sub/mul/div/abs/max, for
  which numpy's element-wise semantics match scalar evaluation exactly
  when applied in the same order.

``numpy`` is an optional dependency (the ``repro[fast]`` extra): every
import is guarded and every vectorized code path falls back to the
scalar walk when it is absent or when a cost model provides no kernel.
"""

from __future__ import annotations

import importlib.util
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from repro.errors import SchedulingError
from repro.scheduling.problem import Problem, SchedulingCostModel

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.devices.base import Device
    from repro.cost.model import CostModel

#: Whether numpy is installed. Checked without importing it: numpy is
#: imported only by the code paths that use it, so an engine that never
#: vectorizes never pays its import time or memory.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def require_numpy(feature: str = "vectorize=True") -> None:
    """Raise a clear error when a vectorized feature lacks numpy."""
    if not HAVE_NUMPY:
        raise SchedulingError(
            f"{feature} requires numpy, which is not installed; "
            f"install the optional extra (pip install 'repro[fast]') "
            f"or leave the vectorized path off"
        )


class ColumnKernel:
    """One problem's vectorized cost oracle, one device column at a time.

    Contract:

    * :meth:`column` returns a float64 array of estimated seconds for
      the given request indexes (``None`` = all requests, in problem
      order) on one device from one status — bit-equal to calling the
      scalar ``estimate`` per element.
    * :meth:`post_status` returns the post-servicing status of one
      (request, device) pair, equal to the scalar estimate's post
      status. Kernels exist only for models whose post status is
      *status-independent* (it depends on the request target and device
      geometry, not on where the head currently is) — which is what
      lets a column be evaluated without materializing n post objects.
    """

    def column(self, device_id: str, status: Any,
               indexes: Optional[Any] = None) -> Any:
        raise NotImplementedError

    def post_status(self, index: int, device_id: str) -> Any:
        raise NotImplementedError


class BlockModelKernel(ColumnKernel):
    """Kernel over the engine :class:`CostModel`'s block entry points.

    ``prepare_block`` runs once per device (scalar aim resolution over
    every request's arguments); ``estimate_block`` then evaluates the
    profile's linear forms for any request subset from any status.
    """

    def __init__(
        self,
        cost_model: "CostModel",
        action_name: str,
        devices: Any,
        args_list: Sequence[Any],
    ) -> None:
        self._cost_model = cost_model
        self._action_name = action_name
        self._devices = devices
        self._args_list = list(args_list)
        self._prepared: dict = {}

    def _prepared_for(self, device_id: str) -> Any:
        prepared = self._prepared.get(device_id)
        if prepared is None:
            prepared = self._cost_model.prepare_block(
                self._action_name, self._devices[device_id],
                self._args_list)
            self._prepared[device_id] = prepared
        return prepared

    def column(self, device_id: str, status: Any,
               indexes: Optional[Any] = None) -> Any:
        block = self._cost_model.estimate_block(
            self._action_name, self._devices[device_id],
            self._prepared_for(device_id), status, indexes=indexes)
        return block.seconds

    def post_status(self, index: int, device_id: str) -> Any:
        return self._cost_model.block_post_status(
            self._action_name, self._devices[device_id],
            self._prepared_for(device_id), index)


def build_kernel(problem: Problem) -> Optional[ColumnKernel]:
    """The problem's column kernel, or ``None`` for the scalar path.

    Unwraps a memoizing :class:`CachingCostModel` (kernels bypass the
    scalar memo — a column is cheaper than n cache probes) and asks the
    underlying model for a kernel via its optional
    ``make_column_kernel(problem)`` hook. Any model without the hook —
    or that declines (no numpy, noisy estimates, unsupported action) —
    keeps the byte-identical scalar walk.
    """
    if not HAVE_NUMPY:
        return None
    from repro.scheduling.cost_cache import CachingCostModel
    model: SchedulingCostModel = problem.cost_model
    while isinstance(model, CachingCostModel):
        model = model.inner
    maker = getattr(model, "make_column_kernel", None)
    if maker is None:
        return None
    return maker(problem)


def masked_argmin(costs: Any, mask: Any) -> Optional[int]:
    """Index of the smallest unmasked cost; ``None`` if all masked.

    First occurrence wins on ties — the same rule as a scalar
    first-strict-min scan in array order.
    """
    import numpy
    masked = numpy.where(mask, numpy.inf, costs)
    pos = int(masked.argmin())
    if masked[pos] == numpy.inf:
        return None
    return pos


__all__ = [
    "HAVE_NUMPY",
    "BlockModelKernel",
    "ColumnKernel",
    "build_kernel",
    "masked_argmin",
    "require_numpy",
]
