"""Virtual clock for the discrete-event kernel."""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """Monotonically non-decreasing virtual time.

    The clock only moves when the kernel advances it to the timestamp of
    the next scheduled event; simulated work therefore takes zero wall
    time. Time is a float in *seconds* to match the paper's cost metric.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        #: Current virtual time in seconds. A plain attribute, so the
        #: kernel's hot paths read it without a property call; move it
        #: only through :meth:`advance_to` (or the run loop, which makes
        #: the same check inline).
        self.now = float(start)

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises :class:`SimulationError` on an attempt to move backwards,
        which would indicate a corrupted event queue.
        """
        if timestamp < self.now:
            raise SimulationError(
                f"cannot move clock backwards from {self.now} to {timestamp}"
            )
        self.now = timestamp
