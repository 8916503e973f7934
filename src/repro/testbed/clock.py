"""Discrete simulation clock.

The testbed advances in fixed one-second ticks: fine enough to resolve the
monitoring cadence of the paper (one sample every 15 seconds) and the request
inter-arrival times of TPC-W emulated browsers, while keeping multi-hour runs
cheap to simulate.  The tick is a constant, :data:`TICK_SECONDS`.

The clock counts *integer ticks* and derives ``now`` as ``float(ticks)``.
This makes advancing by ``k`` ticks at once (the batched fast-forward of the
event-driven engines) produce exactly the same floating-point ``now`` as
``k`` single-tick advances -- the property the engines' bit-for-bit
equivalence guarantee rests on.
"""

from __future__ import annotations

__all__ = ["TICK_SECONDS", "SimulationClock"]

#: Length of one simulation step in seconds.
TICK_SECONDS = 1.0


class SimulationClock:
    """Monotonically advancing clock measured in seconds."""

    def __init__(self) -> None:
        self._ticks = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds since the start of the run."""
        return self._ticks * TICK_SECONDS

    @property
    def ticks(self) -> int:
        """Whole ticks elapsed since the start of the run."""
        return self._ticks

    def advance(self, ticks: int = 1) -> float:
        """Move the clock forward by ``ticks`` ticks and return the new time."""
        if ticks < 1:
            raise ValueError("ticks must be at least 1")
        self._ticks += ticks
        return self.now

    def reset(self) -> None:
        """Rewind the clock to zero (used when a simulation is reused)."""
        self._ticks = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SimulationClock(now={self.now:.1f}s)"
