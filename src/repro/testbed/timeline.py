"""Exact tick arithmetic of the event-driven simulation core.

The event-driven engines (the single-server loop of
:mod:`repro.testbed.events` and the cluster engine of
:mod:`repro.cluster.engine`) promise *bit-for-bit* agreement with their
per-second reference loops on seeded runs.  That promise lives or dies on
tick arithmetic: "how many ticks until this countdown elapses?" must land on
exactly the tick the reference engine's repeated floating-point subtraction
would land on, not on the tick an algebraic ``ceil(value / tick)`` says.

Two kinds of helpers exist for the two kinds of schedules in the system:

* countdowns (browser think/response timers, drain windows, restart
  downtimes) are replicated by literally replaying the per-tick subtraction
  -- a few dozen float operations per scheduled event, exact for every tick
  size.  For the shipped one-second tick the replay collapses to a plain
  ``ceil``: subtracting 1.0 from a positive double is exact until the value
  drops below zero, so the subtraction count *is* the ceiling;
* absolute deadlines ("first tick at or after time T": monitoring marks,
  injector horizons) use a guarded ceiling on the ``ticks x tick_seconds``
  product, which is exact because the integer-counting
  :class:`repro.testbed.clock.SimulationClock` computes ``now`` as that very
  product.

This module used to live at ``repro.cluster.timeline``; it moved into the
testbed layer when the event scheduler became shared between the
single-server and cluster engines.
"""

from __future__ import annotations

import math

__all__ = ["ticks_until_nonpositive", "countdown_after", "first_tick_at_or_after"]


def ticks_until_nonpositive(value: float, tick_seconds: float) -> int:
    """Per-tick decrements needed to drive ``value`` to zero or below.

    Replays the reference engines' countdown loops (repeated float
    subtraction of ``tick_seconds``) so batched fast-forwards stop on
    exactly the tick the per-second engine would.  Returns 0 when ``value``
    is already non-positive.

    For ``tick_seconds == 1.0`` -- the only tick size the shipped
    configurations use, and the hot path of browser rescheduling -- the
    replay short-circuits to ``ceil(value)``: for a positive double ``x``
    each ``x - 1.0`` step is exactly representable while the running value
    stays at or above 1, and once it falls into ``(0, 1)`` the next
    subtraction ends the loop regardless of rounding, so the subtraction
    count equals the ceiling bit-for-bit.
    """
    if value <= 0:
        return 0
    if tick_seconds == 1.0:
        return math.ceil(value)
    ticks = 0
    while value > 0:
        value -= tick_seconds
        ticks += 1
    return ticks


def countdown_after(value: float, tick_seconds: float, ticks: int) -> float:
    """The countdown's value after ``ticks`` per-tick decrements (exact replay)."""
    for _ in range(ticks):
        value -= tick_seconds
    return value


def first_tick_at_or_after(time_seconds: float, tick_seconds: float) -> int:
    """Smallest integer ``k`` with ``k * tick_seconds >= time_seconds``.

    The division-based ceiling is only an estimate (float division can be
    off by one unit in the last place), so the result is corrected against
    the exact product comparisons the simulation clocks use.
    """
    if time_seconds <= 0:
        return 0
    k = math.ceil(time_seconds / tick_seconds)
    while k * tick_seconds < time_seconds:
        k += 1
    while k > 0 and (k - 1) * tick_seconds >= time_seconds:
        k -= 1
    return k
