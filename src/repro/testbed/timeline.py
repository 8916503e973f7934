"""Exact tick arithmetic of the event-driven simulation core.

The event-driven engines (the single-server loop of
:mod:`repro.testbed.events` and the cluster engine of
:mod:`repro.cluster.engine`) promise *bit-for-bit* agreement with their
per-second reference loops on seeded runs.  That promise lives or dies on
tick arithmetic: "how many ticks until this countdown elapses?" must land on
exactly the tick the reference engine's repeated floating-point subtraction
would land on.

The tick is one second (:data:`repro.testbed.clock.TICK_SECONDS`), so both
kinds of schedule take one exact step:

* countdowns (browser think/response timers, drain windows, restart
  downtimes) take a ``ceil``: ``x - 1.0`` is exact for ``1 <= x < 2**53``
  and a value in ``(0, 1)`` ends the countdown on its next step, so the
  reference loop's step count is the ceiling and ``value - ticks`` is the
  value it leaves behind;
* absolute deadlines (monitoring marks, injector horizons) fall on the
  first whole tick at or after their time.
"""

from __future__ import annotations

import math

from repro.testbed.clock import TICK_SECONDS

__all__ = ["ticks_until_nonpositive", "first_tick_at_or_after"]


def ticks_until_nonpositive(value: float) -> int:
    """Per-tick decrements needed to drive ``value`` to zero or below.

    Equal to the reference engines' countdown loops (repeated subtraction
    of the one-second tick), so batched fast-forwards stop on exactly the
    tick the per-second engine would.  Returns 0 when ``value`` is already
    non-positive.
    """
    if value <= 0:
        return 0
    return math.ceil(value)


def first_tick_at_or_after(time_seconds: float, tick_seconds: float = TICK_SECONDS) -> int:
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
