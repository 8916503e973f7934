"""TPC-W emulated browsers (EBs).

An emulated browser alternates between two states: *thinking* (the user reads
the page they received; TPC-W draws this thinking time from an exponential
distribution) and *waiting* (a request is outstanding at the server).  The
number of concurrent EBs is the workload knob of every experiment in the
paper ("the number of concurrent EBs is kept constant during the experiment").
"""

from __future__ import annotations

import random

from repro.testbed.tpcw.interactions import Interaction

__all__ = ["EmulatedBrowser"]

#: TPC-W caps the thinking time; the specification uses a 7 s mean and trims
#: the exponential tail so a single EB cannot stay silent for minutes.
_MAX_THINK_FACTOR = 10.0


class EmulatedBrowser:
    """One TPC-W client session issuing requests with exponential think time.

    Parameters
    ----------
    browser_id:
        Identifier used in traces and error messages.
    mean_think_time_s:
        Mean of the exponential thinking-time distribution.
    rng:
        Dedicated pseudo-random generator; passing an explicitly seeded
        ``random.Random`` keeps whole experiments reproducible.
    """

    def __init__(self, browser_id: int, mean_think_time_s: float, rng: random.Random) -> None:
        if mean_think_time_s <= 0:
            raise ValueError("mean_think_time_s must be positive")
        self.browser_id = browser_id
        self.mean_think_time_s = float(mean_think_time_s)
        self._rng = rng
        self._remaining_think_s = self._draw_think_time()
        self._remaining_response_s = 0.0
        self._waiting = False
        self.requests_issued = 0
        self.requests_completed = 0

    # ------------------------------------------------------------------ state

    @property
    def is_waiting(self) -> bool:
        """True while a request of this browser is being served."""
        return self._waiting

    @property
    def remaining_think_s(self) -> float:
        """Seconds of thinking time left before the next request.

        Exposed for the event-driven cluster engine, which converts it into
        the absolute tick at which the browser will fire instead of ticking
        the browser every simulated second.
        """
        return self._remaining_think_s

    def _draw_think_time(self) -> float:
        # The event-driven engines replay this draw inline when they complete
        # a request (``repro.testbed.events``): the same ``random()`` call
        # on the same stream, the same expovariate arithmetic and cap.
        think = self._rng.expovariate(1.0 / self.mean_think_time_s)
        return min(think, _MAX_THINK_FACTOR * self.mean_think_time_s)

    # ------------------------------------------------------------------- tick

    def tick(self, seconds: float) -> bool:
        """Advance the browser by ``seconds``.

        Returns ``True`` when the browser wants to issue a request this tick
        (its thinking time has elapsed and it is not already waiting).
        """
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        if self._waiting:
            self._remaining_response_s -= seconds
            if self._remaining_response_s <= 0:
                self._waiting = False
                self.requests_completed += 1
                self._remaining_think_s = self._draw_think_time()
            return False
        self._remaining_think_s -= seconds
        return self._remaining_think_s <= 0

    def start_request(self, response_time_s: float) -> None:
        """Mark a request as issued and wait ``response_time_s`` for the reply."""
        if self._waiting:
            raise RuntimeError(f"browser {self.browser_id} already has an outstanding request")
        if response_time_s < 0:
            raise ValueError("response_time_s must be non-negative")
        self._waiting = True
        self._remaining_response_s = response_time_s
        self.requests_issued += 1

    def choose_interaction(self, interactions: list[Interaction], weights: list[float]) -> Interaction:
        """Pick the next interaction according to the active workload mix."""
        return self._rng.choices(interactions, weights=weights, k=1)[0]
