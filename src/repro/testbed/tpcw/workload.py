"""Workload generation: a population of emulated browsers driving the server.

The generator owns the EB population (constant during a run, per the TPC-W
specification and the paper's setup) and, each simulation tick, collects the
interactions the browsers want to issue.  The number of EBs can be changed
between runs -- that is how the paper varies the workload (25, 50, 75, 100,
150, 200 EBs) -- and, for the reproduction's ablations, even mid-run.
"""

from __future__ import annotations

import enum
import random
from itertools import accumulate

from repro.testbed.tpcw.browser import EmulatedBrowser
from repro.testbed.tpcw.interactions import INTERACTIONS, Interaction

__all__ = ["WorkloadGenerator", "WorkloadMix"]


class WorkloadMix(enum.Enum):
    """The three TPC-W traffic mixes; the paper uses ``SHOPPING`` throughout."""

    BROWSING = "browsing"
    SHOPPING = "shopping"
    ORDERING = "ordering"

    def weights(self) -> list[float]:
        """Interaction weights (aligned with ``INTERACTIONS``) for this mix."""
        if self is WorkloadMix.BROWSING:
            return [interaction.browsing_weight for interaction in INTERACTIONS]
        if self is WorkloadMix.SHOPPING:
            return [interaction.shopping_weight for interaction in INTERACTIONS]
        return [interaction.ordering_weight for interaction in INTERACTIONS]


class WorkloadGenerator:
    """Constant-population closed-loop workload generator.

    Parameters
    ----------
    num_browsers:
        Number of concurrent emulated browsers (the paper's "EBs").
    mean_think_time_s:
        Mean thinking time of each browser.
    mix:
        TPC-W traffic mix; defaults to the shopping mix used by the paper.
    seed:
        Seed for the generator-level RNG; every browser derives its own
        deterministic sub-seed from it.
    """

    def __init__(
        self,
        num_browsers: int,
        mean_think_time_s: float = 7.0,
        mix: WorkloadMix = WorkloadMix.SHOPPING,
        seed: int = 0,
    ) -> None:
        if num_browsers < 1:
            raise ValueError("num_browsers must be at least 1")
        self.mean_think_time_s = float(mean_think_time_s)
        self.mix = mix
        self._seed = seed
        self._rng = random.Random(seed)
        self._browsers: list[EmulatedBrowser] = []
        self._interactions = list(INTERACTIONS)
        self._weights = mix.weights()
        self._next_browser_id = 0
        self._grow_population(num_browsers)

    # ------------------------------------------------------------ population

    def _grow_population(self, count: int) -> None:
        for _ in range(count):
            browser_seed = self._rng.randrange(2**31)
            self._browsers.append(
                EmulatedBrowser(
                    browser_id=self._next_browser_id,
                    mean_think_time_s=self.mean_think_time_s,
                    rng=random.Random(browser_seed),
                )
            )
            self._next_browser_id += 1

    @property
    def num_browsers(self) -> int:
        return len(self._browsers)

    @property
    def browsers(self) -> list[EmulatedBrowser]:
        return list(self._browsers)

    def browser_population(self) -> list[EmulatedBrowser]:
        """The live browser list itself (event-driven engine access).

        The event-driven cluster engine schedules every browser's next
        request on a heap instead of ticking the population each second, so
        it needs stable (index-addressable) access to the actual objects,
        not the defensive copy :attr:`browsers` returns.
        """
        return self._browsers

    def interaction_chooser(self) -> tuple[list[float], float, int]:
        """The active mix as ``(cum_weights, total, hi)``.

        Replicates ``random.choices``' internals (accumulated weights,
        ``cum_weights[-1] + 0.0`` total, ``hi = n - 1`` bisect bound) so the
        event-driven engines can draw each browser's next interaction as the
        index ``bisect(cum_weights, rng.random() * total, 0, hi)`` into
        ``INTERACTIONS`` -- the same single ``random()`` call on the same
        stream, the same float comparison, the same interaction, without the
        per-call list building.  The serving kernel of
        :mod:`repro.testbed.events` takes that index.  Callers must refresh
        after a mid-run ``set_mix``.
        """
        cum_weights = list(accumulate(self._weights))
        return cum_weights, cum_weights[-1] + 0.0, len(cum_weights) - 1

    def set_num_browsers(self, num_browsers: int) -> None:
        """Resize the EB population (used only by ablation scenarios)."""
        if num_browsers < 1:
            raise ValueError("num_browsers must be at least 1")
        if num_browsers > len(self._browsers):
            self._grow_population(num_browsers - len(self._browsers))
        else:
            self._browsers = self._browsers[:num_browsers]

    def set_mix(self, mix: WorkloadMix) -> None:
        """Switch the traffic mix (kept constant in the paper's experiments)."""
        self.mix = mix
        self._weights = mix.weights()

    # ----------------------------------------------------------------- ticks

    def tick(self, seconds: float) -> list[tuple[EmulatedBrowser, Interaction]]:
        """Advance all browsers and return the requests issued this tick.

        Each entry pairs the browser with the interaction it wants; the
        caller is responsible for submitting the request to the application
        server and telling the browser the response time via
        :meth:`EmulatedBrowser.start_request`.  This is the per-tick
        primitive of the tick-everything reference loops the test suite
        keeps; the event-driven engines schedule browsers on a heap instead.
        """
        issued: list[tuple[EmulatedBrowser, Interaction]] = []
        for browser in self._browsers:
            if browser.tick(seconds):
                interaction = browser.choose_interaction(self._interactions, self._weights)
                issued.append((browser, interaction))
        return issued

    # ------------------------------------------------------------ statistics

    @property
    def total_requests_issued(self) -> int:
        return sum(browser.requests_issued for browser in self._browsers)

    @property
    def total_requests_completed(self) -> int:
        return sum(browser.requests_completed for browser in self._browsers)
