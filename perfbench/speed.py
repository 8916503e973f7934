"""Host speed probe: report timings at a reference speed of the CPU.

On a shared host a CPU's speed swings by up to half within seconds, as other
tenants come and go, and each CPU swings on its own: the same M5P fit took
5.98-9.54 s in back-to-back repeats, all of it user time.  A timing taken
over such swings measures the neighbours as much as the program, so the
benchmark pins the process doing the work to one CPU and runs this probe
beside it on the same CPU.  Every :data:`PERIOD_S` the probe runs a fixed
kernel twice and times the second pass by its own CPU time.  The kernel
mixes what the program spends its time on -- interpreted bytecode, small
numpy operations, small allocations serialised to JSON -- because a slow
CPU slows each of these by a different share.  The first pass refills the
caches the work evicted while the probe slept; timed cold, the kernel
slowed only about two thirds as much as the work did.

A timed interval is then reported in seconds at the reference speed
(:meth:`SpeedRecord.seconds`): its wall time, less the CPU time the probe
itself took inside it, times the mean of :data:`REFERENCE_S` over the
kernel's CPU time for the probe samples taken during (or, for a short
interval, around) it.  At the reference speed that is the wall time; on a
CPU running at half speed it is half of it.

Run as a program, this module is the probe itself: ``speed.py CPU``.  It
samples until its stdin closes, then prints its samples as one JSON line.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

__all__ = ["SpeedProbe", "SpeedRecord", "make_kernel", "sample"]

PERIOD_S = 0.1
#: CPU time of the kernel at the reference speed: about its median beside a
#: worker on a 2-vCPU VM, so that reported seconds read close to wall
#: seconds there.
REFERENCE_S = 0.0012
#: Fewest probe samples that set the speed of an interval: enough for one
#: sample's noise to average out, few enough for a CPU's speed to hold.
MIN_SAMPLES = 10
STOP_DEADLINE_S = 10.0


def make_kernel() -> Callable[[], None]:
    """The probe's fixed kernel."""
    import numpy

    rng = numpy.random.default_rng(0)
    matrix, weights = rng.random((64, 52)), rng.random(52)

    def kernel() -> None:
        total = 0
        for value in range(8_000):
            total += value * value % 7
        for _ in range(50):
            float((matrix @ weights).sum())
            numpy.maximum(matrix[:, 0], 0.5)
        json.dumps([{"id": index, "value": float(index), "name": str(index)} for index in range(300)])

    return kernel


def sample(kernel: Callable[[], None]) -> tuple[float, float, float, float]:
    """Run ``kernel`` twice: ``(wall start, wall end, CPU seconds, timed CPU seconds)``.

    The wall interval and the CPU seconds cover both passes, the timed CPU
    seconds the second pass alone.
    """
    started, cpu = time.perf_counter(), time.thread_time()
    kernel()
    timed = time.thread_time()
    kernel()
    ended = time.thread_time()
    return started, time.perf_counter(), ended - cpu, ended - timed


def sample_until_stdin_closes() -> list[tuple[float, float, float, float]]:
    """One :func:`sample` per period."""
    kernel = make_kernel()
    samples = []
    due = time.perf_counter()
    while True:
        due += PERIOD_S
        readable, _, _ = select.select([sys.stdin], [], [], max(0.0, due - time.perf_counter()))
        if readable and not os.read(sys.stdin.fileno(), 4096):
            return samples
        samples.append(sample(kernel))


class SpeedRecord:
    """The probe's samples, and timings scaled to the reference speed."""

    def __init__(self, samples: list) -> None:
        self.samples = sorted(samples)
        self._mids = [(start + end) / 2.0 for start, end, _, _ in self.samples]

    def _overlapping(self, begin: float, end: float):
        low = bisect.bisect_left(self._mids, begin - 1.0)
        for start, stop, cpu, _ in self.samples[low:]:
            if start >= end:
                break
            if stop > begin:
                yield start, stop, cpu

    def busy(self, begin: float, end: float) -> float:
        """CPU seconds the probe took inside ``[begin, end]``."""
        return sum(
            cpu * (min(stop, end) - max(start, begin)) / (stop - start)
            for start, stop, cpu in self._overlapping(begin, end)
        )

    def disturbed(self, begin: float, end: float) -> bool:
        """Whether the probe ran during ``[begin, end]``."""
        return any(True for _ in self._overlapping(begin, end))

    def speed(self, begin: float, end: float) -> float:
        """Mean speed relative to the reference over ``[begin, end]``.

        Uses the samples taken inside the interval, or the
        :data:`MIN_SAMPLES` nearest its middle when fewer fall inside.
        """
        low = bisect.bisect_left(self._mids, begin)
        high = bisect.bisect_right(self._mids, end)
        if high - low < MIN_SAMPLES:
            middle = bisect.bisect_left(self._mids, (begin + end) / 2.0)
            low = max(0, min(middle - MIN_SAMPLES // 2, len(self._mids) - MIN_SAMPLES))
            high = low + MIN_SAMPLES
        if high > len(self.samples) or low < 0 or high - low < 1:
            raise RuntimeError(f"the speed probe took {len(self.samples)} samples, too few to scale a timing")
        return statistics.fmean(REFERENCE_S / timed for _, _, _, timed in self.samples[low:high])

    def seconds(self, begin: float, end: float, idle: float = 0.0, speed: float | None = None) -> float:
        """``[begin, end]`` in seconds at the reference speed.

        ``idle`` seconds of the interval were spent waiting, not computing
        (a paced stepper's sleep); they are counted as they are.  ``speed``
        overrides the probe's speed over the interval.
        """
        if speed is None:
            speed = self.speed(begin, end)
        return idle + (end - begin - idle - self.busy(begin, end)) * speed

    def kernel_ms(self) -> tuple[float, float, float]:
        """First quartile, median and third quartile of the timed pass's CPU time."""
        low, middle, high = statistics.quantiles([timed for _, _, _, timed in self.samples], n=4)
        return low * 1000.0, middle * 1000.0, high * 1000.0


class SpeedProbe:
    """The probe as a child process pinned to ``cpu``; :meth:`stop` ends it."""

    def __init__(self, cpu: int, env: dict, root: Path) -> None:
        self._process = subprocess.Popen(
            [sys.executable, "-u", str(Path(__file__).resolve()), str(cpu)],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )  # fmt: skip

    def stop(self) -> SpeedRecord:
        """Close the probe's stdin, read its samples and wait for it to exit."""
        try:
            output, _ = self._process.communicate(timeout=STOP_DEADLINE_S)
        finally:
            self.kill()
        if self._process.returncode != 0:
            raise RuntimeError(f"the speed probe exited with {self._process.returncode}")
        return SpeedRecord(json.loads(output))

    def kill(self) -> None:
        if self._process.returncode is None:
            self._process.kill()
            self._process.wait()


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    samples = sample_until_stdin_closes()
    sys.stdout.write(json.dumps(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
