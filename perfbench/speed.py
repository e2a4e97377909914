"""Host-speed probe: scales timings to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by a quarter or
more within one run and between runs (see the README's "Noise"
section).  A timing taken on such a host says as much about the host's
state as about the program.  So, between goals and outside the timed
region, the loop runs a fixed pure-Python reference task that shares
no code with the program, and each timing is scaled by how fast that
task ran around it::

    scaled = measured * REFERENCE_S / (reference task time nearby)

A program change leaves the reference task alone, so it moves the
scaled figures by its full amount; a host that slows down slows the
reference task too, and the two cancel.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Tuple

#: The speed the end-to-end timings are scaled to: one run of
#: :func:`reference_task` taking this long.  It is the task's typical
#: time between goals on a shared 2-vCPU x86-64 Linux host running
#: CPython 3, so scaled figures there read close to wall-clock ones.
REFERENCE_S = 0.0014

#: Runs of the task per probe; a probe records their median.
REPS = 6
#: Seconds of wall time between probes.
EVERY_S = 0.2
#: A timing is scaled by the median of this many probes around it,
#: about a second of the run.
NEIGHBOURS = 6


def reference_task() -> int:
    """Interpreter work of the program's kind -- tuples, dict updates,
    a keyed sort, frozensets, ``repr`` -- on fixed inputs.  Keys are
    ints only, so string hash randomisation cannot change its speed."""
    counts = {}
    for i in range(1500):
        key = (i % 7, i % 97, i)
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[0][1], -kv[1]))
    keys = frozenset(kv[0] for kv in ranked[:600])
    text = "".join(repr(v) for _, v in ranked[:400])
    return len(keys) + len(text)


class SpeedProbe:
    """Probes recorded along one sequence of timed events (goals or
    set-ups).  A probe at *position* ``p`` ran after ``p`` events."""

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.samples: List[Tuple[int, float]] = []
        self._next = 0.0

    def sample(self, position: int) -> None:
        """Time the reference task now.  The cyclic collector is off
        meanwhile, so the program's heap cannot make a probe slower."""
        clock = time.perf_counter
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPS):
                start = clock()
                reference_task()
                times.append(clock() - start)
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((position, statistics.median(times)))
        self._next = clock() + self.every_s

    def maybe(self, position: int) -> None:
        """Probe if :data:`EVERY_S` has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.sample(position)

    def scale(self, values: List[float]) -> List[float]:
        """*values* (one per event, in order) scaled to
        :data:`REFERENCE_S`, each by the median of the
        :data:`NEIGHBOURS` probes around it."""
        positions = [p for p, _ in self.samples]
        times = [t for _, t in self.samples]
        before = NEIGHBOURS // 2
        scaled = []
        for i, value in enumerate(values):
            j = max(0, bisect.bisect_right(positions, i) - 1)
            near = times[max(0, j - before + 1):j + 1 + NEIGHBOURS - before]
            scaled.append(value * REFERENCE_S / statistics.median(near))
        return scaled

    def summary(self) -> Tuple[float, float, int]:
        """(median probe time, its interquartile range ÷ median, probes)."""
        times = [t for _, t in self.samples]
        median = statistics.median(times)
        if len(times) < 2:
            return median, 0.0, len(times)
        q1, _, q3 = statistics.quantiles(times, n=4)
        return median, (q3 - q1) / median, len(times)
