"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose CPU speed can change twofold
within seconds, while the work stays the same: the same pure-Python loop
takes 40 ms one second and 90 ms the next, and process time moves with
wall time.  A median over a run cannot remove that when a whole run falls
in a slow period.  So the benchmark runs a fixed reference computation
before and after every timed piece of work (a job, a set-up probe) and,
for in-process jobs, every SAMPLE_S during it, and scales the work's time
by NOMINAL_S over the mean of those reference times.  The result is still
seconds: the time the work would take on a machine where the reference
takes NOMINAL_S.  The raw times are reported next to it.

The reference is sparse exact elimination over dict rows of Fractions, the
same kind of work as jetdiff's own inner loops, but written here, so no
change to jetdiff can move it.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# Reference time (s) at which scaled and raw times agree; about the
# reference's time on a 2-core x86-64 VM at its faster speed.
NOMINAL_S = 0.0135
# Interval (s) of the reference samples taken during an in-process job.
SAMPLE_S = 0.5

_N = 36
_paused = 0.0


def _matrix() -> list:
    rng = random.Random(0)
    return [{j: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
             for j in rng.sample(range(_N), 6)} for _ in range(_N)]


def _eliminate(rows: list) -> int:
    rank = 0
    for col in range(_N):
        pivot = next((r for r in rows if col in r), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rank += 1
        inv = 1 / pivot[col]
        for row in rows:
            factor = row.get(col)
            if factor is None:
                continue
            factor *= inv
            for j, v in pivot.items():
                value = row.get(j, 0) - factor * v
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
    return rank


def reference_s() -> float:
    """Seconds one run of the reference computation takes now.  The time
    is left out of clock()."""
    global _paused
    start = time.perf_counter()
    _eliminate(_matrix())
    seconds = time.perf_counter() - start
    _paused += seconds
    return seconds


def clock() -> float:
    """time.perf_counter() minus the time spent in reference runs."""
    return time.perf_counter() - _paused


class SpeedClock:
    """Times pieces of work back to back.

    The reference run after one piece is the one before the next, so a pass
    of n jobs makes n + 1 reference runs, plus the samples taken during
    in-process jobs.
    """

    def __init__(self, clock_fn=clock):
        self._clock = clock_fn
        self._last = reference_s()

    @contextmanager
    def timed(self, sample: bool):
        """Yields a dict that gets `seconds` (raw, by the clock given) and `factor`
        (NOMINAL_S over the mean reference time) when the block ends.  With
        `sample`, a timer signal runs the reference every SAMPLE_S inside
        the block; use it only where this process does the work itself."""
        timing = {}
        samples = [self._last]
        if sample:
            previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_s()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = self._clock()
        try:
            yield timing
        finally:
            timing["seconds"] = self._clock() - start
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._last = reference_s()
            samples.append(self._last)
            timing["factor"] = NOMINAL_S * len(samples) / sum(samples)
