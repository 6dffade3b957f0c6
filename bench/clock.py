"""Machine-speed probe that rescales wall-clock times to a reference speed.

The machines this benchmark runs on share their cores with other tenants.
Their speed switches between regimes about 1.7x apart every few seconds, so
raw wall-clock medians of whole runs spread by 30-50% between runs of the
same code.  Each timed sample is therefore bracketed by probe runs: a fixed
pure-Python kernel that does not touch the library.  It looks up keys in a
set and a dict of a few MB (the query paths' kind of work) and builds a
fresh set and dict of tuples (the allocation that dominates set-up and
load).  A sample that took `t` seconds while the probe took `p` ns is
reported as `t * REF_NS / p`, its duration on the reference machine.  The
probe's data is built once per process, seeded, and adds the same ~15 MB to
every process's RSS on every commit.
"""
from __future__ import annotations

import random
from statistics import median
from time import perf_counter_ns

# Median probe time on an uncontended core of the reference machine: a 2-vCPU
# x86-64 VM, Python 3.11.7, numpy 2.4.6.
REF_NS = 800_000.0


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(20240517)
        self._members = set(rng.sample(range(1 << 20), 60_000))
        keys = rng.sample(range(1 << 20), 60_000)
        self._table = {k: k for k in keys}
        self._keys = keys[:4_000]

    def _kernel(self) -> int:
        members, table = self._members, self._table
        n = 0
        for k in self._keys:
            if k in members:
                n += 1
            n += table[k] & 1
        fresh = {(i, i * 7 % 1000) for i in range(1_500)}
        return n + len({t: str(t[0]) for t in fresh})

    def sample(self, reps: int = 3) -> float:
        """Median nanoseconds of `reps` kernel runs."""
        xs = []
        for _ in range(reps):
            t0 = perf_counter_ns()
            self._kernel()
            xs.append(perf_counter_ns() - t0)
        return median(xs)


def scale(before_ns: float, after_ns: float) -> float:
    """Factor that turns a wall-clock time bracketed by two probe samples into
    reference-machine time."""
    return REF_NS / ((before_ns + after_ns) / 2)
