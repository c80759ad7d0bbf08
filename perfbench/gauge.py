"""Speed gauge: a fixed piece of reference work, timed between measurements.

The benchmark's host is a share of a virtual machine whose speed drifts by
up to a factor of two over seconds to minutes, for wall time and CPU time
alike. The drift is slow next to a millisecond: two gauge readings taken a
few milliseconds apart agree far better than two taken a minute apart, and
the tracker slows down with the gauge. So the benchmark reads the gauge next
to everything it times and reports times *at reference speed*:

    reported = measured * NOMINAL_S / (gauge reading at that moment)

The reference work is a small copy of the kinds of work the tracker does:
interpreter loops over ints, floats, dicts and lists; numpy fancy indexing
and a fresh 1.6 MB array; one scipy assignment solve. Code that waits
on memory slows less than interpreter loops when the host slows, so a gauge
of interpreter loops alone over-corrects the matching in `adptrack eval`.
The reference work calls no adptrack code, so a change to the tracker cannot
move it. It reads 1.0-1.3 ms on the baseline host (see NOTES.md), so there
a reported time is up to a fifth below the wall time.
"""

from __future__ import annotations

import math
import statistics
import time

_perf = time.perf_counter

NOMINAL_S = 1.0e-3  # a gauge reading at reference speed


def _interpreter_work(rounds: int) -> float:
    """Integer, float, dict and list work in the interpreter, like the tracker's own loops."""
    acc = 0.0
    buckets: dict[int, float] = {}
    items: list[int] = []
    for i in range(rounds):
        x = (i * 2654435761) % 1000003
        buckets[x & 63] = buckets.get(x & 63, 0.0) + x * 0.5
        acc += math.sqrt(x)
        items.append(x)
    items.sort()
    return acc + sum(buckets.values()) + items[rounds // 2]


class _ArrayWork:
    """numpy and scipy work on fixed inputs; made on first use, once adptrack has imported numpy and scipy."""

    def __init__(self):
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(0)
        self.np, self.solve = np, linear_sum_assignment
        self.square = rng.random((200, 200))
        self.rows, self.cols = np.ix_(rng.permutation(200)[:150], rng.permutation(200)[50:])
        self.weights = rng.random((20, 400))

    def __call__(self) -> float:
        picked = self.square[self.rows, self.cols].sum()
        fresh = self.np.ones(200_000).sum()
        rows, cols = self.solve(self.weights, maximize=True)
        return float(picked + fresh + self.weights[rows, cols].sum())


class Gauge:
    """Readings of the reference work; `spent_s` is the wall time the readings took in all."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent_s = 0.0
        self._array_work: _ArrayWork | None = None

    def read(self, n: int = 1) -> float:
        """Take `n` readings; returns their median."""
        if self._array_work is None:
            self._array_work = _ArrayWork()
        begin = _perf()
        taken = []
        for _ in range(n):
            start = _perf()
            _interpreter_work(1000)
            self._array_work()
            taken.append(_perf() - start)
        self.readings.extend(taken)
        self.spent_s += _perf() - begin
        return statistics.median(taken)


def at_reference_speed(measured_s: float, readings) -> float:
    """`measured_s` scaled to the reference speed, by the median of the readings taken around it."""
    return measured_s * NOMINAL_S / statistics.median(readings)


def windowed(samples, readings, half: int = 3) -> list[float]:
    """Scale each sample by the median of the readings within `half` places of it.

    `readings[i]` is the reading taken right after `samples[i]`.
    """
    out = []
    for i, sample in enumerate(samples):
        out.append(at_reference_speed(sample, readings[max(0, i - half):i + half + 1]))
    return out
