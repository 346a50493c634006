"""The machine's speed, sampled by calibration slices (see NOTES.md,
"Machine noise").

A slice is a fixed piece of exact rational arithmetic, the kind of work the
package does, that uses no package code; so no change to the package can
move it, and its time tracks only the speed of the machine.  Times measured
in a run are scaled by ``speed_factor`` of the slices taken around them, to
give them at reference speed.

This module imports nothing from ``artin_sigma``, so a worker can time
slices before the package is imported.
"""

from __future__ import annotations

import time
from fractions import Fraction

CAL_REF_S = 1.6e-3  # calibration slice time of the tuning machine when quiet
CAL_EVERY_S = 0.1  # work time between two calibration slices
CAL_BURST = 3  # slices taken at each set-up checkpoint


def calibration_slice() -> float:
    """Wall seconds of a fixed slice of exact rational arithmetic: 1.6 ms on
    the tuning machine when quiet."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 7)
    return time.perf_counter() - t


def speed_factor(slices) -> float:
    """Reference slice time over the mean slice time measured: below 1
    while the machine runs slower than the reference.  Times multiplied by
    it are "at reference speed".

    The mean, not the median: a slice is short, so a stolen time quantum
    either misses it or hits it whole, and only the mean grows in proportion
    to the share of time lost, as a long piece of work's time does."""
    return CAL_REF_S * len(slices) / sum(slices)


class SetupClock:
    """Calibration slices taken through a set-up: ``burst`` at fixed
    checkpoints (process start, after the imports, before the first timed
    job) and ``tick`` in the set-up's loops, which takes one slice after
    every ``CAL_EVERY_S`` of set-up work since the last."""

    def __init__(self):
        self.slices = []
        self.last = time.perf_counter()

    def burst(self):
        self.slices += [calibration_slice() for _ in range(CAL_BURST)]
        self.last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.slices.append(calibration_slice())
            self.last = time.perf_counter()

    def scaled(self, wall_s: float) -> float:
        """A set-up's wall time without the slices, at reference speed."""
        return (wall_s - sum(self.slices)) * speed_factor(self.slices)
