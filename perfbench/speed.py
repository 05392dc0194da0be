"""Correction of timings for the machine's own speed drift.

On a shared machine the CPU's speed drifts by 20-40% over minutes, which
is wider than any regression bound worth having.  ``SpeedProbe`` times a
fixed pure-Python kernel (no radlab code) between operations, at most once
per ``PROBE_EVERY_S``; an operation's corrected time is its wall time
scaled by ``REFERENCE_S / kernel time`` (the median of the last ``SMOOTH``
timings), that is, the time it would take on a machine where the kernel
takes exactly ``REFERENCE_S``.  A change to
radlab moves the operation's time and not the kernel's, so the corrected
time moves with it.  Raw wall times are reported beside the corrected
ones.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

REFERENCE_S = 0.001
PROBE_EVERY_S = 0.05
SMOOTH = 5  # kernel timings whose median sets the factor
_ENTRIES = (13, 11, 7, 5, 3, 2, 1, 1, 1, 1, 1, 1, 1)


def reference_kernel() -> float:
    """Wall seconds for a fixed Gray-code sign-sum sweep over 13 entries,
    the same kind of integer loop as radlab's direct counting engine."""
    start = perf_counter()
    deltas = [2 * x for x in _ENTRIES]
    signs = [1] * len(_ENTRIES)
    s = sum(_ENTRIES)
    inside = 0
    for i in range(1, 1 << len(_ENTRIES)):
        j = (i & -i).bit_length() - 1
        if signs[j] > 0:
            s -= deltas[j]
            signs[j] = -1
        else:
            s += deltas[j]
            signs[j] = 1
        if s * s <= 300:
            inside += 1
    return perf_counter() - start


class SpeedProbe:
    """Keeps the kernel timings and the factor the latest ones imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0
        self.factor = 1.0

    def scale(self) -> float:
        """The factor for the next operation, re-timing the kernel if the
        last timing is older than PROBE_EVERY_S."""
        if perf_counter() >= self._next:
            self.samples.append(reference_kernel())
            self.factor = REFERENCE_S / median(self.samples[-SMOOTH:])
            self._next = perf_counter() + PROBE_EVERY_S
        return self.factor
