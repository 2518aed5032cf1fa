"""How fast the host runs right now, from a fixed loop of pure-Python
Fraction and big-integer arithmetic that shares no code with gppairs.

Other work on a shared host can slow a CPU by a third or more, in spells
from a fraction of a second to many seconds, each CPU on its own.  A timing
divided by the loop's time at the same moment, times REFERENCE_S, reads as
on a host where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from fractions import Fraction

# The loop's time on an idle 2-core x86-64 host running CPython 3.11.
REFERENCE_S = 0.0022
# A timing is scaled by the median of the loop samples up to WINDOW places
# before and after it.
WINDOW = 2


def _loop() -> int:
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(1, i * i + 1)
    v = 1
    for n in range(1, 600):
        v = math.isqrt(2 * (2 * v + 1) ** 2) // 2 + (n & 1)
    return acc.denominator.bit_length() + v.bit_length()


def pin() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    loop and the timed work see the same CPU's speed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


def sample() -> float:
    """Seconds the loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(seconds: list[float], loop_s: list[float]) -> list[float]:
    """Each timing at reference speed: divided by the median loop time of
    the samples within WINDOW places of it, times REFERENCE_S."""
    out = []
    for i, t in enumerate(seconds):
        near = loop_s[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
