"""Machine speed, sampled beside the timed work, and times at reference speed.

On a machine whose cores other load shares, the speed of the benchmark's
own process shifts by tens of percent within seconds, and by up to 2x over
an hour. The shift is common to all code on the core: a fixed pure-Python
loop slows by the same factor as the fsconv calls next to it. So the
benchmark runs that loop before and after each timed operation and reports
each operation at reference speed:

    ref_time = wall_time * REFERENCE_S / loop_time

where loop_time is the mean of the two loops that bracket the operation and
REFERENCE_S is about the loop's time when it runs alone on the machine the
bounds were set on. Wall times are printed beside them.

The loop is the benchmark's own code and never changes with fsconv, so a
faster fsconv shows in full at reference speed.
"""

from __future__ import annotations

import statistics
import time

LOOP_ITERATIONS = 10_000
REFERENCE_S = 2e-3  # the loop's time, in seconds, on the tuning machine
SETTLE_LOOPS = 9


def loop_s() -> float:
    """Wall time of one fixed interpreter-bound loop."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(LOOP_ITERATIONS):
        acc += i * 3 % 7
        table[i & 255] = acc
    return time.perf_counter() - start


def timed(fn):
    """fn() and its time in reference seconds and in wall seconds, for work
    too long to bracket with single loops: the speed is the median of a few
    loops before it and a few after."""
    before = statistics.median(loop_s() for _ in range(SETTLE_LOOPS))
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = statistics.median(loop_s() for _ in range(SETTLE_LOOPS))
    return result, wall * 2 * REFERENCE_S / (before + after), wall


class Speed:
    """The latest loop sample; `bracket` takes a new one and returns the
    scale from wall to reference time for the work done since the last."""

    def __init__(self):
        self.last = loop_s()

    def restart(self) -> None:
        """Sample afresh, after untimed work between operations."""
        self.last = loop_s()

    def bracket(self) -> float:
        before, self.last = self.last, loop_s()
        return 2 * REFERENCE_S / (before + self.last)
