"""Machine-speed reference for the speed-adjusted metrics.

The benchmark runs on shared machines whose single-thread speed drifts
by up to 2x over tens of seconds, which swamps run-to-run comparisons of
wall time.  Each timed step of an op is therefore bracketed by runs of a
fixed pure-Python kernel; the step's speed-adjusted latency is its wall
time divided by the mean kernel time around it, in units of ``ref`` (one
kernel run).  The kernel walks a dict-of-dicts of about 10 MB, so that
cache and memory contention slow it as they slow the program's graph
walks; it touches nothing of the program, so only the machine moves it.
"""

from __future__ import annotations

import time

TABLE_ROWS = 20000
ROW_ENTRIES = 12
WALK_STRIDE = 8
# A sample younger than this is reused, so that short ops are not
# dominated by kernel runs between them.
MAX_AGE_S = 0.05


class SpeedReference:
    """Times the kernel; ``sample()`` reuses a sample younger than ``MAX_AGE_S``."""

    def __init__(self) -> None:
        self._table = {
            i: {j: (i * j) % 97 for j in range(ROW_ENTRIES)} for i in range(TABLE_ROWS)
        }
        self._keys = list(self._table)[::WALK_STRIDE]
        self._taken_at = float("-inf")
        self._value = 0.0

    def kernel(self) -> int:
        total = 0
        table = self._table
        for key in self._keys:
            for value in table[key].values():
                total += value
        return total

    def sample(self) -> float:
        """Wall time of one kernel run, measured or reused."""
        if time.perf_counter() - self._taken_at > MAX_AGE_S:
            start = time.perf_counter()
            self.kernel()
            self._taken_at = time.perf_counter()
            self._value = self._taken_at - start
        return self._value
