"""A fixed pure-Python reference computation that measures machine speed.

The host this benchmark runs on is shared: the same deterministic query
can take a third longer a few minutes later.  The benchmark therefore runs
this reference between its queries, spending about a tenth of the query
time on it, and scales each round's times by ``NOMINAL / unit``, where
``unit`` is the mean time of one reference call in that round.  The
reference never calls famsynth, so no change to famsynth moves it; it does
the kind of work famsynth does (value-iteration sweeps over sparse rows of
``(successor, probability)`` pairs, set membership and a queue walk).
"""

from __future__ import annotations

import random
import time
from collections import deque

NOMINAL = 0.004  # seconds per call; a fixed unit, only ratios matter
SHARE = 0.2  # reference time per second of query time

_N = 200
_rng = random.Random(20190215)
_ROWS = [[tuple((_rng.randrange(_N), 1 / 3) for _ in range(3))
          for _ in range(2)] for _ in range(_N)]
_GOAL = frozenset(range(0, _N, 17))


def reference():
    """One reference call: a backward walk and thirty max-sweeps."""
    preds = [[] for _ in range(_N)]
    for s, acts in enumerate(_ROWS):
        for dist in acts:
            for t, _ in dist:
                preds[t].append(s)
    seen = set(_GOAL)
    queue = deque(seen)
    while queue:
        for s in preds[queue.popleft()]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    values = [1.0 if s in _GOAL else 0.0 for s in range(_N)]
    for _ in range(30):
        new = list(values)
        for s in seen:
            if s in _GOAL:
                continue
            best = 0.0
            for dist in _ROWS[s]:
                v = 0.0
                for t, p in dist:
                    v += p * values[t]
                if v > best:
                    best = v
            new[s] = best
        values = new
    return values


class Meter:
    """Runs the reference in proportion to the query time it is told of."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self._debt = 0.0

    def after(self, query_seconds: float):
        self._debt += SHARE * query_seconds
        while self._debt > 0:
            t0 = time.perf_counter()
            reference()
            dt = time.perf_counter() - t0
            self.calls += 1
            self.seconds += dt
            self._debt -= dt

    def scale(self) -> float:
        """Factor from this meter's wall time to nominal-machine time."""
        return NOMINAL / (self.seconds / self.calls)
