"""The machine's current speed, from a fixed reference loop.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, for reasons outside the benchmark: a neighbour on the same core, a
host under load.  A fixed loop of the pure-Python work the reasoner does most
(exact `Fraction` arithmetic, tuples hashed into sets and dicts, list sorts)
slows down with the machine but never with a change to the reasoner.  child.py
times it before every set-up, and run.py scales every end-to-end time by
`REFERENCE_S / median(reference times)`: the times are reported in seconds of
a machine on which the loop takes REFERENCE_S.

The race runs two threads that hand the GIL to each other, and that handoff
slows down with the host on its own, so the race is scaled by the same loop
split over two threads.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

# median wall time of `reference(1)` and `reference(2)` on a 2-vCPU x86-64
# host with Python 3.11; any fixed value would do, these keep the scaled
# times close to the seconds measured there
REFERENCE_S = {1: 0.025, 2: 0.035}
LOOP_STEPS = 2_000


def _loop(steps: int) -> None:
    total = Fraction(0)
    seen = set()
    lists: dict = {}
    for i in range(1, steps):
        total += Fraction(1, i % 97 + 1)
        lo = Fraction(i % 500, i % 3 + 1)
        interval = (lo, lo + 1)
        if interval not in seen:
            seen.add(interval)
            lists.setdefault(i % 37, []).append(interval)
    for intervals in lists.values():
        intervals.sort()


def reference(threads: int = 1) -> float:
    """Wall time of LOOP_STEPS steps of the loop, split over `threads`
    threads that run at once."""
    if threads == 1:
        t0 = time.perf_counter()
        _loop(LOOP_STEPS)
        return time.perf_counter() - t0
    workers = [threading.Thread(target=_loop, args=(LOOP_STEPS // threads,)) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0
