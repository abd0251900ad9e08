"""A fixed reference workload that gauges how fast the host runs Python.

The speed a shared host gives a VM swings by a third within minutes:
identical passes of one workload take anywhere from 3.8 s to 6.6 s a
few seconds apart on a 2-vCPU Xeon VM.  A pass therefore runs this
workload between the steps of its wall interval and scales each step
by how long the reference took around it (see ``passes.py``).

The reference shares no code with the repository, so a change to the
program leaves it alone: a program twice as slow still reads twice as
slow.  Its mix is the simulator's: dict probes, attribute reads and
writes on slotted objects, bit operations, calls and list appends.
"""

from __future__ import annotations

import random
import time

#: A round figure for :func:`reference_s` on the 2-vCPU Xeon VM the
#: bounds in ``BENCHMARK.json`` were set on, where its median drifted
#: between 4 and 7.5 ms.  Scaled times are seconds on a host that runs
#: the reference in exactly this long.
NOMINAL_S = 0.005

_rng = random.Random(20130520)
_KEYS = [_rng.randrange(1 << 14) for _ in range(2500)]


class _Line:
    __slots__ = ("tag", "mask", "hits")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.mask = 0
        self.hits = 0


def _touch(lines: dict, order: list, key: int) -> int:
    line = lines.get(key >> 2)
    if line is None:
        line = lines[key >> 2] = _Line(key >> 2)
        order.append(line)
        return 1
    line.mask |= 1 << (key & 3)
    line.hits += 1
    return 0


def reference_s() -> float:
    """CPU seconds one run of the reference workload takes.

    CPU time of the calling thread, not wall time: while a sweep's pool
    workers keep both CPUs busy the reference shares one with them, and
    its wall time would measure that sharing rather than the host's
    speed."""
    t0 = time.thread_time()
    lines: dict = {}
    order: list = []
    misses = 0
    for _ in range(7):
        for key in _KEYS:
            misses += _touch(lines, order, key)
    if misses != len(order):
        raise AssertionError("reference workload miscounted")
    return time.thread_time() - t0
