"""A fixed reference computation that measures how fast the host runs now.

On a shared machine the CPU time of the same work swings by up to 1.8x
within seconds and drifts for minutes, as neighbours contend for the
core's sibling hyperthread, its caches and memory bandwidth. Medians
over one run do not remove a slow regime that lasts the whole run.

``reference`` times a frozen piece of interpreter work shaped like the
simulator's inner loop: a binary-heap event queue, objects with
attribute updates, list indexing and integer and float arithmetic, in a
working set of a few kilobytes. It imports nothing the program imports,
so it may run before the program's set-up clock starts.

The worker times the reference before set-up, between set-up and the
run, after the run, and after the outputs are written. ``slowdown``
turns the two references around a phase into how many times slower
than ``NOMINAL_S`` the host ran it; ``run.py`` divides the phase's CPU
time by that. The reference never changes with the program, so a
change to the program moves the scaled times as it moves the raw ones
on a steady host; the unscaled times stay in the ``host.raw_*``
per-layer metrics.
"""

from __future__ import annotations

import heapq
import statistics
import time

# CPU seconds of one repeat at the speed a 2.1 GHz Xeon vCPU of the shared
# host the first baseline was recorded on ran most often; it only fixes
# the scale of the reported times. That host ran one repeat in 7.8 ms to
# 18 ms as the contention changed.
NOMINAL_S = 0.0104
REPEATS = 4

# How much of the reference's slowdown a phase suffers. In one minute of
# closed-decode and elastic-cluster invocations, contention slowed the
# reference 1.75x, set-up (imports, numpy trace synthesis and fitting)
# 1.41-1.44x and the runs 1.72-1.77x; in another, the reference 1.78x,
# set-up 1.35-1.39x and the runs 1.50-1.60x. The shares sit between the
# two, so that neither kind of contention moves a scaled time by more
# than about a tenth.
SETUP_SHARE = 0.6
RUN_SHARE = 0.9

_EVENTS = 14_000
_PODS = 64
_KEEP = 1024


class _Pod:
    __slots__ = ("time", "queue", "tokens", "busy")

    def __init__(self) -> None:
        self.time = 0.0
        self.queue: list[int] = []
        self.tokens = 0
        self.busy = 0.0


def _work() -> float:
    pods = [_Pod() for _ in range(_PODS)]
    heap = [(0.0, i) for i in range(_PODS)]
    done = [0.0] * _KEEP
    x = 12345
    for n in range(_EVENTS):
        t, i = heapq.heappop(heap)
        pod = pods[i]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        batch = 1 + x % 48
        cost = 0.004 + 0.0001 * batch + (x % 97) * 1e-5
        pod.time = t + cost
        pod.busy += cost
        pod.tokens += batch
        pod.queue.append(n)
        if len(pod.queue) > 8:
            done[pod.queue.pop(0) % _KEEP] = pod.time
        heapq.heappush(heap, (pod.time, i))
    return sum(sorted(done)[::64]) + sum(p.busy for p in pods)


def reference() -> float:
    """Median CPU seconds of ``REPEATS`` runs of the reference work."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        _work()
        times.append(time.process_time() - start)
    return statistics.median(times)


def slowdown(before: float, after: float, share: float) -> float:
    """How many times slower than ``NOMINAL_S`` the host ran a phase, from
    the references taken before and after it and the phase's ``share``."""
    return 1 + share * ((before + after) / 2 / NOMINAL_S - 1)
