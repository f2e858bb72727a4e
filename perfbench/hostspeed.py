"""Host speed: a fixed reference kernel timed next to every measurement.

On a shared host the machine's speed drifts, by up to 2x, over tens of
seconds to minutes: other tenants load the same cores and caches. That
is longer than a run, so more iterations per run do not average it out,
and a run's wall times move with whatever phase the host was in. A
fixed busy loop and a stress iteration slow down together.

So the timed units (full-size iterations, set-up launches, rounds of
the service mix) alternate with runs of :func:`kernel`, and each unit's
times are reported at the reference speed, against the mean of the
kernel runs just before and just after it::

    seconds at reference speed = measured seconds * REFERENCE_S / kernel seconds

The kernel is frozen pure Python that belongs to the benchmark, not to
the program: a change to the program moves the reported time as it
moves the wall time, while a slow phase of the host slows the kernel
and the iteration beside it alike and cancels. The wall-clock figures
are printed beside the table.
"""
from __future__ import annotations

import gc
import heapq
import random
import time
from typing import List, Sequence

#: The kernel's time on the host the bounds were set on (2-vCPU Xeon, a
#: quiet phase), so that times at reference speed read as seconds there.
REFERENCE_S = 0.5


def kernel() -> float:
    """A fixed unit of interpreter work: dict lookups, small lists and a
    bounded heap, over a working set of a few MiB. Do not change it:
    every reported time is scaled by its duration."""
    n, rounds = 30000, 6
    rng = random.Random(12345)
    table = {i: [i, rng.random(), (i * 7) % n] for i in range(n)}
    heap: list = []
    acc = 0.0
    for r in range(rounds):
        for i in range(n):
            entry = table[(i * 31 + r) % n]
            entry[1] = entry[1] * 0.5 + 0.25
            heapq.heappush(heap, (entry[1], entry[2], r))
            if len(heap) > 512:
                acc += heapq.heappop(heap)[1]
        table = {k: [v[2], v[1], v[0]] for k, v in table.items()}
    return acc


def reference_s() -> float:
    """Wall seconds of one :func:`kernel` run, after a garbage collection."""
    gc.collect()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def bracketed(kernels: Sequence[float]) -> List[float]:
    """Kernel seconds beside each unit of ``K U K U ... U K``: the mean of
    the kernel runs before and after it."""
    return [(before + after) / 2 for before, after in zip(kernels, kernels[1:])]


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured beside kernel runs of ``kernel_s`` seconds,
    scaled to the reference speed."""
    return seconds * REFERENCE_S / kernel_s
