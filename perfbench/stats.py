"""Summary statistics of the time-to-verdict ledger.

Pure functions over lists of samples, shared by the runner, the
driver-facing summary and the benchmark's own tests.
"""
from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

#: Seconds the benchmark waits for one verdict before it gives up. A
#: failed or refused iteration or job is ranked at this limit, so that a
#: fix turning a failure into a success can never worsen a percentile.
TIMEOUT_S = 30.0

#: The tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def ranked_latency(elapsed: float, ok: bool) -> float:
    """The latency a sample is ranked at.

    A success keeps its measured time. A failure is ranked at the
    timeout plus the time the caller spent before it saw the failure:
    it sorts behind every success (which all finish inside the
    timeout) and still carries a measured part, so two failed runs
    never read exactly alike.
    """
    return elapsed if ok else TIMEOUT_S + elapsed


def scale_ratios(pairs: Sequence[Tuple[float, float, bool]]) -> List[float]:
    """Ranked ``scale_4x`` ratios of ``(large, small, ok)`` input pairs.

    ``ok`` is false when either side of the pair failed. A passing
    pair keeps ``large / small``. A failed pair is ranked above every
    passing pair of the run, and above the timeout, plus its measured
    ratio: a failure on the small side can never shrink the ratio, and
    a fix turning a failed pair into a passing one never raises it.
    """
    passing = [large / small for large, small, ok in pairs if ok]
    ceiling = max(passing + [TIMEOUT_S])
    return [
        large / small if ok else ceiling + large / small
        for large, small, ok in pairs
    ]


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the tail latency.

    The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it, which is p90 or above from 100 samples on. A shorter
    run leaves a tenth of its samples beyond the tail, and at least
    one (below 20 samples, the second slowest): never the single
    slowest sample, which on a shared host is the least repeatable
    number a run has.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, max(1, n // 10)) if n > 1 else 0
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return float(statistics.median(samples))

