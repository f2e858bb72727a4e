"""Golden pin of inline-pipeline outcomes (record on the virtual runtime,
then analyze on the simulated TBON).

Every field pinned here is a deterministic function of the programs
and the seed: runtime steps and matches, message/byte counts, the
exact simulated clock (``repr`` of the float), the stable state, peak
window, per-node stats and every detection's verdict and WFG arcs.
Any change to the transport's event order, the injection schedule or
the runtime's wave handling that is not a pure reordering of equal
work shows up as a diff against ``tests/golden/inline_outcomes.json``.

Regenerate (only when an outcome change is intended) with::

    PYTHONPATH=src python -m tests.integration.test_inline_outcomes --write
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence

import pytest

from repro.core.detector import DistributedDeadlockDetector
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.constants import ANY_SOURCE
from repro.runtime import run_programs
from repro.runtime.program import Call, Rank
from repro.workloads import (
    fig2a_programs,
    lammps_skeleton_programs,
    stress_programs,
    wildcard_deadlock_programs,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "inline_outcomes.json"
SEEDS = (0, 7)
#: Mid-run detections fire at these fractions of the seed-0 run's
#: simulated time; the resulting absolute times are pinned too.
DETECT_FRACTIONS = (0.25, 0.5, 0.75)


def rooted_collective_programs(p: int = 6) -> List[Callable[[Rank], Iterator[Call]]]:
    """Bcast/scatter roots arrive late; reduce/gather roots park.

    Under relaxed semantics the non-roots of the bcast (root 0) and the
    scatter (root 1) park until their root arrives, the reduce (root 2)
    and gather (root 3) non-roots leave at once while the roots wait
    for the whole wave. A closing wildcard fan-in makes the match
    order depend on the interleaving the waves produced.
    """

    def worker(rank: Rank) -> Iterator[Call]:
        me, last = rank.rank, rank.size - 1
        if me == 0:
            yield rank.recv(source=last, nbytes=4)
        if me == last:
            yield rank.send(dest=0, nbytes=4)
        yield rank.bcast(root=0)
        if me == 1:
            yield rank.recv(source=0, nbytes=4)
        if me == 0:
            yield rank.send(dest=1, nbytes=4)
        yield rank.scatter(root=1)
        yield rank.reduce(root=2)
        yield rank.gather(root=3)
        if me == 0:
            for _ in range(last):
                yield rank.recv(source=ANY_SOURCE, nbytes=4)
        else:
            yield rank.send(dest=0, nbytes=4)
        yield rank.barrier()
        yield rank.finalize()

    return [worker] * p


CASES: Dict[str, Callable[[], Sequence[Any]]] = {
    "stress-64": lambda: stress_programs(64, iterations=20),
    "lammps-32": lambda: lammps_skeleton_programs(32),
    "wildcard-16": lambda: wildcard_deadlock_programs(16),
    "fig2a": fig2a_programs,
    "rooted-collectives-8": lambda: rooted_collective_programs(8),
}


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _detection(record: Any) -> Dict[str, Any]:
    graph = record.graph
    result = record.result
    return {
        "id": record.detection_id,
        "requested_at": repr(record.requested_at),
        "consistent_at": repr(record.consistent_at),
        "gathered_at": repr(record.gathered_at),
        "has_deadlock": record.has_deadlock,
        "deadlocked": list(result.deadlocked) if result is not None else None,
        "arcs": (
            " ".join(f"{s}>{d}:{c}" for s, d, c in sorted(graph.arcs()))
            if graph is not None
            else None
        ),
    }


def outcome_of(case: str, seed: int, detect_at: Sequence[float] = ()) -> Dict[str, Any]:
    """Record ``case`` at ``seed`` (relaxed runtime) and analyze it."""
    run = run_programs(
        CASES[case](), semantics=BlockingSemantics.relaxed(), seed=seed
    )
    matched = run.matched
    trace = matched.trace
    out = DistributedDeadlockDetector(matched, seed=seed).run(detect_at=detect_at)
    return {
        "steps": run.steps,
        "runtime_deadlocked": run.deadlocked,
        "hung": sorted([r, list(ref)] for r, ref in run.hung.items()),
        "lengths": [len(trace.sequence(r)) for r in range(trace.num_processes)],
        "p2p_matches": _digest(sorted(matched.send_of.items())),
        "messages_sent": out.messages_sent,
        "bytes_sent": out.bytes_sent,
        "simulated_seconds": repr(out.simulated_seconds),
        "stable_state": list(out.stable_state),
        "peak_window": out.peak_window,
        "node_stats": {str(n): s for n, s in sorted(out.node_stats.items())},
        "deadlocked": list(out.deadlocked),
        "detections": [_detection(d) for d in out.detections],
    }


def compute_golden() -> Dict[str, Any]:
    golden: Dict[str, Any] = {}
    for case in CASES:
        runs: Dict[str, Any] = {}
        for seed in SEEDS:
            runs[f"seed={seed}"] = outcome_of(case, seed)
        horizon = float(runs[f"seed={SEEDS[0]}"]["simulated_seconds"])
        detect_at = [horizon * f for f in DETECT_FRACTIONS]
        runs["detect_at"] = {
            "seed": SEEDS[1],
            "times": [repr(t) for t in detect_at],
            "outcome": outcome_of(case, SEEDS[1], detect_at),
        }
        golden[case] = runs
    return golden


def _load() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_outcome_matches_golden(case, seed):
    assert outcome_of(case, seed) == _load()[case][f"seed={seed}"]


@pytest.mark.parametrize("case", list(CASES))
def test_mid_run_detections_match_golden(case):
    pinned = _load()[case]["detect_at"]
    times = [float(t) for t in pinned["times"]]
    got = outcome_of(case, pinned["seed"], times)
    assert got == pinned["outcome"]
    # The mid-run detections really ran (plus the final one).
    assert len(got["detections"]) == len(times) + 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.integration.test_inline_outcomes --write")
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
