"""The three batch workloads: ``stress``, ``wildcard``, ``lammps-sharded``.

Each workload hands one input to the system per iteration and holds
the verdict and its reports when the iteration ends. The full-size
input is the workload; a quarter-size input, timed in the same run,
feeds ``scale_4x``. Outputs are checked after the timed region.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Result:
    """What one iteration hands back: the verdict and what it ran on."""

    outcome: Any
    lengths: Tuple[int, ...]
    steps: int = 0


def _lengths(matched: Any) -> Tuple[int, ...]:
    trace = matched.trace
    return tuple(len(trace.sequence(r)) for r in range(trace.num_processes))


def _report_bytes(detection: Any) -> int:
    total = len(detection.dot_text or "") + len(detection.html_report or "")
    if detection.json_report:
        total += len(json.dumps(detection.json_report))
    return total


class BatchWorkload:
    """Inputs, one iteration, its output check and its layer counts."""

    name = ""
    #: Ranks of the full-size input (the quarter input has p / 4).
    ranks = 0

    def __init__(self, plan: Dict[str, Any]) -> None:
        self.plan = plan
        self.seed = int(plan["seed"])
        self.ranks = int(plan.get("ranks", self.ranks))
        self.session: Any = None

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self) -> Tuple[Any, Any]:
        """``(full, quarter)`` inputs."""
        raise NotImplementedError

    def iterate(self, item: Any) -> Result:
        raise NotImplementedError

    def check(self, result: Result, item: Any) -> bool:
        raise NotImplementedError

    def counts(self, result: Result, item: Any) -> Dict[str, float]:
        """Per-layer counts the program already returns."""
        outcome = result.outcome
        counts: Dict[str, float] = {
            "runtime.ops": float(sum(result.lengths)),
            "runtime.steps": float(result.steps),
            "track.peak_window": float(outcome.peak_window),
            "transport.msgs": float(outcome.messages_sent),
            "transport.bytes": float(outcome.bytes_sent),
            "wfg.deadlocked": float(len(outcome.deadlocked)),
        }
        if outcome.detections:
            detection = outcome.detection
            counts["sync.simulated_s"] = detection.timers.elapsed("synchronization")
            if detection.graph is not None:
                counts["wfg.arcs"] = float(detection.graph.arc_count())
                counts["wfg.nodes"] = float(len(detection.graph.nodes))
            counts["output.bytes"] = float(_report_bytes(detection))
        return counts

    def drop(self) -> None:
        """Release the previous iteration's run, outcome and reports."""
        self.session.reset()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class _InlineRecordAnalyze(BatchWorkload):
    """Rank programs recorded on the virtual runtime, then analyzed."""

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session(seed=self.seed)

    def programs(self, p: int) -> List[Any]:
        raise NotImplementedError

    def inputs(self) -> Tuple[Any, Any]:
        return self.programs(self.ranks), self.programs(self.ranks // 4)

    def iterate(self, item: Any) -> Result:
        run = self.session.record(item)
        outcome = self.session.analyze(run)
        return Result(outcome, _lengths(run.matched), run.steps)


class Stress(_InlineRecordAnalyze):
    """Fig. 9: cyclic Isend/Recv/Wait exchange, barrier every 10."""

    name = "stress"
    ranks = 512

    def programs(self, p: int) -> List[Any]:
        from repro.workloads.stress import stress_programs

        return stress_programs(p, iterations=20)

    def check(self, result: Result, item: Any) -> bool:
        # Clean, and every rank's stable timestamp sits on its last
        # operation (its MPI_Finalize, index length - 1).
        outcome = result.outcome
        settled = tuple(n - 1 for n in result.lengths)
        return not outcome.has_deadlock and outcome.stable_state == settled


class Wildcard(_InlineRecordAnalyze):
    """Fig. 10: every rank blocks in Recv(ANY); p * (p - 1) OR arcs."""

    name = "wildcard"
    ranks = 1024

    def programs(self, p: int) -> List[Any]:
        from repro.workloads.wildcard import wildcard_deadlock_programs

        return wildcard_deadlock_programs(p)

    def check(self, result: Result, item: Any) -> bool:
        outcome = result.outcome
        p = len(result.lengths)
        if tuple(outcome.deadlocked) != tuple(range(p)):
            return False
        detection = outcome.detection
        return bool(
            detection.result.witness_cycle
            and detection.dot_text
            and detection.html_report
            and detection.json_report
        )


class LammpsSharded(BatchWorkload):
    """Fig. 11 offline: a recorded lammps trace file, loaded and analyzed
    on the sharded backend (two worker processes)."""

    name = "lammps-sharded"
    ranks = 1024

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session(backend="sharded", shards=2, seed=self.seed)

    def inputs(self) -> Tuple[Any, Any]:
        return self.plan["traces"]["full"], self.plan["traces"]["quarter"]

    def iterate(self, item: Dict[str, Any]) -> Result:
        from repro.mpi import serialize

        matched = serialize.load_trace(item["path"])
        outcome = self.session.analyze(matched)
        return Result(outcome, _lengths(matched))

    def check(self, result: Result, item: Dict[str, Any]) -> bool:
        # The inline backend's verdict on the same trace, computed
        # before timing.
        outcome = result.outcome
        return (
            outcome.has_deadlock == item["deadlock"]
            and list(outcome.deadlocked) == item["deadlocked"]
        )

    def counts(self, result: Result, item: Dict[str, Any]) -> Dict[str, float]:
        counts = super().counts(result, item)
        counts["serialize.bytes"] = float(os.path.getsize(item["path"]))
        timing: Optional[Dict[str, Any]] = self.session.backend.last_timing
        if timing:
            shard_busy = timing["shard_busy_seconds"]
            counts.update(
                {
                    "sharded.coordinator_busy_s": timing["coordinator_busy_seconds"],
                    "sharded.shard_busy_max_s": max(shard_busy, default=0.0),
                    "sharded.shard_busy_sum_s": sum(shard_busy),
                    "sharded.wait_s": (
                        timing["wall_seconds"] - timing["coordinator_busy_seconds"]
                    ),
                    "sharded.rounds": float(timing["rounds"]),
                    "sharded.cross_shard_msgs": float(timing["cross_shard_messages"]),
                }
            )
        return counts


WORKLOADS = {cls.name: cls for cls in (Stress, Wildcard, LammpsSharded)}
