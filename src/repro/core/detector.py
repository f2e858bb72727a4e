"""The tool facade: distributed MPI deadlock detection end to end.

:class:`DistributedDeadlockDetector` assembles the full Figure 1(b)
architecture over a matched trace: a TBON of the requested fan-in,
first-layer nodes running distributed p2p matching + wait state
tracking, interior aggregation nodes, and the root with tree-wide
collective matching and graph-based detection. Application ranks
stream their intercepted operations into the tree on a simulated
clock; detections fire after quiescence (the paper's timeout) and/or
at requested simulated times (mid-run detections).

The result exposes the stable distributed state, every detection
record (graph, verdict, phase breakdown, DOT/HTML), message statistics
and peak trace-window sizes — everything the evaluation section
reports.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.core.distributed import FirstLayerNode
from repro.core.messages import NewOpMsg, RankDoneMsg
from repro.core.treenodes import DetectionRecord, InteriorNode, RootNode
from repro.mpi.ops import Operation
from repro.mpi.trace import MatchedTrace
from repro.obs.flight import FlightRecorder
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.tbon.network import LatencyModel, Network, jittered_latency
from repro.tbon.topology import TbonTopology
from repro.util.errors import ProtocolError


@dataclass
class DistributedOutcome:
    """Result of running the distributed tool over one trace."""

    topology: TbonTopology
    #: Stable per-process timestamps after all events settled — equals
    #: the transition system's terminal state when the tool is correct.
    stable_state: Tuple[int, ...]
    detections: List[DetectionRecord] = field(default_factory=list)
    messages_sent: int = 0
    bytes_sent: int = 0
    simulated_seconds: float = 0.0
    peak_window: int = 0
    node_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)

    @property
    def detection(self) -> DetectionRecord:
        if not self.detections:
            raise ValueError("no detection was run")
        return self.detections[-1]

    @property
    def has_deadlock(self) -> bool:
        return any(d.has_deadlock for d in self.detections)

    @property
    def deadlocked(self) -> Tuple[int, ...]:
        for record in reversed(self.detections):
            if record.has_deadlock:
                assert record.result is not None
                return record.result.deadlocked
        return ()


class DistributedDeadlockDetector:
    """Drive the distributed tool over a matched trace."""

    def __init__(
        self,
        matched: MatchedTrace,
        *,
        fan_in: int = 4,
        seed: int = 0,
        latency_model: LatencyModel | None = None,
        window_limit: int = 1_000_000,
        generate_outputs: bool = True,
        op_gap: float = 1e-6,
        observer: Observer | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self.matched = matched
        self.trace = matched.trace
        self.observer = observer if observer is not None else NULL_OBSERVER
        # The flight recorder is ON by default (bounded ring, O(1)
        # appends); pass a NullFlightRecorder to opt out.
        self.flight = flight if flight is not None else FlightRecorder()
        p = self.trace.num_processes
        self.topology = TbonTopology.build(p, fan_in)
        self.net = Network(
            latency_model or jittered_latency(seed), observer=self.observer
        )
        self._rng = random.Random(seed)
        self._op_gap = op_gap
        #: Per rank: its ops, injection times (one more than ops, for
        #: RankDone) and host, and the ``seq`` of its first injection.
        self._injections: List[
            Tuple[Tuple[Operation, ...], List[float], int, int]
        ] = []
        self.first_layer: Dict[int, FirstLayerNode] = {}
        for node_id in self.topology.first_layer:
            node = FirstLayerNode(
                node_id,
                self.topology,
                matched.comms,
                window_limit=window_limit,
                flight=self.flight,
            )
            self.first_layer[node_id] = node
            self.net.attach(node)
        self.root = RootNode(
            self.topology.root,
            self.topology,
            matched.comms,
            generate_outputs=generate_outputs,
            flight=self.flight,
        )
        self.net.attach(self.root)
        for layer in self.topology.layers[2:-1]:
            for node_id in layer:
                self.net.attach(
                    InteriorNode(node_id, self.topology, matched.comms)
                )

    # ------------------------------------------------------------------

    def _schedule_events(self) -> None:
        """Inject every rank's operations in order, with seeded skew.

        Every injection time is drawn up front, rank-major, and every
        injection owns one number of a reserved ``seq`` block in that
        same order. Only each rank's first injection is armed; each one
        arms its rank's next as it fires. The heap thus holds one
        injection per rank plus what is in flight, not the whole trace,
        and pops in the same ``(time, seq)`` order as if every
        injection had been scheduled here: a successor's key exceeds
        its predecessor's, and it is armed when the predecessor pops.
        """
        gap = self._op_gap
        rng = self._rng
        sequences = [
            self.trace.sequence(r) for r in range(self.trace.num_processes)
        ]
        seq = self.net.reserve_seqs(sum(len(ops) + 1 for ops in sequences))
        for rank, ops in enumerate(sequences):
            t = rng.random() * gap * 4
            times = [t]
            for _ in ops:
                t += gap * (0.5 + rng.random())
                times.append(t)
            host = self.topology.host_of_rank(rank)
            self._injections.append((ops, times, host, seq))
            self.net.call_at(times[0], partial(self._inject, rank, 0), seq=seq)
            seq += len(times)

    def _inject(self, rank: int, index: int) -> None:
        """Stream ``rank``'s ``index``-th op (its RankDone after the
        last) and arm the rank's next injection."""
        ops, times, host, seq0 = self._injections[rank]
        if index == len(ops):
            self.net.send(rank, host, RankDoneMsg(rank), RankDoneMsg.wire_size)
            return
        self.net.send(rank, host, NewOpMsg(ops[index]), NewOpMsg.wire_size)
        index += 1
        self.net.call_at(
            times[index], partial(self._inject, rank, index), seq=seq0 + index
        )

    def run(
        self,
        *,
        detect_at_end: bool = True,
        detect_at: Sequence[float] = (),
    ) -> DistributedOutcome:
        """Stream the trace, run detections, return the outcome.

        ``detect_at`` schedules mid-run detections at the given
        simulated times (the paper's timeout-driven detections during
        execution); ``detect_at_end`` runs one detection after all
        events settled — the one that sees the terminal state.
        """
        self._schedule_events()
        for t in detect_at:
            self.net.call_at(t, lambda: self.root.start_detection(self.net))
        self.net.run()
        if detect_at_end:
            self.root.start_detection(self.net)
            self.net.run()
        if not self.net.idle():
            raise ProtocolError("network did not quiesce")
        for record in self.root.completed_detections:
            if not record.complete:
                raise ProtocolError(
                    f"detection {record.detection_id} incomplete"
                )
        state = [0] * self.trace.num_processes
        peak = 0
        node_stats: Dict[int, Dict[str, int]] = {}
        for node in self.first_layer.values():
            for rank, l in node.state_vector().items():
                state[rank] = l
            peak = max(peak, node.peak_window_size())
            node_stats[node.node_id] = dict(node.stats)
        node_stats[self.root.node_id] = dict(self.root.stats)
        if self.observer.enabled:
            metrics = self.observer.metrics
            metrics.set_gauge("tbon.peak_window", peak)
            metrics.set_gauge("tbon.simulated_seconds", self.net.now)
            metrics.set_gauge("tbon.messages_total", self.net.messages_sent)
            metrics.set_gauge("tbon.bytes_total", self.net.bytes_sent)
        return DistributedOutcome(
            topology=self.topology,
            stable_state=tuple(state),
            detections=list(self.root.completed_detections),
            messages_sent=self.net.messages_sent,
            bytes_sent=self.net.bytes_sent,
            simulated_seconds=self.net.now,
            peak_window=peak,
            node_stats=node_stats,
        )


def detect_deadlocks_distributed(
    matched: MatchedTrace,
    *,
    fan_in: int = 4,
    seed: int = 0,
    generate_outputs: bool = True,
    window_limit: int = 1_000_000,
    observer: Observer | None = None,
    flight: FlightRecorder | None = None,
) -> DistributedOutcome:
    """One-call convenience wrapper: stream, settle, detect once."""
    detector = DistributedDeadlockDetector(
        matched,
        fan_in=fan_in,
        seed=seed,
        generate_outputs=generate_outputs,
        window_limit=window_limit,
        observer=observer,
        flight=flight,
    )
    return detector.run()
