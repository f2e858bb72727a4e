"""Linear-time deadlock decision for wildcard-free sequences.

For programs without ``MPI_ANY_SOURCE`` (and without runtime-steered
completions), MPI matching is *deterministic*: per-channel FIFO plus
the non-overtaking rule pin every pairing, so all schedules reach the
same terminal configuration (the matching-order theorem of
arXiv:0709.3692 — a single interleaving decides deadlock for the
wildcard-free fragment). The match-set explorer would enumerate one
chain of singleton ample sets anyway; this module replays that unique
matching directly, in ``O(ops + requests)``:

* message channels ``(comm, src, dst)`` keep per-tag **and**
  arrival-order queues (lazy deletion), so a directed receive — with a
  concrete tag or ``ANY_TAG`` — takes its match in O(1) amortized;
* pending receives are indexed the same way, so an arriving send finds
  the earliest compatible posted receive in O(1);
* parked ``WAIT``/``WAITALL`` ranks hold their undone-request set and
  are woken by request completion, never re-scanned;
* collective waves count arrivals and release everyone on the last.

Recorded traces (``repro lint`` on a ``.json`` file) additionally
carry runtime-steered calls with their observed outcome: ``Iprobe``
and ``Test*`` never block, and ``Waitany``/``Waitsome`` complete the
requests at their recorded ``completed_indices`` (without a recorded
outcome they are refused). Extraction marks all of these inexact, so
statically extracted programs never reach them.

The terminal state is classified by the explorer's own
:meth:`~repro.analysis.explore._Model.classify_terminal`: blocked
ranks become :class:`WaitForCondition` records, fed to the AND⊕OR
wait-for graph and :func:`~repro.wfg.detect.detect_deadlock`. The
processing order is a feasible issue order, so a deadlock verdict
carries a replayable :class:`~repro.analysis.witness.WitnessSchedule`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.explore import (
    _BUFFERED_SEND_KINDS,
    _LOCAL_KINDS,
    _RENDEZVOUS_BLOCKING_SENDS,
    _WAIT_PARK_KINDS,
    ExplorationUnsupported,
    TerminalView,
    _Model,
)
from repro.analysis.witness import WitnessSchedule
from repro.core.waitfor import WaitForCondition
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    OpKind,
    is_collective_kind,
    is_recv_kind,
    is_send_kind,
)
from repro.mpi.ops import Operation, OpRef
from repro.util.errors import ReproError
from repro.wfg.detect import DetectionResult, detect_deadlock
from repro.wfg.graph import WaitForGraph

_NONBLOCKING_RECVS = frozenset({OpKind.IRECV, OpKind.PSTART_RECV})
#: Calls that never block and leave the matching alone (the explorer
#: counts ``Iprobe`` among its rank-local kinds).
_NEVER_BLOCKING = frozenset(
    {
        OpKind.TEST,
        OpKind.TESTALL,
        OpKind.TESTANY,
        OpKind.TESTSOME,
    }
)
_SUPPORTED_KINDS = (
    frozenset(_BUFFERED_SEND_KINDS)
    | _RENDEZVOUS_BLOCKING_SENDS
    | _LOCAL_KINDS
    | _NONBLOCKING_RECVS
    | _NEVER_BLOCKING
    | _WAIT_PARK_KINDS
    | {
        OpKind.ISEND, OpKind.ISSEND, OpKind.PSTART_SEND,
        OpKind.RECV, OpKind.PROBE,
        OpKind.FINALIZE,
    }
)


class LinearMatchUnsupported(ReproError):
    """The sequences fall outside the wildcard-free linear fragment.

    ``wildcard`` is the first unresolved ``MPI_ANY_SOURCE`` receive or
    probe when that is why the sequences were refused.
    """

    def __init__(
        self, message: str, wildcard: Optional[Operation] = None
    ) -> None:
        super().__init__(message)
        self.wildcard = wildcard


@dataclass
class LinearMatchResult:
    """Terminal configuration of the unique wildcard-free matching."""

    #: True when the wait-for analysis of the terminal configuration
    #: found a deadlock (same detector as the explorer/runtime).
    has_deadlock: bool
    ops_processed: int
    deadlocked: Tuple[int, ...] = ()
    witness_cycle: Tuple[int, ...] = ()
    blocked_ops: Dict[int, OpRef] = field(default_factory=dict)
    conditions: Dict[int, WaitForCondition] = field(default_factory=dict)
    graph: Optional[WaitForGraph] = None
    detection: Optional[DetectionResult] = None
    witness: Optional[WitnessSchedule] = None


@dataclass
class _Entry:
    """A queued message or posted receive (lazily deleted)."""

    op: Operation
    matched: bool = False


class _Channel:
    """Send/receive queues of one directed ``(comm, src, dst)`` pair."""

    __slots__ = ("sends_all", "sends_by_tag", "recvs_any", "recvs_by_tag")

    def __init__(self) -> None:
        self.sends_all: Deque[_Entry] = deque()
        self.sends_by_tag: Dict[int, Deque[_Entry]] = {}
        #: Posted receives that used ANY_TAG.
        self.recvs_any: Deque[_Entry] = deque()
        self.recvs_by_tag: Dict[int, Deque[_Entry]] = {}


def _head(queue: Optional[Deque[_Entry]]) -> Optional[_Entry]:
    """First live entry, dropping matched ones (lazy deletion)."""
    if queue is None:
        return None
    while queue:
        if queue[0].matched:
            queue.popleft()
        else:
            return queue[0]
    return None


class _Matcher:
    def __init__(
        self,
        sequences: Sequence[Sequence[Operation]],
        comms: CommRegistry,
        label: str,
    ) -> None:
        try:
            self.model = _Model(sequences, comms)
        except ExplorationUnsupported as exc:
            raise LinearMatchUnsupported(str(exc)) from None
        if self.model.wildcard_dst:
            wildcard = next(
                op
                for seq in self.model.seqs
                for op in seq
                if (is_recv_kind(op.kind) or op.is_probe())
                and op.peer == ANY_SOURCE
            )
            raise LinearMatchUnsupported(
                f"{wildcard.describe()} uses MPI_ANY_SOURCE with no "
                "observed match; the sequential model only covers "
                "deterministic matchings",
                wildcard,
            )
        self.label = label
        self.seqs = self.model.seqs
        self.p = self.model.p
        self.lens = self.model.lens
        self.comms = comms

        self.pcs = [0] * self.p
        self.parked = [False] * self.p
        self.channels: Dict[Tuple[int, int, int], _Channel] = {}
        #: Requests completed (matched / buffered), per rank.
        self.done: List[Set[int]] = [set() for _ in range(self.p)]
        #: Requests consumed by an executed completion, per rank.
        self.consumed: List[Set[int]] = [set() for _ in range(self.p)]
        #: Undone request ids a parked WAIT/WAITALL rank still needs.
        self.wait_needs: Dict[int, Set[int]] = {}
        #: Collective wave arrivals: (comm, wave idx) -> count.
        self.arrivals: Dict[Tuple[int, int], int] = {}
        #: First arrival of each wave, which later arrivals must match.
        self.wave_first: Dict[Tuple[int, int], Operation] = {}
        self.finalize_arrived = 0
        self.schedule: List[int] = []
        self.worklist: Deque[int] = deque(range(self.p))
        self.queued = [True] * self.p

    # -- infrastructure -------------------------------------------------

    def _channel(self, comm_id: int, src: int, dst: int) -> _Channel:
        key = (comm_id, src, dst)
        channel = self.channels.get(key)
        if channel is None:
            channel = _Channel()
            self.channels[key] = channel
        return channel

    def _wake(self, rank: int) -> None:
        if not self.queued[rank]:
            self.queued[rank] = True
            self.worklist.append(rank)

    def _advance(self, rank: int) -> None:
        self.pcs[rank] += 1
        self.parked[rank] = False

    def _finished(self, rank: int) -> bool:
        return self.pcs[rank] >= self.lens[rank]

    # -- request completion ---------------------------------------------

    def _complete_request(self, rank: int, request: int) -> None:
        self.done[rank].add(request)
        needs = self.wait_needs.get(rank)
        if needs is not None and request in needs:
            needs.discard(request)
            if not needs:
                del self.wait_needs[rank]
                wop = self.seqs[rank][self.pcs[rank]]
                self.consumed[rank].update(self._awaited(wop))
                self._advance(rank)
                self._wake(rank)

    def _send_matched(self, sop: Operation) -> None:
        """An in-flight send just paired with a receive."""
        rank = sop.rank
        if sop.kind in _RENDEZVOUS_BLOCKING_SENDS:
            # The sender is parked in this very op (strict b).
            self._advance(rank)
            self._wake(rank)
        elif sop.kind not in _BUFFERED_SEND_KINDS:
            assert sop.request is not None
            self._complete_request(rank, sop.request)

    def _recv_matched(self, rop: Operation) -> None:
        """A posted receive just paired with a message."""
        rank = rop.rank
        if rop.kind is OpKind.RECV:
            self._advance(rank)
            self._wake(rank)
        else:
            assert rop.request is not None
            self._complete_request(rank, rop.request)

    # -- matching -------------------------------------------------------

    def _match_send(self, op: Operation) -> None:
        """Engine send semantics: pair with the earliest compatible
        posted receive, else queue the message."""
        assert op.peer is not None
        channel = self._channel(op.comm_id, op.rank, op.peer)
        tagged = _head(channel.recvs_by_tag.get(op.tag))
        anytag = _head(channel.recvs_any)
        best: Optional[_Entry] = None
        for entry in (tagged, anytag):
            if entry is not None and (
                best is None or entry.op.ts < best.op.ts
            ):
                best = entry
        if best is not None:
            best.matched = True
            if op.request is not None:
                self.done[op.rank].add(op.request)
            self._advance(op.rank)
            self._recv_matched(best.op)
            return
        channel.sends_all.append(_Entry(op))
        channel.sends_by_tag.setdefault(op.tag, deque()).append(
            _Entry(op)
        )
        if op.kind in _RENDEZVOUS_BLOCKING_SENDS:
            self.parked[op.rank] = True
        else:
            if op.kind in _BUFFERED_SEND_KINDS and op.request is not None:
                self.done[op.rank].add(op.request)
            self._advance(op.rank)
        self._wake_parked_probe(op)

    def _take_send(
        self, channel: _Channel, tag: int
    ) -> Optional[Operation]:
        """Earliest live queued send compatible with ``tag``."""
        entry = (
            _head(channel.sends_all)
            if tag == ANY_TAG
            else _head(channel.sends_by_tag.get(tag))
        )
        if entry is None:
            return None
        entry.matched = True
        # The twin entry in the other index is now stale; mark it via
        # the shared Operation identity on its next _head scan.
        other = (
            channel.sends_by_tag.get(entry.op.tag)
            if tag == ANY_TAG
            else channel.sends_all
        )
        if other:
            for twin in other:
                if twin.op is entry.op:
                    twin.matched = True
                    break
        return entry.op

    def _match_recv(self, op: Operation) -> None:
        assert op.peer is not None
        channel = self._channel(op.comm_id, op.peer, op.rank)
        sop = self._take_send(channel, op.tag)
        if sop is not None:
            if op.kind is OpKind.RECV:
                self._advance(op.rank)
            else:
                assert op.request is not None
                self.done[op.rank].add(op.request)
                self._advance(op.rank)
            self._send_matched(sop)
            return
        entry = _Entry(op)
        if op.tag == ANY_TAG:
            channel.recvs_any.append(entry)
        else:
            channel.recvs_by_tag.setdefault(op.tag, deque()).append(entry)
        if op.kind is OpKind.RECV:
            self.parked[op.rank] = True
        else:
            self._advance(op.rank)

    def _match_probe(self, op: Operation) -> None:
        assert op.peer is not None
        channel = self._channel(op.comm_id, op.peer, op.rank)
        entry = (
            _head(channel.sends_all)
            if op.tag == ANY_TAG
            else _head(channel.sends_by_tag.get(op.tag))
        )
        if entry is not None:
            self._advance(op.rank)
        else:
            self.parked[op.rank] = True

    def _wake_parked_probe(self, sop: Operation) -> None:
        dst = sop.peer
        assert dst is not None
        if dst >= self.p or self._finished(dst) or not self.parked[dst]:
            return
        wop = self.seqs[dst][self.pcs[dst]]
        if wop.kind is not OpKind.PROBE or wop.comm_id != sop.comm_id:
            return
        if wop.peer != sop.rank:
            return
        if wop.tag not in (ANY_TAG, sop.tag):
            return
        self._advance(dst)
        self._wake(dst)

    # -- completions, collectives, finalize ------------------------------

    def _request_done(self, rank: int, request: int) -> bool:
        if request in self.done[rank]:
            return True
        creator = self.model.creators[rank].get(request)
        if creator is None:
            raise LinearMatchUnsupported(
                f"rank {rank} completes unknown request {request} "
                "(the engine would raise an MPI usage error)"
            )
        return False

    @staticmethod
    def _awaited(op: Operation) -> Tuple[int, ...]:
        """Requests a wait completes: all of them, or the recorded
        outcome of a ``Waitany``/``Waitsome``."""
        if op.kind in (OpKind.WAIT, OpKind.WAITALL):
            return op.requests
        if not op.completed_indices or not all(
            0 <= i < len(op.requests) for i in op.completed_indices
        ):
            raise LinearMatchUnsupported(
                f"{op.describe()} has no recorded outcome; which request "
                "completes is steered by the runtime"
            )
        return tuple(op.requests[i] for i in op.completed_indices)

    def _exec_completion(self, op: Operation) -> None:
        rank = op.rank
        awaited = self._awaited(op)
        for request in awaited:
            if request in self.consumed[rank]:
                raise LinearMatchUnsupported(
                    f"rank {rank} reuses already-completed request "
                    f"{request}"
                )
        needs = {
            request for request in awaited
            if not self._request_done(rank, request)
        }
        if not needs:
            self.consumed[rank].update(awaited)
            self._advance(rank)
            return
        self.wait_needs[rank] = needs
        self.parked[rank] = True

    def _exec_collective(self, op: Operation) -> None:
        """Arrive at a wave; the last member releases everyone."""
        rank = op.rank
        comm_id, idx = self.model.wave_of[op.ref]
        key = (comm_id, idx)
        try:
            self.model.check_arrival(op, self.wave_first.get(key))
        except ExplorationUnsupported as exc:
            raise LinearMatchUnsupported(str(exc)) from None
        self.wave_first.setdefault(key, op)
        group = self.comms.get(comm_id).group
        self.parked[rank] = True
        self.arrivals[key] = self.arrivals.get(key, 0) + 1
        if self.arrivals[key] != len(group):
            return
        members = self.model.wave_members[key]
        for member in group:
            if self.pcs[member] == members[member] and self.parked[member]:
                self._advance(member)
                self._wake(member)

    def _exec_finalize(self, op: Operation) -> None:
        self.parked[op.rank] = True
        self.finalize_arrived += 1
        if self.finalize_arrived != self.p:
            return
        for member in range(self.p):
            ts = self.model.finalize_ts[member]
            if (
                ts is not None
                and self.pcs[member] == ts
                and self.parked[member]
            ):
                self._advance(member)
                self._wake(member)

    # -- the run loop ---------------------------------------------------

    def run(self) -> None:
        while self.worklist:
            rank = self.worklist.popleft()
            self.queued[rank] = False
            while not self._finished(rank) and not self.parked[rank]:
                op = self.seqs[rank][self.pcs[rank]]
                self._check_supported(op)
                self.schedule.append(rank)
                self._exec(op)

    def _check_supported(self, op: Operation) -> None:
        kind = op.kind
        if is_collective_kind(kind):
            return
        if kind not in _SUPPORTED_KINDS:
            raise LinearMatchUnsupported(
                f"{kind.value} is outside the linear wildcard-free "
                "fragment"
            )

    def _exec(self, op: Operation) -> None:
        kind = op.kind
        if op.is_p2p() and op.peer == PROC_NULL:
            if op.request is not None:
                self.done[op.rank].add(op.request)
            self._advance(op.rank)
        elif is_send_kind(kind):
            self._match_send(op)
        elif is_recv_kind(kind):
            self._match_recv(op)
        elif kind is OpKind.PROBE:
            self._match_probe(op)
        elif kind in _WAIT_PARK_KINDS:
            self._exec_completion(op)
        elif kind is OpKind.FINALIZE:
            self._exec_finalize(op)
        elif is_collective_kind(kind):
            self._exec_collective(op)
        elif kind in _LOCAL_KINDS or kind in _NEVER_BLOCKING:
            self._advance(op.rank)
        else:  # pragma: no cover - _check_supported gates this
            raise LinearMatchUnsupported(f"cannot match {kind.value}")

    # -- terminal classification ----------------------------------------

    def classify(self) -> LinearMatchResult:
        blocked, finished, conditions = self.model.classify_terminal(
            TerminalView(
                pcs=self.pcs,
                parked=self.parked,
                consumed=self.consumed,
                request_done=lambda creator: (
                    creator.request in self.done[creator.rank]
                ),
            )
        )
        result = LinearMatchResult(
            has_deadlock=False, ops_processed=len(self.schedule)
        )
        if not blocked:
            return result
        graph = WaitForGraph.from_conditions(
            self.p, conditions.values(), finished=finished
        )
        detection = detect_deadlock(graph)
        result.blocked_ops = dict(blocked)
        result.conditions = conditions
        result.graph = graph
        result.detection = detection
        if detection.has_deadlock:
            result.has_deadlock = True
            result.deadlocked = detection.deadlocked
            result.witness_cycle = tuple(detection.witness_cycle)
            result.witness = WitnessSchedule(
                num_ranks=self.p,
                schedule=list(self.schedule),
                pinnings={},
                deadlocked=detection.deadlocked,
                blocked_ops=dict(blocked),
                witness_cycle=tuple(detection.witness_cycle),
                label=self.label,
            )
        return result


def match_linear(
    sequences: Sequence[Sequence[Operation]],
    comms: CommRegistry,
    *,
    label: str = "",
) -> LinearMatchResult:
    """Decide deadlock for wildcard-free ``sequences`` in linear time.

    Raises :class:`LinearMatchUnsupported` when the sequences use
    wildcards or runtime-steered completions — callers fall back to
    :func:`repro.analysis.explore.explore_sequences`.
    """
    matcher = _Matcher(sequences, comms, label)
    matcher.run()
    return matcher.classify()
