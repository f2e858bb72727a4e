"""Per-operation state objects and sliding windows (Section 4.1/4.2).

Each first-layer TBON node represents every hosted operation with an
object storing the attributes the paper names: the timestamp ``o.l``,
the matched send's timestamp ``o.l_s``, ``o.active``,
``o.gotRecvActive``, and ``o.canAdvance``. We additionally keep a
``completion_satisfied`` flag on request-creating operations — the
per-target fact that rule (4) completions aggregate — and sticky
``activated`` (an operation stays "activated" once its process's
timestamp reached it, matching the ``l_k >= n`` premises).

:class:`RankWindow` is the paper's trace window (Section 4.2): a node
never stores a full process trace; operations are evicted once the
transition system passed them *and* no pending protocol obligation
(outstanding recvActive handshake, unconsumed request) still needs
them. Window growth beyond a limit reproduces the paper's
128.GAPgeofem memory-exhaustion condition as a detectable
:class:`~repro.util.errors.ResourceLimitError`.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mpi.blocking import BlockingSemantics, is_blocking
from repro.mpi.constants import OpKind, completion_needs_all
from repro.mpi.ops import Operation, OpRef
from repro.util.errors import ProtocolError, ResourceLimitError

_STRICT = BlockingSemantics.strict()

# Requests completing locally regardless of matching (rule 4 treats
# them as always satisfied).
_LOCAL_COMPLETION_KINDS = frozenset({OpKind.IBSEND, OpKind.IRSEND})


@dataclass
class OpState:
    """Tool-side state of one hosted operation (Figure 7's ``o``)."""

    op: Operation
    #: ``o.active``: the operation is the process's *current* operation.
    active: bool = False
    #: Sticky activation: the process timestamp reached this operation
    #: at some point (the ``l_k >= n`` sense of "active").
    activated: bool = False
    #: ``o.l_s``: reference of the matched send (receives/probes).
    matched_send: Optional[OpRef] = None
    #: ``o.l_r``: reference of the matched receive (sends).
    matched_recv: Optional[OpRef] = None
    #: ``o.gotRecvActive``.
    got_recv_active: bool = False
    #: A recvActiveAck arrived for this receive/probe.
    got_ack: bool = False
    #: collectiveAck arrived for this collective's wave.
    collective_acked: bool = False
    #: Rule-4 per-target fact: this request-creating op is matched with
    #: an *activated* partner (or completes locally).
    completion_satisfied: bool = False
    #: Probes that matched this send and await its activation.
    pending_probe_acks: List[OpRef] = field(default_factory=list)
    #: Observability: simulated time of activation (-1 = untracked);
    #: the dwell-time histograms measure activation -> advance.
    activated_at: float = -1.0
    #: ``canAdvance`` evaluated False at least once, so a later advance
    #: counts as a canAdvance flip (also feeds the flight recorder).
    was_blocked: bool = False
    #: Observability: the wait info captured when the op first blocked
    #: (serialized into the dwell span's args for blame analysis).
    blocked_info: Optional[object] = None
    #: ``b(op)`` under the strict semantics, computed on first use
    #: (``canAdvance`` asks several times per operation).
    _blocking: Optional[bool] = field(default=None, repr=False, compare=False)

    @property
    def ref(self) -> OpRef:
        return self.op.ref

    def is_blocking(self) -> bool:
        if self._blocking is None:
            self._blocking = is_blocking(self.op, _STRICT)
        return self._blocking

    def completes_locally(self) -> bool:
        return self.op.kind in _LOCAL_COMPLETION_KINDS


class RankWindow:
    """Sliding window of operations for one hosted application rank."""

    def __init__(self, rank: int, max_ops: int = 1_000_000) -> None:
        self.rank = rank
        self.max_ops = max_ops
        #: Current transition-system timestamp ``l_i`` of this rank.
        self.current = 0
        #: Whether the application rank finished its program.
        self.done = False
        self._ops: "OrderedDict[int, OpState]" = OrderedDict()
        #: Request id -> creating op state (retained until consumed).
        self._requests: Dict[int, OpState] = {}
        #: Largest timestamp received so far (-1 = none yet).
        self.last_received = -1
        #: High-water mark of the window size (memory footprint study).
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._ops)

    def add(self, op: Operation) -> OpState:
        """Register a newly received operation (``newOp``)."""
        if op.rank != self.rank:
            raise ProtocolError(
                f"op of rank {op.rank} delivered to window of {self.rank}"
            )
        if op.ts != self.last_received + 1:
            raise ProtocolError(
                f"rank {self.rank}: op {op.ts} arrived after "
                f"{self.last_received} (events must stream in order)"
            )
        self.last_received = op.ts
        state = OpState(op=op)
        self._ops[op.ts] = state
        if op.request is not None:
            self._requests[op.request] = state
        if len(self._ops) > self.max_ops:
            raise ResourceLimitError(
                f"trace window of rank {self.rank} exceeded {self.max_ops} "
                "operations (cf. the paper's 128.GAPgeofem case)"
            )
        self.peak_size = max(self.peak_size, len(self._ops))
        return state

    def get(self, ts: int) -> Optional[OpState]:
        return self._ops.get(ts)

    def iter_states(self) -> Tuple[OpState, ...]:
        """Snapshot of all operations currently held in the window."""
        return tuple(self._ops.values())

    def require(self, ts: int) -> OpState:
        state = self._ops.get(ts)
        if state is None:
            raise ProtocolError(
                f"rank {self.rank}: operation {ts} not in window "
                f"(current={self.current}, last={self.last_received})"
            )
        return state

    def request_state(self, req_id: int) -> OpState:
        try:
            return self._requests[req_id]
        except KeyError:
            raise ProtocolError(
                f"rank {self.rank}: unknown request {req_id}"
            ) from None

    def current_op(self) -> Optional[OpState]:
        """The active operation, or None if events are outstanding."""
        return self._ops.get(self.current)

    def finished(self) -> bool:
        """The rank reached MPI_Finalize or consumed its whole trace."""
        state = self._ops.get(self.current)
        if state is not None:
            return state.op.is_finalize()
        return self.done and self.current > self.last_received

    def awaiting_events(self) -> bool:
        """True when the analysis ran past the received prefix."""
        return not self.done and self.current > self.last_received

    def advance(self) -> None:
        """Advance ``l_i`` by one and evict unneeded passed operations."""
        state = self._ops.get(self.current)
        if state is None:
            raise ProtocolError(
                f"rank {self.rank}: advancing past unreceived op "
                f"{self.current}"
            )
        state.active = False
        if state.op.is_completion():
            # The completion consumed its requests: creators can go.
            for req_id in state.op.requests:
                creator = self._requests.pop(req_id, None)
                if creator is not None:
                    self._maybe_evict(creator.op.ts)
        self.current += 1
        self._maybe_evict(state.op.ts)

    def _retained(self, state: OpState) -> bool:
        """Does any pending obligation still need this passed op?"""
        op = state.op
        if op.ts >= self.current:
            return True
        if op.request is not None and op.request in self._requests:
            return True  # a completion may still reference it
        if op.peer is None or op.peer < 0:
            return False  # PROC_NULL / non-p2p: no handshake pending
        if op.kind is OpKind.IPROBE:
            return False  # non-blocking probes take part in no rule
        if op.is_send():
            # A matched send must answer its recvActive; an unmatched
            # send may still be matched by a late receive. Only sends
            # that completed the handshake are releasable.
            return not state.got_recv_active
        if op.is_recv() or op.is_probe():
            # The recvActiveAck may still be in flight (e.g. a Waitany
            # advanced on a sibling request), and unmatched receives may
            # match a late passSend.
            return not state.got_ack
        return False

    def _maybe_evict(self, ts: int) -> None:
        state = self._ops.get(ts)
        if state is not None and not self._retained(state):
            del self._ops[ts]

    def evict_completed_send(self, ts: int) -> None:
        """Re-attempt eviction after a late handshake completed."""
        self._maybe_evict(ts)

    def completion_targets(self, state: OpState) -> Tuple[OpState, ...]:
        return tuple(
            self.request_state(req) for req in state.op.requests
        )

    def completion_ready(self, state: OpState) -> bool:
        """Rule-4 evaluation from the per-target flags."""
        targets = self.completion_targets(state)
        if not targets:
            return True
        satisfied = (
            t.completion_satisfied or t.completes_locally() for t in targets
        )
        if completion_needs_all(state.op.kind):
            return all(satisfied)
        return any(satisfied)
