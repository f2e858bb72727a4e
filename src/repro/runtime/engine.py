"""The virtual MPI runtime: executes rank programs, records traces.

This is the substrate that replaces a real MPI library and cluster. It
drives the rank-program generators of :mod:`repro.runtime.program`
under genuine MPI matching semantics (:mod:`repro.runtime.matchstate`)
with a configurable interpretation of MPI's freedoms
(:class:`~repro.mpi.blocking.BlockingSemantics`): buffered or
rendezvous standard sends, synchronizing or relaxed collectives.

Its two products are exactly what the deadlock-detection tool consumes:

* a :class:`~repro.mpi.trace.MatchedTrace` — the intercepted operations
  of every rank with the matching the (virtual) MPI implementation
  chose at runtime, including wildcard resolutions; and
* ground truth — whether the run *manifestly* hung, and where — which
  the test suite uses to validate detector verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.mpi.blocking import BlockingSemantics
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import (
    ANY_TAG,
    PROC_NULL,
    OpKind,
    is_collective_kind,
    is_completion_kind,
)
from repro.mpi.ops import Operation, OpRef
from repro.mpi.trace import CollectiveMatch, MatchedTrace, PendingCollective, Trace
from repro.obs.events import PID_ENGINE
from repro.obs.flight import FlightRecorder
from repro.obs.live import LiveMonitor
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.runtime.matchstate import CollectiveWave, MatchState, PendingSend
from repro.runtime.program import Call, Rank, Status
from repro.runtime.scheduler import Scheduler
from repro.util.errors import MpiUsageError, ProtocolError, ReproError

#: A rank program: generator function taking a :class:`Rank` handle.
RankProgram = Callable[[Rank], Iterator[Call]]

_RUNNABLE = "runnable"
_PARKED = "parked"
_DONE = "done"


@dataclass
class _RequestState:
    req_id: int
    rank: int
    op_ref: OpRef
    is_send: bool
    done: bool = False
    status: Optional[Status] = None
    consumed: bool = False


@dataclass
class _PersistentReq:
    """An MPI persistent request handle (Send_init/Recv_init)."""

    handle: int
    rank: int
    is_send: bool
    comm_id: int
    peer: int
    tag: int
    nbytes: int
    #: Request id of the currently active Start instance, if any.
    active_instance: Optional[int] = None


@dataclass
class _RankState:
    rank: int
    gen: Iterator[Call]
    status: str = _RUNNABLE
    #: Value to send into the generator on the next step.
    inbox: object = None
    #: The call the rank is currently blocked in (when parked).
    blocked_call: Optional[Call] = None
    blocked_ref: Optional[OpRef] = None
    #: Engine step at which the rank parked (live dwell accounting).
    blocked_at_step: int = 0


@dataclass
class RunResult:
    """Outcome of executing a program set on the virtual runtime."""

    matched: MatchedTrace
    #: True when the run manifestly hung (no rank could make progress).
    deadlocked: bool
    #: For hung runs: each stuck rank and the operation it blocks in.
    hung: Dict[int, OpRef] = field(default_factory=dict)
    steps: int = 0
    #: Messages sent but never received (potential lost messages).
    unreceived_messages: int = 0
    #: The engine's flight recorder (per-rank tails of recent calls).
    flight: Optional[FlightRecorder] = None

    @property
    def trace(self) -> Trace:
        return self.matched.trace

    def hung_descriptions(self) -> List[str]:
        return [
            self.matched.trace.op(ref).describe()
            for _, ref in sorted(self.hung.items())
        ]


class Engine:
    """Cooperative executor of rank programs with MPI semantics."""

    def __init__(
        self,
        programs: Sequence[RankProgram],
        *,
        semantics: BlockingSemantics | None = None,
        seed: int = 0,
        scheduler_policy: str = "random",
        wildcard_policy: str = "random",
        max_steps: int = 10_000_000,
        observer: Observer | None = None,
        scheduler: Scheduler | None = None,
        wildcard_pinnings: Dict[OpRef, int] | None = None,
        flight: FlightRecorder | None = None,
        live: LiveMonitor | None = None,
    ) -> None:
        if not programs:
            raise ValueError("need at least one rank program")
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.live = live
        if live is not None:
            live.attach_engine(len(programs))
        # The flight recorder is ON by default: a bounded per-rank ring
        # whose append is O(1); logical step counts serve as timestamps.
        self.flight = flight if flight is not None else FlightRecorder()
        # The per-op record sites sit on the scheduler hot path, where
        # even a bound method call per event is measurable: hold each
        # rank's live ring buffer and append inline (trim stays rare).
        self._flight_bufs = (
            [self.flight.live_buffer(r) for r in range(len(programs))]
            if self.flight.enabled
            else None
        )
        self._flight_trim_at = self.flight.trim_at
        self._step_count = 0
        self.semantics = semantics or BlockingSemantics.relaxed()
        self.comms = CommRegistry(len(programs))
        self.match = MatchState(
            seed=seed,
            wildcard_policy=wildcard_policy,
            pinnings=wildcard_pinnings,
        )
        self.scheduler = (
            scheduler
            if scheduler is not None
            else Scheduler(policy=scheduler_policy, seed=seed)
        )
        self.max_steps = max_steps

        self._seqs: List[List[Operation]] = [[] for _ in programs]
        self._p2p_matches: List[Tuple[OpRef, OpRef]] = []
        self._probe_matches: List[Tuple[OpRef, OpRef]] = []
        self._coll_matches: List[Tuple[int, frozenset]] = []
        self._requests: Dict[Tuple[int, int], _RequestState] = {}
        self._req_by_op: Dict[OpRef, _RequestState] = {}
        self._persistent: Dict[Tuple[int, int], _PersistentReq] = {}
        self._next_req: List[int] = [0 for _ in programs]

        self._ranks: List[_RankState] = []
        world = self.comms.world
        for r, prog in enumerate(programs):
            gen = prog(Rank(r, world))
            self._ranks.append(_RankState(rank=r, gen=gen))

        # Wake registries.
        self._send_waiters: Dict[OpRef, int] = {}
        self._recv_waiters: Dict[OpRef, int] = {}
        self._probe_waiters: Dict[Tuple[int, int], List[Tuple[int, Operation]]] = {}
        self._wave_waiters: Dict[Tuple[int, int], List[int]] = {}
        self._completion_waiters: Dict[int, Operation] = {}
        self._finalize_arrived: Dict[int, OpRef] = {}
        self._finalize_waiters: List[int] = []
        self._runnable: List[int] = list(range(len(programs)))
        #: canAdvance flips: how often a parked rank became runnable.
        self._resume_count = 0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        steps = 0
        obs = self.obs
        live = self.live
        live_every = live.every_steps if live is not None else 0
        run_start = obs.tracer.now_us() if obs.enabled else 0.0
        while self._runnable:
            steps += 1
            self._step_count = steps
            if steps > self.max_steps:
                raise ReproError(
                    f"engine exceeded {self.max_steps} steps (livelock?)"
                )
            if obs.enabled:
                obs.metrics.gauge("engine.runnable").set(len(self._runnable))
            rank = self.scheduler.pick(self._runnable)
            self._step(rank)
            if live_every and steps % live_every == 0:
                live.tick_engine(self._live_sample(steps))
        if live is not None:
            # One terminal engine snapshot so short runs (and the final
            # parked set of a hung one) always reach the feed.
            live.tick_engine(self._live_sample(steps))
        if obs.enabled:
            obs.metrics.inc("engine.steps", steps)
            obs.tracer.complete(
                "engine.run",
                cat="engine",
                ts=run_start,
                dur=obs.tracer.now_us() - run_start,
                pid=PID_ENGINE,
                tid=0,
                args={"steps": steps, "ranks": len(self._ranks)},
            )
        hung = {
            rs.rank: rs.blocked_ref
            for rs in self._ranks
            if rs.status == _PARKED and rs.blocked_ref is not None
        }
        trace = Trace(self._seqs)
        matched = MatchedTrace(trace, self.comms)
        for send_ref, recv_ref in self._p2p_matches:
            matched.add_p2p_match(send_ref, recv_ref)
        for probe_ref, send_ref in self._probe_matches:
            matched.add_probe_match(probe_ref, send_ref)
        for comm_id, members in self._coll_matches:
            matched.add_collective_match(
                CollectiveMatch(comm_id=comm_id, members=members)
            )
        for wave in self.match.incomplete_waves():
            if wave.kind is OpKind.FINALIZE:
                continue
            matched.add_pending_collective(
                PendingCollective(
                    comm_id=wave.comm_id,
                    index=wave.index,
                    arrived=dict(wave.arrived),
                )
            )
        for (rank_id, req_id), req in self._requests.items():
            matched.register_request(rank_id, req_id, req.op_ref)
        return RunResult(
            matched=matched,
            deadlocked=bool(hung),
            hung=hung,
            steps=steps,
            unreceived_messages=self.match.unmatched_send_count(),
            flight=self.flight,
        )

    def _live_sample(self, steps: int) -> Dict[str, object]:
        """Engine progress for one live snapshot window.

        Dwell is measured in scheduler steps since the rank parked —
        a logical clock, so the sample is deterministic and cheap (no
        wall-clock reads on the engine loop)."""
        dwell_steps: Dict[int, int] = {}
        blocked: Dict[int, Dict[str, object]] = {}
        done = 0
        for rs in self._ranks:
            if rs.status == _DONE:
                done += 1
            elif rs.status == _PARKED and rs.blocked_ref is not None:
                ref = rs.blocked_ref
                op = self._seqs[ref[0]][ref[1]]
                dwell_steps[rs.rank] = steps - rs.blocked_at_step
                blocked[rs.rank] = {"op": op.kind.name, "peer": op.peer}
        return {
            "steps": steps,
            "ranks": len(self._ranks),
            "runnable": len(self._runnable),
            "done": done,
            "ops_issued": sum(len(s) for s in self._seqs),
            "resumes": self._resume_count,
            "dwell_steps": dwell_steps,
            "blocked": blocked,
        }

    def _step(self, rank: int) -> None:
        rs = self._ranks[rank]
        assert rs.status == _RUNNABLE
        # The rank is off the runnable queue while it steps; every
        # completion path must _resume it (or _park it) explicitly.
        rs.status = _PARKED
        result, rs.inbox = rs.inbox, None
        try:
            call = rs.gen.send(result)
        except StopIteration:
            rs.status = _DONE
            return
        if not isinstance(call, Call):
            raise MpiUsageError(
                f"rank {rank} yielded {call!r}; programs must yield Call "
                "objects built with the Rank handle"
            )
        self._issue(rank, call)

    def _resume(self, rank: int, result: object) -> None:
        """Mark a parked rank runnable with ``result`` pending."""
        rs = self._ranks[rank]
        if rs.status == _RUNNABLE:
            raise ProtocolError(
                f"rank {rank} woken twice before stepping"
            )
        bufs = self._flight_bufs
        if bufs is not None and rs.blocked_ref is not None:
            ref = rs.blocked_ref
            buf = bufs[rank]
            buf.append(
                (self._step_count, "resume", self._seqs[ref[0]][ref[1]])
            )
            if len(buf) >= self._flight_trim_at:
                self.flight.trim(rank)
        rs.inbox = result
        rs.blocked_call = None
        rs.blocked_ref = None
        rs.status = _RUNNABLE
        self._resume_count += 1
        self._runnable.append(rank)

    def _park(self, rank: int, call: Call, ref: OpRef) -> None:
        rs = self._ranks[rank]
        rs.status = _PARKED
        rs.blocked_call = call
        rs.blocked_ref = ref
        rs.blocked_at_step = self._step_count
        bufs = self._flight_bufs
        if bufs is not None:
            buf = bufs[rank]
            buf.append(
                (self._step_count, "block", self._seqs[ref[0]][ref[1]])
            )
            if len(buf) >= self._flight_trim_at:
                self.flight.trim(rank)

    # ------------------------------------------------------------------
    # call issue & completion
    # ------------------------------------------------------------------

    def _observe_op(self, op: Operation) -> None:
        """Count and trace one recorded operation (observability)."""
        self.obs.metrics.inc(f"engine.ops.{op.kind.name}")
        self.obs.tracer.instant(
            op.kind.name,
            cat="engine.op",
            pid=PID_ENGINE,
            tid=op.rank,
            args={"ts": op.ts},
        )

    def _record(self, rank: int, call: Call) -> Operation:
        ts = len(self._seqs[rank])
        request: Optional[int] = None
        if call.kind in (
            OpKind.ISEND,
            OpKind.ISSEND,
            OpKind.IBSEND,
            OpKind.IRSEND,
            OpKind.IRECV,
        ):
            request = self._next_req[rank]
            self._next_req[rank] += 1
        requests = call.requests
        if is_completion_kind(call.kind) and requests:
            requests = self._translate_completion_requests(rank, requests)
        op = Operation(
            kind=call.kind,
            rank=rank,
            ts=ts,
            comm_id=call.comm.comm_id,
            peer=call.peer,
            tag=call.tag,
            root=call.root,
            request=request,
            requests=requests,
            nbytes=call.nbytes,
            sendrecv_group=call.sendrecv_group,
            location=call.location,
        )
        self._seqs[rank].append(op)
        bufs = self._flight_bufs
        if bufs is not None:
            buf = bufs[rank]
            buf.append((self._step_count, "issue", op))
            if len(buf) >= self._flight_trim_at:
                self.flight.trim(rank)
        if self.obs.enabled:
            self._observe_op(op)
        return op

    def _issue(self, rank: int, call: Call) -> None:
        kind = call.kind
        if kind in (OpKind.SEND_INIT, OpKind.RECV_INIT):
            self._issue_persistent_init(rank, call)
            return
        if kind in (OpKind.PSTART_SEND, OpKind.PSTART_RECV):
            self._issue_persistent_start(rank, call)
            return
        if kind is OpKind.REQUEST_FREE:
            self._issue_request_free(rank, call)
            return
        op = self._record(rank, call)

        if op.is_p2p() and op.peer == PROC_NULL:
            # Operations on MPI_PROC_NULL complete immediately, match
            # nothing, and deliver an empty status.
            result: object = None
            if op.is_recv() or op.is_probe():
                result = Status(PROC_NULL, ANY_TAG, 0)
            if op.request is not None:
                req = self._register_request(op, is_send=op.is_send())
                req.done = True
                req.status = Status(PROC_NULL, ANY_TAG, 0)
                result = req.req_id
            if kind is OpKind.IPROBE:
                result = (True, Status(PROC_NULL, ANY_TAG, 0))
            self._resume(rank, result)
            return

        if kind in (OpKind.SEND, OpKind.SSEND, OpKind.BSEND, OpKind.RSEND):
            self._issue_blocking_send(rank, call, op)
        elif kind is OpKind.RECV:
            self._issue_blocking_recv(rank, call, op)
        elif kind is OpKind.PROBE:
            self._issue_probe(rank, call, op)
        elif kind is OpKind.IPROBE:
            self._issue_iprobe(rank, op)
        elif kind in (
            OpKind.ISEND,
            OpKind.ISSEND,
            OpKind.IBSEND,
            OpKind.IRSEND,
        ):
            self._issue_isend(rank, op)
        elif kind is OpKind.IRECV:
            self._issue_irecv(rank, op)
        elif is_completion_kind(kind):
            self._issue_completion(rank, call, op)
        elif is_collective_kind(kind) or kind is OpKind.FINALIZE:
            self._issue_collective(rank, call, op)
        else:
            raise MpiUsageError(f"engine cannot execute {kind}")

    # -- persistent communication ---------------------------------------

    def _issue_persistent_init(self, rank: int, call: Call) -> None:
        handle = self._next_req[rank]
        self._next_req[rank] += 1
        ts = len(self._seqs[rank])
        op = Operation(
            kind=call.kind,
            rank=rank,
            ts=ts,
            comm_id=call.comm.comm_id,
            peer=call.peer,
            tag=call.tag,
            nbytes=call.nbytes,
            request=handle,
            location=call.location,
        )
        self._seqs[rank].append(op)
        if self.obs.enabled:
            self._observe_op(op)
        self._persistent[(rank, handle)] = _PersistentReq(
            handle=handle,
            rank=rank,
            is_send=call.kind is OpKind.SEND_INIT,
            comm_id=call.comm.comm_id,
            peer=call.peer,  # type: ignore[arg-type]
            tag=call.tag,
            nbytes=call.nbytes,
        )
        self._resume(rank, handle)

    def _get_persistent(self, rank: int, handle: int) -> _PersistentReq:
        preq = self._persistent.get((rank, handle))
        if preq is None:
            raise MpiUsageError(
                f"rank {rank}: {handle} is not a persistent request"
            )
        return preq

    def _issue_persistent_start(self, rank: int, call: Call) -> None:
        preq = self._get_persistent(rank, call.requests[0])
        if preq.active_instance is not None:
            raise MpiUsageError(
                f"rank {rank}: MPI_Start on already-active persistent "
                f"request {preq.handle}"
            )
        instance = self._next_req[rank]
        self._next_req[rank] += 1
        ts = len(self._seqs[rank])
        kind = OpKind.PSTART_SEND if preq.is_send else OpKind.PSTART_RECV
        op = Operation(
            kind=kind,
            rank=rank,
            ts=ts,
            comm_id=preq.comm_id,
            peer=preq.peer,
            tag=preq.tag,
            nbytes=preq.nbytes,
            request=instance,
            requests=(preq.handle,),
            location=call.location,
        )
        self._seqs[rank].append(op)
        if self.obs.enabled:
            self._observe_op(op)
        preq.active_instance = instance
        if op.peer == PROC_NULL:
            req = self._register_request(op, is_send=preq.is_send)
            req.done = True
            req.status = Status(PROC_NULL, ANY_TAG, 0)
            self._resume(rank, None)
            return
        if preq.is_send:
            req = self._register_request(op, is_send=True)
            buffered = self._send_buffers(op)
            send, recv = self.match.post_send(op, buffered)
            if buffered:
                req.done = True
            if recv is not None:
                self._on_pair(send, recv.ref)
            self._resume(rank, None)
            self._notify_probe_waiters(op.comm_id, op.peer)
        else:
            req = self._register_request(op, is_send=False)
            recv, send = self.match.post_recv(op)
            if send is not None:
                self._on_pair(send, recv.ref)
            self._resume(rank, None)

    def _issue_request_free(self, rank: int, call: Call) -> None:
        preq = self._get_persistent(rank, call.requests[0])
        if preq.active_instance is not None:
            raise MpiUsageError(
                f"rank {rank}: MPI_Request_free on active persistent "
                f"request {preq.handle}"
            )
        del self._persistent[(rank, preq.handle)]
        ts = len(self._seqs[rank])
        self._seqs[rank].append(
            Operation(
                kind=OpKind.REQUEST_FREE,
                rank=rank,
                ts=ts,
                requests=(preq.handle,),
                location=call.location,
            )
        )
        self._resume(rank, None)

    def _translate_completion_requests(
        self, rank: int, requests: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        """Map persistent handles to their active Start instances."""
        translated = []
        for req_id in requests:
            preq = self._persistent.get((rank, req_id))
            if preq is None:
                translated.append(req_id)
                continue
            if preq.active_instance is None:
                raise MpiUsageError(
                    f"rank {rank}: completion on inactive persistent "
                    f"request {req_id}"
                )
            translated.append(preq.active_instance)
        return tuple(translated)

    # -- sends / receives -------------------------------------------------

    def _send_buffers(self, op: Operation) -> bool:
        if op.kind in (OpKind.BSEND, OpKind.RSEND, OpKind.IBSEND, OpKind.IRSEND):
            return True
        return self.semantics.send_buffers(op)

    def _issue_blocking_send(self, rank: int, call: Call, op: Operation) -> None:
        buffered = self._send_buffers(op)
        send, recv = self.match.post_send(op, buffered)
        if recv is not None:
            self._on_pair(send, recv.ref)
            self._resume(rank, None)
        elif buffered:
            self._resume(rank, None)
        else:
            self._send_waiters[op.ref] = rank
            self._park(rank, call, op.ref)
        self._notify_probe_waiters(op.comm_id, op.peer)  # type: ignore[arg-type]

    def _issue_blocking_recv(self, rank: int, call: Call, op: Operation) -> None:
        recv, send = self.match.post_recv(op)
        if send is not None:
            self._on_pair(send, recv.ref)
            self._resume(rank, Status(send.src, send.tag, send.nbytes))
        else:
            self._recv_waiters[op.ref] = rank
            self._park(rank, call, op.ref)

    def _issue_isend(self, rank: int, op: Operation) -> None:
        req = self._register_request(op, is_send=True)
        buffered = self._send_buffers(op)
        send, recv = self.match.post_send(op, buffered)
        if buffered:
            req.done = True
        if recv is not None:
            self._on_pair(send, recv.ref)
        self._resume(rank, req.req_id)
        self._notify_probe_waiters(op.comm_id, op.peer)  # type: ignore[arg-type]

    def _issue_irecv(self, rank: int, op: Operation) -> None:
        req = self._register_request(op, is_send=False)
        recv, send = self.match.post_recv(op)
        if send is not None:
            self._on_pair(send, recv.ref)
        self._resume(rank, req.req_id)

    def _issue_probe(self, rank: int, call: Call, op: Operation) -> None:
        cand = self.match.probe_candidate(
            op.comm_id, op.rank, op.peer, op.tag  # type: ignore[arg-type]
        )
        if cand is not None:
            self._complete_probe(rank, op, cand)
        else:
            key = (op.comm_id, op.rank)
            self._probe_waiters.setdefault(key, []).append((rank, op))
            self._park(rank, call, op.ref)

    def _issue_iprobe(self, rank: int, op: Operation) -> None:
        cand = self.match.probe_candidate(
            op.comm_id, op.rank, op.peer, op.tag  # type: ignore[arg-type]
        )
        if cand is None:
            self._resume(rank, (False, None))
        else:
            op.observed_peer = cand.src
            op.observed_tag = cand.tag
            self._probe_matches.append((op.ref, cand.ref))
            self._resume(rank, (True, Status(cand.src, cand.tag, cand.nbytes)))

    def _complete_probe(
        self, rank: int, op: Operation, cand: PendingSend
    ) -> None:
        op.observed_peer = cand.src
        op.observed_tag = cand.tag
        self._probe_matches.append((op.ref, cand.ref))
        self._resume(rank, Status(cand.src, cand.tag, cand.nbytes))

    def _notify_probe_waiters(self, comm_id: int, dst: int) -> None:
        key = (comm_id, dst)
        waiters = self._probe_waiters.get(key)
        if not waiters:
            return
        remaining: List[Tuple[int, Operation]] = []
        for rank, op in waiters:
            cand = self.match.probe_candidate(
                op.comm_id, op.rank, op.peer, op.tag  # type: ignore[arg-type]
            )
            if cand is not None:
                self._complete_probe(rank, op, cand)
            else:
                remaining.append((rank, op))
        if remaining:
            self._probe_waiters[key] = remaining
        else:
            del self._probe_waiters[key]

    def _on_pair(self, send: PendingSend, recv_ref: OpRef) -> None:
        """A message and a receive were matched: propagate consequences."""
        self._p2p_matches.append((send.ref, recv_ref))
        recv_op = self._seqs[recv_ref[0]][recv_ref[1]]
        recv_op.observed_peer = send.src
        recv_op.observed_tag = send.tag

        # Wake a blocking sender.
        waiter = self._send_waiters.pop(send.ref, None)
        if waiter is not None:
            self._resume(waiter, None)
        # Complete a send request.
        req = self._req_by_op.get(send.ref)
        if req is not None and not req.done:
            req.done = True
            self._recheck_completion(req.rank)
        # Wake a blocking receiver.
        waiter = self._recv_waiters.pop(recv_ref, None)
        if waiter is not None:
            self._resume(waiter, Status(send.src, send.tag, send.nbytes))
        # Complete a receive request.
        req = self._req_by_op.get(recv_ref)
        if req is not None and not req.done:
            req.done = True
            req.status = Status(send.src, send.tag, send.nbytes)
            self._recheck_completion(req.rank)

    def _register_request(self, op: Operation, is_send: bool) -> _RequestState:
        assert op.request is not None
        req = _RequestState(
            req_id=op.request, rank=op.rank, op_ref=op.ref, is_send=is_send
        )
        self._requests[(op.rank, op.request)] = req
        self._req_by_op[op.ref] = req
        return req

    # -- completions --------------------------------------------------------

    def _get_request(self, rank: int, req_id: int) -> _RequestState:
        try:
            req = self._requests[(rank, req_id)]
        except KeyError:
            raise MpiUsageError(
                f"rank {rank} waits on unknown request {req_id}"
            ) from None
        if req.consumed:
            raise MpiUsageError(
                f"rank {rank} reuses already-completed request {req_id}"
            )
        return req

    def _issue_completion(self, rank: int, call: Call, op: Operation) -> None:
        if self._try_completion(rank, op):
            return
        if op.kind in (OpKind.WAIT, OpKind.WAITALL, OpKind.WAITANY, OpKind.WAITSOME):
            self._completion_waiters[rank] = op
            self._park(rank, call, op.ref)
        else:
            # Test flavours never block: deliver the "not done" result.
            self._resume(rank, self._test_failure_result(op))

    @staticmethod
    def _test_failure_result(op: Operation) -> object:
        if op.kind is OpKind.TEST:
            return (False, None)
        if op.kind is OpKind.TESTALL:
            return (False, None)
        if op.kind is OpKind.TESTANY:
            return (False, None, None)
        if op.kind is OpKind.TESTSOME:
            return ((), ())
        raise AssertionError(op.kind)

    def _release_persistent_instance(self, rank: int, instance: int) -> None:
        """A completed Start instance deactivates its persistent handle."""
        for preq in self._persistent.values():
            if preq.rank == rank and preq.active_instance == instance:
                preq.active_instance = None
                return

    def _try_completion(self, rank: int, op: Operation) -> bool:
        """Attempt to satisfy a WAIT*/TEST*; True if the rank resumed."""
        reqs = [self._get_request(rank, r) for r in op.requests]
        done_idx = [i for i, r in enumerate(reqs) if r.done]
        kind = op.kind
        if kind in (OpKind.WAIT, OpKind.WAITALL, OpKind.TEST, OpKind.TESTALL):
            if len(done_idx) != len(reqs):
                return False
            for r in reqs:
                r.consumed = True
                self._release_persistent_instance(rank, r.req_id)
            op.completed_indices = tuple(range(len(reqs)))
            op.test_flag = True
            statuses = tuple(r.status for r in reqs)
            if kind is OpKind.WAIT:
                self._resume(rank, statuses[0])
            elif kind is OpKind.WAITALL:
                self._resume(rank, statuses)
            elif kind is OpKind.TEST:
                self._resume(rank, (True, statuses[0]))
            else:
                self._resume(rank, (True, statuses))
            return True
        if kind in (OpKind.WAITANY, OpKind.TESTANY):
            if not done_idx:
                return False
            idx = done_idx[0]
            reqs[idx].consumed = True
            self._release_persistent_instance(rank, reqs[idx].req_id)
            op.completed_indices = (idx,)
            op.test_flag = True
            if kind is OpKind.WAITANY:
                self._resume(rank, (idx, reqs[idx].status))
            else:
                self._resume(rank, (True, idx, reqs[idx].status))
            return True
        if kind in (OpKind.WAITSOME, OpKind.TESTSOME):
            if not done_idx:
                return False
            for i in done_idx:
                reqs[i].consumed = True
                self._release_persistent_instance(rank, reqs[i].req_id)
            op.completed_indices = tuple(done_idx)
            op.test_flag = True
            statuses = tuple(reqs[i].status for i in done_idx)
            self._resume(rank, (tuple(done_idx), statuses))
            return True
        raise AssertionError(kind)

    def _recheck_completion(self, rank: int) -> None:
        op = self._completion_waiters.get(rank)
        if op is None:
            return
        if self._try_completion(rank, op):
            del self._completion_waiters[rank]

    # -- collectives ----------------------------------------------------------

    def _issue_collective(self, rank: int, call: Call, op: Operation) -> None:
        comm = call.comm
        if not comm.contains(rank):
            raise MpiUsageError(
                f"rank {rank} calls {op.kind.value} on communicator "
                f"{comm.comm_id} it does not belong to"
            )
        if op.kind is OpKind.FINALIZE:
            # Finalize synchronizes the world but lives outside the
            # per-communicator collective sequence: a rank reaching
            # Finalize while others sit in a data collective is a hang
            # (as on real MPI), not a wave mismatch.
            self._finalize_arrived[rank] = op.ref
            if len(self._finalize_arrived) == len(self._ranks):
                waiters = list(self._finalize_waiters)
                self._finalize_waiters.clear()
                for r in waiters:
                    self._resume(r, None)
                self._resume(rank, None)
            else:
                self._finalize_waiters.append(rank)
                self._park(rank, call, op.ref)
            return
        arg: object = None
        if op.kind is OpKind.COMM_SPLIT:
            arg = call.color
        elif op.kind is OpKind.COMM_CREATE:
            if call.group is None:
                raise MpiUsageError("MPI_Comm_create requires a group")
            arg = call.group
        wave = self.match.arrive_collective(op, comm.size, arg=arg)
        if wave.complete:
            results = self._complete_wave(wave)
            self._resume(rank, results.get(rank))
        elif self._can_leave_wave(op, wave):
            self._resume(rank, None)
            if rank == wave.root:
                # A bcast/scatter root leaving early (relaxed semantics)
                # releases the non-roots parked before it arrived; no
                # other arrival can release a parked waiter.
                for r in self._wave_waiters.pop((op.comm_id, wave.index), ()):
                    self._resume(r, None)
        else:
            key = (op.comm_id, wave.index)
            self._wave_waiters.setdefault(key, []).append(rank)
            self._park(rank, call, op.ref)

    def _can_leave_wave(self, op: Operation, wave: CollectiveWave) -> bool:
        """Relaxed-semantics early exit from an incomplete collective."""
        kind = op.kind
        if kind is OpKind.FINALIZE:
            return False
        if self.semantics.collective_synchronizes(kind):
            return False
        if kind in (OpKind.REDUCE, OpKind.GATHER):
            return op.rank != wave.root
        if kind in (OpKind.BCAST, OpKind.SCATTER):
            return op.rank == wave.root or wave.root in wave.arrived
        # Scan/reduce_scatter/comm management conservatively synchronize
        # even under relaxed semantics.
        return False

    def _complete_wave(self, wave: CollectiveWave) -> Dict[int, object]:
        """Record the collective match and wake parked participants.

        Returns the per-rank results so the caller (the arrival that
        completed the wave) can resume itself. Participants that left
        early under relaxed semantics are neither parked nor resumed.
        """
        if wave.kind is not OpKind.FINALIZE:
            # Finalize is the transition system's terminal operation: it
            # synchronizes the execution but takes part in no matching.
            members = frozenset(wave.arrived.values())
            self._coll_matches.append((wave.comm_id, members))
        results: Dict[int, object]
        if wave.kind is OpKind.COMM_DUP:
            newcomm = self.comms.dup(wave.comm_id)
            results = {r: newcomm for r in wave.arrived}
        elif wave.kind is OpKind.COMM_SPLIT:
            colors = {r: wave.args.get(r) for r in wave.arrived}
            results = dict(self.comms.split(wave.comm_id, colors))
        elif wave.kind is OpKind.COMM_CREATE:
            groups = {tuple(g) for g in wave.args.values()}
            if len(groups) != 1:
                raise MpiUsageError(
                    "MPI_Comm_create called with differing groups"
                )
            (group,) = groups
            newcomm = self.comms.create(group) if group else None
            results = {
                r: (newcomm if newcomm and r in newcomm.group else None)
                for r in wave.arrived
            }
        else:
            results = {r: None for r in wave.arrived}
        key = (wave.comm_id, wave.index)
        waiters = self._wave_waiters.pop(key, ())
        for r in waiters:
            self._resume(r, results.get(r))
        return results


def run_programs(
    programs: Sequence[RankProgram],
    *,
    semantics: BlockingSemantics | None = None,
    seed: int = 0,
    scheduler_policy: str = "random",
    wildcard_policy: str = "random",
    max_steps: int = 10_000_000,
    observer: Observer | None = None,
    scheduler: Scheduler | None = None,
    wildcard_pinnings: Dict[OpRef, int] | None = None,
    flight: FlightRecorder | None = None,
    live: LiveMonitor | None = None,
) -> RunResult:
    """Execute ``programs`` on the virtual runtime and return the result."""
    engine = Engine(
        programs,
        semantics=semantics,
        seed=seed,
        scheduler_policy=scheduler_policy,
        wildcard_policy=wildcard_policy,
        max_steps=max_steps,
        observer=observer,
        scheduler=scheduler,
        wildcard_pinnings=wildcard_pinnings,
        flight=flight,
        live=live,
    )
    return engine.run()
