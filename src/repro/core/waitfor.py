"""Wait-for condition extraction for blocked processes.

Given a state of the transition system and a blocked process, this
module derives *why* the process cannot advance, as a CNF condition:
an AND of clauses, each clause an OR of target ranks. This is the
payload of the ``requestWaits`` reply in the distributed protocol
(Section 5) and the input to wait-for-graph construction [9]:

* a send/receive/probe waits for its (potential) partner — a single
  singleton clause, except wildcard receives which wait for *any*
  possible sender (one OR clause, the paper's "OR semantic");
* a collective yields one singleton clause per group member that has
  not activated its participating operation (AND semantics);
* ``Wait``/``Waitall`` yields the AND of its unsatisfied requests'
  conditions; ``Waitany``/``Waitsome`` the OR (one flattened clause).

:func:`resolve_rank_waits` is the root's side of the protocol: it
turns the first layer's ``RankWaitInfo`` replies into these CNF
conditions (the TBON root and ``repro blame`` both use it).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.messages import CollectiveWait, P2PWait, RankWaitInfo
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.ops import Operation, OpRef
from repro.core.transition import TransitionSystem
from repro.util.errors import ProtocolError


@dataclass(frozen=True)
class WaitTarget:
    """One rank a blocked process waits for, with the reason."""

    rank: int
    reason: str


_TARGET_CACHE: Dict[Tuple[int, str], WaitTarget] = {}


def intern_target(rank: int, reason: str) -> WaitTarget:
    """Shared WaitTarget instances.

    The p^2-arc wildcard case (Figure 10) creates p-1 targets per
    blocked process with identical reasons; interning keeps the memory
    footprint linear in p rather than quadratic in object count.
    """
    key = (rank, reason)
    cached = _TARGET_CACHE.get(key)
    if cached is None:
        cached = WaitTarget(rank, reason)
        if len(_TARGET_CACHE) < 1_000_000:
            _TARGET_CACHE[key] = cached
    return cached


@dataclass
class WaitForCondition:
    """CNF wait-for condition of one blocked process."""

    rank: int
    op_ref: OpRef
    op_description: str
    #: AND over clauses; each clause is an OR over targets.
    clauses: List[Tuple[WaitTarget, ...]] = field(default_factory=list)

    def target_ranks(self) -> Set[int]:
        return {t.rank for clause in self.clauses for t in clause}

    def arc_count(self) -> int:
        return sum(len(clause) for clause in self.clauses)

    def is_pure_and(self) -> bool:
        return all(len(clause) == 1 for clause in self.clauses)


def _p2p_clause(
    ts: TransitionSystem,
    state: Sequence[int],
    ref: OpRef,
    op: Operation,
) -> Optional[Tuple[WaitTarget, ...]]:
    """Clause for an unsatisfied point-to-point operation (or target)."""
    match = ts.matched.match_of(ref)
    if match is not None:
        k, n = match
        if state[k] >= n:
            return None  # satisfied — contributes no clause
        partner = ts.trace.op(match).describe()
        return (WaitTarget(k, f"matched with {partner}, not yet active"),)
    # Unmatched: derive potential partners from the envelope.
    if op.is_send():
        return (
            WaitTarget(
                op.peer,  # type: ignore[arg-type]
                "no matching receive posted",
            ),
        )
    # Receive or probe.
    if op.peer == ANY_SOURCE:
        comm = ts.matched.comms.get(op.comm_id)
        targets = tuple(
            intern_target(k, "wildcard receive: any sender qualifies")
            for k in comm.group
            if k != op.rank
        )
        # A wildcard receive on a self-communicator waits for nobody —
        # an unconditional deadlock, encoded as an empty clause.
        return targets
    return (
        WaitTarget(
            op.peer,  # type: ignore[arg-type]
            "no matching send posted",
        ),
    )


def _collective_clauses(
    ts: TransitionSystem,
    state: Sequence[int],
    ref: OpRef,
    op: Operation,
) -> List[Tuple[WaitTarget, ...]]:
    comm = ts.matched.comms.get(op.comm_id)
    match = ts.matched.collective_match(ref)
    if match is not None:
        members: Dict[int, int] = {k: n for (k, n) in match.members}
    else:
        pending = ts.matched.pending_collective_of(ref)
        members = (
            {r: rref[1] for r, rref in pending.arrived.items()}
            if pending is not None
            else {}
        )
    clauses: List[Tuple[WaitTarget, ...]] = []
    name = op.kind.value
    for k in comm.group:
        if k == op.rank:
            continue
        if k in members:
            if state[k] >= members[k]:
                continue
            reason = f"{name} participant not yet active"
        else:
            reason = f"never called {name} on communicator {op.comm_id}"
        clauses.append((WaitTarget(k, reason),))
    return clauses


def wait_for_condition(
    ts: TransitionSystem, state: Sequence[int], rank: int
) -> WaitForCondition:
    """Derive the wait-for condition of ``rank``, blocked in ``state``."""
    l = state[rank]
    op = ts.trace.op((rank, l))
    cond = WaitForCondition(
        rank=rank, op_ref=(rank, l), op_description=op.describe()
    )
    if op.is_p2p():
        clause = _p2p_clause(ts, state, (rank, l), op)
        if clause is not None:
            cond.clauses.append(clause)
        else:
            raise ValueError(
                f"{op.describe()} reported blocked but its p2p premise holds"
            )
        return cond
    if op.is_collective():
        cond.clauses.extend(_collective_clauses(ts, state, (rank, l), op))
        return cond
    if op.is_completion():
        sub: List[Tuple[WaitTarget, ...]] = []
        for target in ts.matched.completion_targets((rank, l)):
            if ts._completion_target_satisfied(state, target):
                continue
            top = ts.trace.op(target)
            clause = _p2p_clause(ts, state, target, top)
            if clause is not None:
                sub.append(clause)
        from repro.mpi.constants import completion_needs_all

        if completion_needs_all(op.kind):
            cond.clauses.extend(sub)
        else:
            # OR over all sub-conditions: flatten into one clause.
            flat: List[WaitTarget] = []
            for clause in sub:
                flat.extend(clause)
            cond.clauses.append(tuple(flat))
        return cond
    raise ValueError(f"{op.describe()} cannot be a blocked operation")


def wait_for_conditions(
    ts: TransitionSystem, state: Sequence[int]
) -> Dict[int, WaitForCondition]:
    """Conditions for every blocked process of ``state``."""
    return {
        i: wait_for_condition(ts, state, i)
        for i in sorted(ts.blocked_processes(state))
    }


def resolve_rank_waits(
    infos: Iterable[RankWaitInfo],
    group_of: Callable[[int], Sequence[int]],
) -> Dict[int, WaitForCondition]:
    """Expand collective waits rank-wise and build CNF conditions.

    A rank blocked in wave W waits (AND) for every group member
    whose own blocked operation is *not* W: under strict blocking
    semantics nobody can have passed an incomplete wave, so
    non-reporters of W provably have not activated it. ``group_of``
    maps a communicator id to its group.
    """
    blocked_wave: Dict[int, Tuple[int, int]] = {}
    by_rank: Dict[int, RankWaitInfo] = {}
    for info in infos:
        by_rank[info.rank] = info
        for entry in info.entries:
            if isinstance(entry, CollectiveWait):
                blocked_wave[info.rank] = (entry.comm_id, entry.wave_index)
    conditions: Dict[int, WaitForCondition] = {}
    for rank in sorted(by_rank):
        info = by_rank[rank]
        cond = WaitForCondition(
            rank=rank,
            op_ref=(rank, -1),
            op_description=info.op_description,
        )
        or_clause: List[WaitTarget] = []
        for entry in info.entries:
            if isinstance(entry, CollectiveWait):
                wave = (entry.comm_id, entry.wave_index)
                for k in group_of(entry.comm_id):
                    if k == rank or blocked_wave.get(k) == wave:
                        continue
                    cond.clauses.append(
                        (intern_target(k, "has not activated the wave"),)
                    )
            elif isinstance(entry, P2PWait):
                targets = tuple(
                    intern_target(t, entry.reason) for t in entry.or_targets
                )
                if info.or_semantics:
                    or_clause.extend(targets)
                else:
                    cond.clauses.append(targets)
            else:
                raise ProtocolError(
                    f"unknown wait entry {type(entry).__name__}"
                )
        if info.or_semantics:
            cond.clauses.append(tuple(or_clause))
        conditions[rank] = cond
    return conditions
