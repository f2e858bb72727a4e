"""O(n) linear matching for the wildcard-free fragment."""
from dataclasses import replace

import pytest

from repro.analysis import (
    Verdict,
    explore_sequences,
    extract_programs,
    match_linear,
    replay_witness,
)
from repro.analysis.symbolic import LinearMatchUnsupported
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, OpKind


def _extract(programs):
    ext = extract_programs(list(programs))
    assert not ext.truncated
    return ext


def _linear(programs):
    ext = _extract(programs)
    return match_linear(ext.sequences, ext.comms), ext


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------

def test_ping_pong_is_deadlock_free():
    def even(rank):
        yield rank.send(rank.rank + 1, tag=0)
        yield rank.recv(source=rank.rank + 1, tag=1)
        yield rank.finalize()

    def odd(rank):
        yield rank.recv(source=rank.rank - 1, tag=0)
        yield rank.send(rank.rank - 1, tag=1)
        yield rank.finalize()

    result, ext = _linear([even, odd, even, odd])
    assert not result.has_deadlock
    assert result.deadlocked == ()
    assert result.witness is None
    # Every op ran exactly once: linear in the trace length.
    total = sum(len(seq) for seq in ext.sequences)
    assert result.ops_processed == total


def test_head_to_head_receives_deadlock():
    def prog(rank):
        peer = 1 - rank.rank
        yield rank.recv(source=peer, tag=0)
        yield rank.send(peer, tag=0)
        yield rank.finalize()

    result, _ = _linear([prog, prog])
    assert result.has_deadlock
    assert sorted(result.deadlocked) == [0, 1]
    assert result.witness_cycle and set(result.witness_cycle) <= {0, 1}
    assert result.detection is not None
    assert result.detection.has_deadlock


def test_send_ring_under_rendezvous_deadlocks_all_ranks():
    def ring(rank):
        right = (rank.rank + 1) % rank.size
        left = (rank.rank - 1) % rank.size
        yield rank.send(right, tag=0)
        yield rank.recv(source=left, tag=0)
        yield rank.finalize()

    result, _ = _linear([ring] * 4)
    assert result.has_deadlock
    assert sorted(result.deadlocked) == [0, 1, 2, 3]


def test_missing_collective_participant_deadlocks():
    def with_barrier(rank):
        yield rank.barrier()
        yield rank.finalize()

    def without_barrier(rank):
        yield rank.finalize()

    result, _ = _linear([with_barrier, with_barrier, without_barrier])
    assert result.has_deadlock
    # The two barrier callers starve; rank 2 parks in FINALIZE but is
    # reported blocked too (the world wave can never complete).
    assert 0 in result.deadlocked and 1 in result.deadlocked


# ----------------------------------------------------------------------
# Fragment features: nonblocking, buffered, ANY_TAG, probe
# ----------------------------------------------------------------------

def test_nonblocking_exchange_completes():
    def prog(rank):
        peer = 1 - rank.rank
        s = yield rank.isend(peer, tag=3)
        r = yield rank.irecv(source=peer, tag=3)
        yield rank.waitall([s, r])
        yield rank.barrier()
        yield rank.finalize()

    result, _ = _linear([prog, prog])
    assert not result.has_deadlock


def test_buffered_send_breaks_the_ring():
    def ring(rank):
        right = (rank.rank + 1) % rank.size
        left = (rank.rank - 1) % rank.size
        yield rank.bsend(right, tag=0)
        yield rank.recv(source=left, tag=0)
        yield rank.finalize()

    result, _ = _linear([ring] * 4)
    assert not result.has_deadlock


def test_any_tag_directed_receive_matches_in_arrival_order():
    def sender(rank):
        yield rank.send(1, tag=5)
        yield rank.send(1, tag=9)
        yield rank.finalize()

    def receiver(rank):
        yield rank.recv(source=0, tag=ANY_TAG)
        yield rank.recv(source=0, tag=9)
        yield rank.finalize()

    # Non-overtaking: the ANY_TAG receive must take tag=5 (posted
    # first), leaving tag=9 for the directed receive.
    result, _ = _linear([sender, receiver])
    assert not result.has_deadlock


def test_probe_blocks_until_message_then_leaves_it_queued():
    def sender(rank):
        yield rank.send(1, tag=2)
        yield rank.finalize()

    def prober(rank):
        yield rank.probe(source=0, tag=2)
        yield rank.recv(source=0, tag=2)
        yield rank.finalize()

    result, _ = _linear([sender, prober])
    assert not result.has_deadlock


def test_probe_for_message_never_sent_deadlocks():
    def silent(rank):
        yield rank.finalize()

    def prober(rank):
        yield rank.probe(source=0, tag=2)
        yield rank.finalize()

    result, _ = _linear([silent, prober])
    assert result.has_deadlock
    assert 1 in result.deadlocked


# ----------------------------------------------------------------------
# Unsupported inputs refuse loudly
# ----------------------------------------------------------------------

def test_wildcard_source_is_refused():
    def master(rank):
        yield rank.recv(source=ANY_SOURCE, tag=0)
        yield rank.finalize()

    def worker(rank):
        yield rank.send(0, tag=0)
        yield rank.finalize()

    ext = _extract([master, worker])
    with pytest.raises(LinearMatchUnsupported):
        match_linear(ext.sequences, ext.comms)


def test_runtime_steered_completion_is_refused():
    def prog(rank):
        peer = 1 - rank.rank
        r = yield rank.isend(peer, tag=0)
        yield rank.waitany([r])
        yield rank.recv(source=peer, tag=0)
        yield rank.finalize()

    ext = extract_programs([prog, prog])
    with pytest.raises(LinearMatchUnsupported):
        match_linear(ext.sequences, ext.comms)


# ----------------------------------------------------------------------
# Parity with the state-graph explorer
# ----------------------------------------------------------------------

def _explorer_parity(programs):
    ext = _extract(programs)
    lin = match_linear(ext.sequences, ext.comms)
    exp = explore_sequences(ext.sequences, ext.comms)
    assert lin.has_deadlock == (exp.verdict is Verdict.DEADLOCK_POSSIBLE)
    assert sorted(lin.deadlocked) == sorted(exp.deadlocked)
    return lin, exp


def _reasons(cond):
    clauses = sorted(
        tuple((t.rank, t.reason) for t in clause) for clause in cond.clauses
    )
    return cond.rank, cond.op_description, tuple(clauses)


def test_deadlock_conditions_match_the_explorer_verbatim():
    def head_to_head(rank):
        peer = 1 - rank.rank
        yield rank.recv(source=peer, tag=0)
        yield rank.send(peer, tag=0)
        yield rank.finalize()

    def waitall(rank):
        # Both requests wait on calls the peer makes after its Waitall:
        # one AND clause per request.
        peer = 1 - rank.rank
        recv = yield rank.irecv(source=peer, tag=1)
        send = yield rank.issend(peer, tag=2)
        yield rank.waitall([recv, send])
        yield rank.send(peer, tag=1)
        yield rank.recv(source=peer, tag=2)
        yield rank.finalize()

    def waitany(rank):
        # Same requests under Waitany: one OR clause.
        peer = 1 - rank.rank
        recv = yield rank.irecv(source=peer, tag=1)
        send = yield rank.issend(peer, tag=2)
        yield rank.waitany([recv, send])
        yield rank.send(peer, tag=1)
        yield rank.recv(source=peer, tag=2)
        yield rank.finalize()

    def probe(rank):
        peer = 1 - rank.rank
        yield rank.probe(source=peer, tag=0)
        yield rank.recv(source=peer, tag=0)
        yield rank.send(peer, tag=0)
        yield rank.finalize()

    def barrier_first(rank):
        yield rank.barrier()
        yield rank.send(1, tag=0)
        yield rank.finalize()

    def recv_first(rank):
        # Never reaches the barrier rank 0 waits in.
        yield rank.recv(source=0, tag=0)
        yield rank.barrier()
        yield rank.finalize()

    def recorded_waitany(sequences):
        # The linear matcher completes a Waitany at its recorded
        # outcome; the explorer ignores the record.
        return [
            [
                replace(op, completed_indices=(0,))
                if op.kind is OpKind.WAITANY
                else op
                for op in seq
            ]
            for seq in sequences
        ]

    cases = [
        ([head_to_head, head_to_head], None),
        ([waitall, waitall], None),
        ([waitany, waitany], recorded_waitany),
        ([probe, probe], None),
        ([barrier_first, recv_first], None),
    ]
    seen_ops = set()
    for programs, pin in cases:
        ext = extract_programs(programs)
        sequences = ext.sequences if pin is None else pin(ext.sequences)
        lin = match_linear(sequences, ext.comms)
        exp = explore_sequences(sequences, ext.comms)
        assert lin.has_deadlock and exp.verdict is Verdict.DEADLOCK_POSSIBLE
        lin_reasons = {_reasons(c) for c in lin.conditions.values()}
        exp_reasons = {_reasons(c) for c in exp.conditions.values()}
        assert lin_reasons == exp_reasons
        seen_ops.update(
            description.split("(")[0] for _, description, _ in lin_reasons
        )
    assert {
        "MPI_Recv", "MPI_Waitall", "MPI_Waitany", "MPI_Probe", "MPI_Barrier",
    } <= seen_ops


def test_collective_kind_mismatch_is_refused_like_the_explorer():
    # Mismatched collective waves are structural errors `_Model`
    # rejects up front — the linear matcher mirrors the explorer's
    # refusal rather than inventing a verdict.
    from repro.analysis import ExplorationUnsupported

    def a(rank):
        yield rank.barrier()
        yield rank.finalize()

    def b(rank):
        yield rank.allreduce()
        yield rank.finalize()

    ext = _extract([a, b])
    with pytest.raises(LinearMatchUnsupported):
        match_linear(ext.sequences, ext.comms)
    with pytest.raises(ExplorationUnsupported):
        explore_sequences(ext.sequences, ext.comms)


def test_deadlock_witness_replays_into_a_real_runtime_deadlock():
    def prog(rank):
        peer = 1 - rank.rank
        yield rank.recv(source=peer, tag=0)
        yield rank.send(peer, tag=0)
        yield rank.finalize()

    lin, _ = _linear([prog, prog])
    assert lin.witness is not None
    outcome = replay_witness([prog, prog], lin.witness)
    assert outcome.confirmed, outcome.reason
    assert sorted(outcome.runtime_deadlocked) == [0, 1]
