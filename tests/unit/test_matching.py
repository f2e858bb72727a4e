"""The one deterministic matcher vs. runtime ground truth and edge cases.

``repro lint``, ``repro verify`` and ``repro prove`` share
:func:`repro.analysis.match_linear`. On a recorded trace, lint first
pins every wildcard receive or probe to the source/tag it matched at
runtime, which leaves the trace wildcard-free.
"""
import pytest

from repro.analysis import LinearMatchUnsupported, match_linear
from repro.analysis.driver import _resolve_with_observations
from repro.core.waitstate import analyze_trace
from repro.mpi.blocking import BlockingSemantics
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, OpKind
from repro.workloads import fig2b_programs, stress_programs
from repro.workloads.randomgen import safe_program_set
from tests.conftest import op, run_strict


def _match(*sequences):
    return match_linear(sequences, CommRegistry(len(sequences)))


def _recorded(res):
    """Recorded sequences with observed wildcards pinned, as lint does."""
    trace = res.trace
    sequences = [
        list(trace.sequence(r)) for r in range(trace.num_processes)
    ]
    return _resolve_with_observations(sequences), res.matched.comms


class TestP2PMatcher:
    def test_directed_in_order(self):
        s0 = [
            op(OpKind.SEND, 0, 0, peer=1, tag=0),
            op(OpKind.SEND, 0, 1, peer=1, tag=0),
        ]
        s1 = [
            op(OpKind.RECV, 1, 0, peer=0, tag=0),
            op(OpKind.RECV, 1, 1, peer=0, tag=0),
        ]
        result = _match(s0, s1)
        assert not result.has_deadlock
        assert not result.blocked_ops
        assert result.ops_processed == 4

    def test_tag_selective_out_of_order(self):
        # The tag-2 receive takes the second message; the ANY_TAG
        # receive then takes the first.
        s0 = [
            op(OpKind.ISEND, 0, 0, peer=1, tag=1, request=0),
            op(OpKind.ISEND, 0, 1, peer=1, tag=2, request=1),
            op(OpKind.WAITALL, 0, 2, requests=(0, 1)),
        ]
        s1 = [
            op(OpKind.RECV, 1, 0, peer=0, tag=2),
            op(OpKind.RECV, 1, 1, peer=0, tag=ANY_TAG),
        ]
        result = _match(s0, s1)
        assert not result.has_deadlock and not result.blocked_ops
        # With rendezvous sends the tag-1 message cannot be skipped.
        blocking = [
            op(OpKind.SEND, 0, 0, peer=1, tag=1),
            op(OpKind.SEND, 0, 1, peer=1, tag=2),
        ]
        result = _match(blocking, s1)
        assert result.deadlocked == (0, 1)

    def test_wildcard_uses_observed_decision(self):
        s0 = [op(OpKind.SEND, 0, 0, peer=2)]
        s1 = [op(OpKind.SEND, 1, 0, peer=2)]
        s2 = [
            op(OpKind.RECV, 2, 0, peer=ANY_SOURCE, observed_peer=1),
            op(OpKind.RECV, 2, 1, peer=ANY_SOURCE, observed_peer=0),
        ]
        pinned = _resolve_with_observations([s0, s1, s2])
        assert [o.peer for o in pinned[2]] == [1, 0]
        result = _match(*pinned)
        assert not result.has_deadlock and not result.blocked_ops

    def test_unresolved_wildcard_stays_unmatched(self):
        s0 = [op(OpKind.RECV, 0, 0, peer=ANY_SOURCE)]
        pinned = _resolve_with_observations([s0, []])
        assert pinned[0][0].peer == ANY_SOURCE
        with pytest.raises(LinearMatchUnsupported) as refusal:
            _match(*pinned)
        assert refusal.value.wildcard is pinned[0][0]

    def test_observed_source_without_send_is_trace_error(self):
        # An observed source that never sent leaves the pinned receive
        # blocked forever: the inconsistency surfaces, it is not
        # matched silently.
        s0 = [op(OpKind.RECV, 0, 0, peer=ANY_SOURCE, observed_peer=1)]
        result = _match(*_resolve_with_observations([s0, []]))
        assert result.deadlocked == (0,)
        assert result.blocked_ops == {0: (0, 0)}

    def test_probe_does_not_consume(self):
        # A probe waits for the rendezvous send without consuming it,
        # so the receive after it still matches.
        s0 = [op(OpKind.SEND, 0, 0, peer=1, tag=7)]
        for kind in (OpKind.PROBE, OpKind.IPROBE):
            s1 = [
                op(kind, 1, 0, peer=0, tag=7),
                op(OpKind.RECV, 1, 1, peer=0, tag=7),
            ]
            result = _match(s0, s1)
            assert not result.has_deadlock, kind
            assert result.ops_processed == 3

    def test_matches_runtime_on_random_programs(self):
        checked = 0
        for seed in range(10):
            gen = safe_program_set(4, events=14, seed=seed,
                                   allow_wildcards=True)
            res = run_strict(gen.programs(), seed=seed)
            if res.deadlocked:
                continue
            result = match_linear(*_recorded(res))
            assert not result.has_deadlock, seed
            assert not result.blocked_ops, seed
            checked += 1
        assert checked >= 5


class TestCollectiveMatcher:
    def test_waves_in_per_comm_order(self):
        res = run_strict(stress_programs(4, iterations=20), seed=1)
        sequences, comms = _recorded(res)
        barriers = [
            sum(o.kind is OpKind.BARRIER for o in seq) for seq in sequences
        ]
        assert barriers == [2] * 4  # barriers at iterations 10 and 20
        result = match_linear(sequences, comms)
        assert not result.has_deadlock and not result.blocked_ops
        assert result.ops_processed == sum(len(s) for s in sequences)

    def test_kind_mismatch_raises(self):
        s0 = [op(OpKind.BARRIER, 0, 0)]
        s1 = [op(OpKind.ALLREDUCE, 1, 0)]
        with pytest.raises(LinearMatchUnsupported, match="mismatched"):
            _match(s0, s1)

    def test_root_mismatch_raises(self):
        s0 = [op(OpKind.REDUCE, 0, 0, root=0)]
        s1 = [op(OpKind.REDUCE, 1, 0, root=1)]
        with pytest.raises(LinearMatchUnsupported, match="mismatched"):
            _match(s0, s1)

    def test_incomplete_wave_reported_pending(self):
        s0 = [op(OpKind.BARRIER, 0, 0)]
        result = _match(s0, [])
        assert result.blocked_ops == {0: (0, 0)}
        assert result.deadlocked == (0,)
        (clause,) = result.conditions[0].clauses
        assert [t.rank for t in clause] == [1]

    def test_nonmember_participation_raises(self):
        reg = CommRegistry(3)
        sub = reg.create([0, 1])
        s2 = [op(OpKind.BARRIER, 2, 0, comm_id=sub.comm_id)]
        with pytest.raises(LinearMatchUnsupported, match="belong"):
            match_linear([[], [], s2], reg)


class TestFullMatchTrace:
    def test_equals_runtime_ground_truth(self):
        res = run_strict(fig2b_programs(), seed=3)
        assert res.deadlocked
        runtime = analyze_trace(
            res.matched,
            semantics=BlockingSemantics.strict(),
            generate_outputs=False,
        )
        result = match_linear(*_recorded(res))
        assert result.deadlocked == tuple(sorted(runtime.deadlocked))
        assert set(result.witness_cycle) == set(runtime.deadlocked)
