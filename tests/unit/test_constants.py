"""Operation-kind classification (the vocabulary of the analyses)."""
import pytest

from repro.mpi import constants
from repro.mpi.constants import (
    OpKind,
    completion_needs_all,
    is_collective_kind,
    is_completion_kind,
    is_nonblocking_p2p_kind,
    is_p2p_kind,
    is_probe_kind,
    is_recv_kind,
    is_rooted_collective_kind,
    is_send_kind,
    is_test_kind,
    is_wait_kind,
)


def test_send_kinds_cover_all_flavours():
    for kind in (
        OpKind.SEND,
        OpKind.SSEND,
        OpKind.BSEND,
        OpKind.RSEND,
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
    ):
        assert is_send_kind(kind)
        assert is_p2p_kind(kind)
        assert not is_recv_kind(kind)
        assert not is_collective_kind(kind)


def test_recv_and_probe_kinds():
    assert is_recv_kind(OpKind.RECV)
    assert is_recv_kind(OpKind.IRECV)
    assert not is_recv_kind(OpKind.PROBE)
    assert is_probe_kind(OpKind.PROBE)
    assert is_probe_kind(OpKind.IPROBE)
    assert is_p2p_kind(OpKind.PROBE)


def test_nonblocking_p2p_kinds_create_requests():
    for kind in (
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
        OpKind.IRECV,
    ):
        assert is_nonblocking_p2p_kind(kind)
    assert not is_nonblocking_p2p_kind(OpKind.IPROBE)
    assert not is_nonblocking_p2p_kind(OpKind.SEND)


def test_collective_kinds_include_comm_management():
    """Section 3.1: Comm_dup etc. are matched as collectives."""
    for kind in (
        OpKind.BARRIER,
        OpKind.ALLREDUCE,
        OpKind.COMM_DUP,
        OpKind.COMM_SPLIT,
        OpKind.COMM_FREE,
        OpKind.SCAN,
        OpKind.REDUCE_SCATTER,
    ):
        assert is_collective_kind(kind)
    assert not is_collective_kind(OpKind.FINALIZE)


def test_rooted_collectives():
    assert is_rooted_collective_kind(OpKind.BCAST)
    assert is_rooted_collective_kind(OpKind.REDUCE)
    assert not is_rooted_collective_kind(OpKind.ALLREDUCE)
    assert not is_rooted_collective_kind(OpKind.BARRIER)


def test_completion_kind_partition():
    for kind in (OpKind.WAIT, OpKind.WAITANY, OpKind.WAITSOME, OpKind.WAITALL):
        assert is_wait_kind(kind)
        assert is_completion_kind(kind)
        assert not is_test_kind(kind)
    for kind in (OpKind.TEST, OpKind.TESTANY, OpKind.TESTSOME, OpKind.TESTALL):
        assert is_test_kind(kind)
        assert is_completion_kind(kind)
        assert not is_wait_kind(kind)


def test_completion_needs_all_matches_rule4():
    """Rule 4(II) covers Wait/Waitall; rule 4(I) Waitany/Waitsome."""
    assert completion_needs_all(OpKind.WAIT)
    assert completion_needs_all(OpKind.WAITALL)
    assert not completion_needs_all(OpKind.WAITANY)
    assert not completion_needs_all(OpKind.WAITSOME)
    assert completion_needs_all(OpKind.TEST)
    assert not completion_needs_all(OpKind.TESTANY)


def test_completion_needs_all_rejects_non_completions():
    with pytest.raises(ValueError):
        completion_needs_all(OpKind.SEND)


# The predicates read flags precomputed per member; the kind sets stay
# the single source, so every flag must equal set membership.
_FLAG_SOURCES = {
    is_send_kind: lambda k: k in constants._SEND_KINDS,
    is_recv_kind: lambda k: k in constants._RECV_KINDS,
    is_probe_kind: lambda k: k in constants._PROBE_KINDS,
    is_p2p_kind: lambda k: (
        k in constants._SEND_KINDS
        or k in constants._RECV_KINDS
        or k in constants._PROBE_KINDS
    ),
    is_nonblocking_p2p_kind: lambda k: k in constants._NONBLOCKING_P2P_KINDS,
    is_collective_kind: lambda k: k in constants._COLLECTIVE_KINDS,
    is_rooted_collective_kind: lambda k: k in constants._ROOTED_COLLECTIVE_KINDS,
    is_wait_kind: lambda k: k in constants._WAIT_KINDS,
    is_test_kind: lambda k: k in constants._TEST_KINDS,
    is_completion_kind: lambda k: (
        k in constants._WAIT_KINDS or k in constants._TEST_KINDS
    ),
}


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.name)
def test_precomputed_flags_equal_set_membership(kind):
    for predicate, membership in _FLAG_SOURCES.items():
        assert predicate(kind) is membership(kind), predicate.__name__
    if kind in constants._WAIT_KINDS or kind in constants._TEST_KINDS:
        assert completion_needs_all(kind) is (
            kind not in constants._ANY_COMPLETION_KINDS
        )
