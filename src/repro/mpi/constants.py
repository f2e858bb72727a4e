"""MPI-model constants and operation kinds.

This module defines the vocabulary of the MPI subset the paper's wait
state analysis covers: every call class named in the blocking predicate
``b`` of Section 3.1, plus the communicator-management collectives that
Section 3.1 treats "as collectives" (e.g. ``MPI_Comm_dup``).

The integer sentinels mirror MPI's wildcard conventions so that rank
programs read like mpi4py code.
"""
from __future__ import annotations

import enum

#: Wildcard source for receive operations (``MPI_ANY_SOURCE``).
ANY_SOURCE: int = -1

#: Wildcard tag for receive operations (``MPI_ANY_TAG``).
ANY_TAG: int = -1

#: Null process: operations addressed here complete immediately and
#: match nothing (``MPI_PROC_NULL``).
PROC_NULL: int = -2

#: Identifier of the predefined world communicator.
WORLD_COMM_ID: int = 0


class OpKind(enum.Enum):
    """Kind of an intercepted MPI operation.

    The grouping properties (:func:`is_send_kind` etc.) encode the
    classification that the paper's transition rules dispatch on.
    """

    # Blocking point-to-point.
    SEND = "MPI_Send"
    SSEND = "MPI_Ssend"
    BSEND = "MPI_Bsend"
    RSEND = "MPI_Rsend"
    RECV = "MPI_Recv"
    PROBE = "MPI_Probe"

    # Persistent communication (Section 3.1: handled like
    # non-blocking point-to-point operations). The *_INIT calls create
    # inactive persistent requests; each MPI_Start activation is
    # recorded as its own request-creating operation instance.
    SEND_INIT = "MPI_Send_init"
    RECV_INIT = "MPI_Recv_init"
    PSTART_SEND = "MPI_Start[send]"
    PSTART_RECV = "MPI_Start[recv]"
    REQUEST_FREE = "MPI_Request_free"

    # Non-blocking point-to-point.
    ISEND = "MPI_Isend"
    ISSEND = "MPI_Issend"
    IBSEND = "MPI_Ibsend"
    IRSEND = "MPI_Irsend"
    IRECV = "MPI_Irecv"
    IPROBE = "MPI_Iprobe"

    # Completion operations.
    WAIT = "MPI_Wait"
    WAITANY = "MPI_Waitany"
    WAITSOME = "MPI_Waitsome"
    WAITALL = "MPI_Waitall"
    TEST = "MPI_Test"
    TESTANY = "MPI_Testany"
    TESTSOME = "MPI_Testsome"
    TESTALL = "MPI_Testall"

    # Collectives (all considered synchronizing by the strict ``b``).
    BARRIER = "MPI_Barrier"
    BCAST = "MPI_Bcast"
    REDUCE = "MPI_Reduce"
    ALLREDUCE = "MPI_Allreduce"
    GATHER = "MPI_Gather"
    ALLGATHER = "MPI_Allgather"
    SCATTER = "MPI_Scatter"
    ALLTOALL = "MPI_Alltoall"
    SCAN = "MPI_Scan"
    REDUCE_SCATTER = "MPI_Reduce_scatter"
    COMM_DUP = "MPI_Comm_dup"
    COMM_SPLIT = "MPI_Comm_split"
    COMM_CREATE = "MPI_Comm_create"
    COMM_FREE = "MPI_Comm_free"

    # Termination. MPI_Finalize is collective in MPI, but the paper makes
    # it the designated terminal operation with *no* applicable rule.
    FINALIZE = "MPI_Finalize"

    # A Sendrecv is decomposed into Isend+Irecv+Waitall by the runtime
    # (footnote 1 of the paper); this marker tags the decomposed ops so
    # deadlock reports can present them as a single call.
    SENDRECV_MARKER = "MPI_Sendrecv"

    # Classification flags, set once per member at import from the kind
    # sets below (which stay the single source). The predicates read
    # these instead of hashing the member: ``Enum.__hash__`` is a
    # Python-level call, and the predicates sit on every hot path.
    _send: bool
    _recv: bool
    _probe: bool
    _p2p: bool
    _nonblocking_p2p: bool
    _collective: bool
    _rooted_collective: bool
    _wait: bool
    _test: bool
    _any_completion: bool


_SEND_KINDS = frozenset(
    {
        OpKind.SEND,
        OpKind.SSEND,
        OpKind.BSEND,
        OpKind.RSEND,
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
        OpKind.PSTART_SEND,
    }
)

_RECV_KINDS = frozenset({OpKind.RECV, OpKind.IRECV, OpKind.PSTART_RECV})

_PROBE_KINDS = frozenset({OpKind.PROBE, OpKind.IPROBE})

_NONBLOCKING_P2P_KINDS = frozenset(
    {
        OpKind.ISEND,
        OpKind.ISSEND,
        OpKind.IBSEND,
        OpKind.IRSEND,
        OpKind.IRECV,
        OpKind.PSTART_SEND,
        OpKind.PSTART_RECV,
    }
)

_COLLECTIVE_KINDS = frozenset(
    {
        OpKind.BARRIER,
        OpKind.BCAST,
        OpKind.REDUCE,
        OpKind.ALLREDUCE,
        OpKind.GATHER,
        OpKind.ALLGATHER,
        OpKind.SCATTER,
        OpKind.ALLTOALL,
        OpKind.SCAN,
        OpKind.REDUCE_SCATTER,
        OpKind.COMM_DUP,
        OpKind.COMM_SPLIT,
        OpKind.COMM_CREATE,
        OpKind.COMM_FREE,
    }
)

_ROOTED_COLLECTIVE_KINDS = frozenset(
    {OpKind.BCAST, OpKind.REDUCE, OpKind.GATHER, OpKind.SCATTER}
)

_WAIT_KINDS = frozenset(
    {OpKind.WAIT, OpKind.WAITANY, OpKind.WAITSOME, OpKind.WAITALL}
)

_TEST_KINDS = frozenset(
    {OpKind.TEST, OpKind.TESTANY, OpKind.TESTSOME, OpKind.TESTALL}
)

# Completion kinds whose transition rule is satisfied by *one* matched and
# active associated operation (rule 4(I)); the complement of the wait
# kinds needs *all* of them (rule 4(II)).
_ANY_COMPLETION_KINDS = frozenset(
    {OpKind.WAITANY, OpKind.WAITSOME, OpKind.TESTANY, OpKind.TESTSOME}
)


for _kind in OpKind:
    _kind._send = _kind in _SEND_KINDS
    _kind._recv = _kind in _RECV_KINDS
    _kind._probe = _kind in _PROBE_KINDS
    _kind._p2p = _kind._send or _kind._recv or _kind._probe
    _kind._nonblocking_p2p = _kind in _NONBLOCKING_P2P_KINDS
    _kind._collective = _kind in _COLLECTIVE_KINDS
    _kind._rooted_collective = _kind in _ROOTED_COLLECTIVE_KINDS
    _kind._wait = _kind in _WAIT_KINDS
    _kind._test = _kind in _TEST_KINDS
    _kind._any_completion = _kind in _ANY_COMPLETION_KINDS
del _kind


def is_send_kind(kind: OpKind) -> bool:
    """Return ``True`` for any send flavour, blocking or not."""
    return kind._send


def is_recv_kind(kind: OpKind) -> bool:
    """Return ``True`` for blocking and non-blocking receives."""
    return kind._recv


def is_probe_kind(kind: OpKind) -> bool:
    """Return ``True`` for ``MPI_Probe`` / ``MPI_Iprobe``."""
    return kind._probe


def is_p2p_kind(kind: OpKind) -> bool:
    """Return ``True`` for any point-to-point or probe operation."""
    return kind._p2p


def is_nonblocking_p2p_kind(kind: OpKind) -> bool:
    """Return ``True`` for request-creating point-to-point operations."""
    return kind._nonblocking_p2p


def is_collective_kind(kind: OpKind) -> bool:
    """Return ``True`` for operations matched by collective matching."""
    return kind._collective


def is_rooted_collective_kind(kind: OpKind) -> bool:
    """Return ``True`` for collectives that carry a root argument."""
    return kind._rooted_collective


def is_wait_kind(kind: OpKind) -> bool:
    """Return ``True`` for blocking completion operations."""
    return kind._wait


def is_test_kind(kind: OpKind) -> bool:
    """Return ``True`` for non-blocking completion operations."""
    return kind._test


def is_completion_kind(kind: OpKind) -> bool:
    """Return ``True`` for operations completing MPI requests."""
    return kind._wait or kind._test


def completion_needs_all(kind: OpKind) -> bool:
    """Whether a completion op requires *all* its requests completable.

    ``MPI_Wait`` and ``MPI_Waitall`` (rule 4(II)) need every associated
    non-blocking operation matched with an active partner, while
    ``MPI_Waitany``/``MPI_Waitsome`` (rule 4(I)) need just one.
    """
    if not is_completion_kind(kind):
        raise ValueError(f"{kind} is not a completion operation")
    return not kind._any_completion
