"""Additional communication patterns for coverage beyond the paper.

These exercise the analyses on the structures real applications use:
butterfly exchanges, master/worker pools with wildcards, software
tree broadcasts built from point-to-point calls, 3-D stencils,
pipelines over derived communicators, and a persistent-request ring. Each comes in a healthy variant
and (where instructive) a subtly broken one.
"""
from __future__ import annotations

from typing import Iterator, List

from repro.mpi.constants import ANY_SOURCE
from repro.runtime.engine import RankProgram
from repro.runtime.program import Call, Rank


def butterfly_programs(p: int, rounds: int | None = None) -> List[RankProgram]:
    """A power-of-two butterfly (allreduce skeleton) via Sendrecv."""
    if p & (p - 1) or p < 2:
        raise ValueError("butterfly needs a power-of-two rank count")
    if rounds is None:
        rounds = p.bit_length() - 1

    def worker(rank: Rank) -> Iterator[Call]:
        for k in range(rounds):
            partner = rank.rank ^ (1 << k)
            yield from rank.sendrecv(dest=partner, source=partner,
                                     sendtag=k, recvtag=k)
        yield rank.finalize()

    return [worker] * p


def master_worker_programs(
    p: int, tasks_per_worker: int = 3
) -> List[RankProgram]:
    """Wildcard master/worker pool: the canonical ANY_SOURCE pattern."""
    if p < 2:
        raise ValueError("need a master and at least one worker")

    def master(rank: Rank) -> Iterator[Call]:
        outstanding = (rank.size - 1) * tasks_per_worker
        for _ in range(outstanding):
            status = yield rank.recv(source=ANY_SOURCE, tag=1)
            yield rank.send(dest=status.source, tag=2)
        for dest in range(1, rank.size):
            yield rank.send(dest=dest, tag=3)  # shutdown
        yield rank.finalize()

    def worker(rank: Rank) -> Iterator[Call]:
        for _ in range(tasks_per_worker):
            yield rank.send(dest=0, tag=1)
            yield rank.recv(source=0, tag=2)
        yield rank.recv(source=0, tag=3)
        yield rank.finalize()

    return [master] + [worker] * (p - 1)


def software_bcast_programs(p: int, root: int = 0) -> List[RankProgram]:
    """A binomial-tree broadcast written with point-to-point calls."""

    def worker(rank: Rank) -> Iterator[Call]:
        me = (rank.rank - root) % rank.size
        if me == 0:
            k = 1
        else:
            highest = 1 << (me.bit_length() - 1)
            parent = me - highest
            yield rank.recv(source=(parent + root) % rank.size, tag=9)
            k = highest << 1
        while me + k < rank.size:
            yield rank.send(dest=(me + k + root) % rank.size, tag=9)
            k <<= 1
        yield rank.finalize()

    return [worker] * p


def stencil3d_programs(
    nx: int, ny: int, nz: int, iterations: int = 2
) -> List[RankProgram]:
    """A 3-D halo exchange (6 neighbours) with Isend/Irecv/Waitall."""
    p = nx * ny * nz

    def worker(rank: Rank) -> Iterator[Call]:
        r = rank.rank
        x, y, z = r % nx, (r // nx) % ny, r // (nx * ny)
        neighbours = []
        for dx, dy, dz in (
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        ):
            xx, yy, zz = x + dx, y + dy, z + dz
            if 0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz:
                neighbours.append(xx + yy * nx + zz * nx * ny)
        for it in range(iterations):
            reqs = []
            for n in neighbours:
                reqs.append((yield rank.isend(n, tag=it, nbytes=4096)))
            for n in neighbours:
                reqs.append(
                    (yield rank.irecv(source=n, tag=it, nbytes=4096))
                )
            yield rank.waitall(reqs)
            if it % 2 == 1:
                yield rank.allreduce()
        yield rank.finalize()

    return [worker] * p


def comm_pipeline_programs(
    p: int, stages: int = 2, items: int = 3
) -> List[RankProgram]:
    """A pipeline over derived communicators.

    Ranks split into ``stages`` groups; within each group the members
    synchronize with group barriers while item tokens flow from stage
    to stage through the stage leaders.
    """
    if p < stages * 1:
        raise ValueError("need at least one rank per stage")

    def worker(rank: Rank) -> Iterator[Call]:
        stage = rank.rank % stages
        team = yield rank.comm_split(color=stage)
        leader = team.world_rank(0)
        # With the modulo split (world-rank keys), the leader of stage
        # s is world rank s, so tokens flow s-1 -> s between leaders.
        for item in range(items):
            if rank.rank == leader:
                if stage > 0:
                    yield rank.recv(source=stage - 1, tag=item)
                if stage < stages - 1:
                    yield rank.send(dest=stage + 1, tag=item)
            yield rank.barrier(comm=team)
        yield rank.finalize()

    return [worker] * p


def deferred_deadlock_programs(p: int, healthy_rounds: int = 5):
    """Healthy rounds, then a deadlock late in the run — exercises
    sliding windows plus a detection long after startup."""
    if p < 3:
        raise ValueError("need at least three ranks")

    def worker(rank: Rank) -> Iterator[Call]:
        right = (rank.rank + 1) % rank.size
        left = (rank.rank - 1) % rank.size
        for it in range(healthy_rounds):
            req = yield rank.isend(right, tag=it)
            yield rank.recv(source=left, tag=it)
            yield rank.wait(req)
        # The bug: ranks 0 and 1 enter a recv-recv deadlock; the rest
        # wait in a barrier that can never complete.
        if rank.rank == 0:
            yield rank.recv(source=1, tag=99)
            yield rank.barrier()
        elif rank.rank == 1:
            yield rank.recv(source=0, tag=99)
            yield rank.barrier()
        else:
            yield rank.barrier()
        yield rank.finalize()

    return [worker] * p


def persistent_ring_programs(p: int, iterations: int = 5) -> List[RankProgram]:
    """A ring exchange over persistent requests (Send_init/Recv_init,
    Startall + Waitall per iteration, then Request_free)."""

    def ring(rank: Rank) -> Iterator[Call]:
        right = (rank.rank + 1) % rank.size
        left = (rank.rank - 1) % rank.size
        sreq = yield rank.send_init(right, tag=1)
        rreq = yield rank.recv_init(left, tag=1)
        for _ in range(iterations):
            yield from rank.startall([sreq, rreq])
            yield rank.waitall([sreq, rreq])
        yield rank.request_free(sreq)
        yield rank.request_free(rreq)
        yield rank.finalize()

    return [ring] * p
