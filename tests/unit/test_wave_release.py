"""When the runtime lets a rank leave a collective wave.

Every collective arrival and every resume is logged with the engine
step it happened in, so the tests can say *exactly when* each
participant was released:

* strict semantics: at the wave's last arrival, for everyone;
* relaxed bcast/scatter: the root at once, a non-root at the later of
  its own arrival and the root's (parked non-roots are released by the
  root's arrival itself, not by the wave's completion);
* relaxed reduce/gather: non-roots at once, the root at completion;
* barrier (always synchronizing): at completion.
"""
from __future__ import annotations

from collections import defaultdict

import pytest

from repro.mpi.blocking import BlockingSemantics
from repro.mpi.constants import OpKind
from repro.runtime.engine import Engine

SEEDS = range(12)


class _LoggedEngine(Engine):
    def __init__(self, *args, **kwargs):
        self.arrivals = []  # (step, rank, kind, root)
        self.resumes = defaultdict(list)  # rank -> [step, ...]
        super().__init__(*args, **kwargs)

    def _issue_collective(self, rank, call, op):
        if op.kind is not OpKind.FINALIZE:
            self.arrivals.append((self._step_count, rank, op.kind, op.root))
        super()._issue_collective(rank, call, op)

    def _resume(self, rank, result):
        self.resumes[rank].append(self._step_count)
        super()._resume(rank, result)


def skewed_collectives(rank):
    """Roots of the bcast (0) and scatter (1) arrive late; the reduce
    (root 2) and gather (root 3) roots arrive early."""
    me = rank.rank
    if me == 0:
        yield rank.recv(source=4, nbytes=4)
    if me == 4:
        yield rank.send(dest=0, nbytes=4)
    yield rank.bcast(root=0)
    if me == 1:
        yield rank.recv(source=3, nbytes=4)
    if me == 3:
        yield rank.send(dest=1, nbytes=4)
    yield rank.scatter(root=1)
    if me in (0, 1):
        yield rank.recv(source=4, nbytes=4)
    if me == 4:
        yield rank.send(dest=0, nbytes=4)
        yield rank.send(dest=1, nbytes=4)
    yield rank.reduce(root=2)
    yield rank.gather(root=3)
    yield rank.barrier()
    yield rank.finalize()


def _releases(engine, p):
    """Per wave: ``{rank: (arrival_step, release_step)}`` plus the wave's
    kind, root and completion step."""
    waves = defaultdict(dict)
    meta = {}
    count = defaultdict(int)
    for step, rank, kind, root in engine.arrivals:
        index = count[rank]
        count[rank] += 1
        release = min(s for s in engine.resumes[rank] if s >= step)
        waves[index][rank] = (step, release)
        meta[index] = (kind, root)
    out = []
    for index, members in sorted(waves.items()):
        assert len(members) == p, "every wave completes"
        kind, root = meta[index]
        done = max(arrival for arrival, _ in members.values())
        out.append((kind, root, done, members))
    return out


def _run(semantics, seed, p=5):
    engine = _LoggedEngine([skewed_collectives] * p, semantics=semantics, seed=seed)
    result = engine.run()
    assert not result.deadlocked
    return _releases(engine, p)


@pytest.mark.parametrize("seed", SEEDS)
def test_strict_nobody_leaves_early(seed):
    for kind, root, done, members in _run(BlockingSemantics.strict(), seed):
        for rank, (_, release) in members.items():
            assert release == done, (kind.name, rank)


@pytest.mark.parametrize("seed", SEEDS)
def test_relaxed_release_points(seed):
    for kind, root, done, members in _run(BlockingSemantics.relaxed(), seed):
        root_arrival = members[root][0] if root is not None else None
        for rank, (arrival, release) in members.items():
            if kind in (OpKind.BCAST, OpKind.SCATTER):
                expect = arrival if rank == root else max(arrival, root_arrival)
            elif kind in (OpKind.REDUCE, OpKind.GATHER):
                expect = done if rank == root else arrival
            else:
                expect = done
            assert release == expect, (kind.name, rank, arrival, root_arrival)


def test_relaxed_parks_non_roots_before_the_root_arrives():
    """The seeds above really exercise the release-at-root path: some
    bcast/scatter non-root parks before its root arrives, and the wave
    is still incomplete when the root's arrival releases it."""
    exercised = 0
    for seed in SEEDS:
        for kind, root, done, members in _run(BlockingSemantics.relaxed(), seed):
            if kind not in (OpKind.BCAST, OpKind.SCATTER):
                continue
            root_arrival = members[root][0]
            exercised += sum(
                1
                for rank, (arrival, release) in members.items()
                if arrival < root_arrival < done and release == root_arrival
            )
    assert exercised > 0


def test_released_non_root_can_unblock_a_late_member():
    """A non-root released by the root's arrival goes on to send the
    message a still-absent member needs before it can join the wave.
    Holding the non-root until the wave completes would hang this."""

    def program(rank):
        me = rank.rank
        if me == 2:
            yield rank.recv(source=1, nbytes=4)
        yield rank.bcast(root=0)
        if me == 1:
            yield rank.send(dest=2, nbytes=4)
        yield rank.finalize()

    for seed in SEEDS:
        relaxed = Engine([program] * 3, semantics=BlockingSemantics.relaxed(), seed=seed)
        assert not relaxed.run().deadlocked, seed
        strict = Engine([program] * 3, semantics=BlockingSemantics.strict(), seed=seed)
        assert strict.run().deadlocked, seed
