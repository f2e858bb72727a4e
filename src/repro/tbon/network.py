"""Discrete-event simulation of the TBON's message transport.

GTI's transport guarantees the distributed algorithm relies on are:
(1) channels are non-overtaking — per (source, destination) pair,
messages are handled in send order; and (2) every message eventually
arrives. The simulator provides exactly these guarantees while
otherwise delivering adversarially: per-message latency comes from a
pluggable model (deterministic constants for the cost studies, seeded
random jitter for protocol stress tests), and each node processes one
message at a time with a configurable per-message cost.

Handlers run inside the simulation: a node's ``handle`` may call
:meth:`Network.send`, and time advances only through the event queue —
there is no wall-clock dependence anywhere.
"""
from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from repro.obs.events import PID_TBON
from repro.obs.observer import NULL_OBSERVER, Observer

#: Emit one "tbon.queue" counter sample every this many deliveries.
_QUEUE_SAMPLE_EVERY = 64


class Node(Protocol):
    """Anything attachable to the network."""

    node_id: int

    def handle(self, msg: object, net: "Transport", src: int) -> None:
        ...


class Transport(Protocol):
    """What a node may assume about its transport.

    Both the simulated :class:`Network` (the inline backend) and the
    sharded backend's per-worker ``ShardNetwork`` satisfy this: a FIFO
    ``send``, a monotonic clock ``now``, and the observer handle. Node
    implementations (`repro.core.distributed` / `repro.core.treenodes`)
    are written against this protocol so the same handler code runs
    unchanged in-process and across shard workers.
    """

    obs: object

    @property
    def now(self) -> float:
        ...

    def send(self, src: int, dst: int, msg: object, size: int = 64) -> None:
        ...


class LatencyModel(Protocol):
    def __call__(self, src: int, dst: int, size: int) -> float:
        ...


def fixed_latency(seconds: float = 1e-6) -> LatencyModel:
    """Constant link latency (useful for unit tests)."""

    def model(src: int, dst: int, size: int) -> float:
        return seconds

    return model


def jittered_latency(
    seed: int, base: float = 1e-6, jitter: float = 5e-6
) -> LatencyModel:
    """Seeded-random latency: adversarial cross-channel interleavings.

    Per-channel FIFO is still enforced by the network itself, so this
    only perturbs the relative order of *different* channels — exactly
    the freedom a real network has.
    """
    rng = random.Random(seed)

    def model(src: int, dst: int, size: int) -> float:
        return base + rng.random() * jitter

    return model


#: One heap entry: ``(time, seq, src, dst, msg, callback)``. ``seq`` is
#: unique, so tuple comparison (done in C) never looks past it. A
#: delivery has ``callback=None``; a scheduled call has ``src = dst =
#: -1`` and ``msg=None``.
_Event = Tuple[float, int, int, int, object, Optional[Callable[[], None]]]


class Network:
    """The event queue, channels, and node registry."""

    def __init__(
        self,
        latency_model: LatencyModel | None = None,
        *,
        node_cost: float = 0.0,
        max_events: int = 200_000_000,
        observer: Observer | None = None,
    ) -> None:
        self._latency = latency_model or fixed_latency()
        self._node_cost = node_cost
        self._max_events = max_events
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._nodes: Dict[int, Node] = {}
        self._queue: List[_Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        #: Non-overtaking enforcement: earliest admissible delivery time
        #: per (src, dst) channel.
        self._channel_front: Dict[Tuple[int, int], float] = {}
        #: Node busy-until times (one message processed at a time).
        self._busy_until: Dict[int, float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self._deliveries = 0

    @property
    def now(self) -> float:
        return self._now

    def attach(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} attached twice")
        self._nodes[node.node_id] = node

    def send(self, src: int, dst: int, msg: object, size: int = 64) -> None:
        """Send ``msg`` from ``src`` to ``dst`` over the FIFO channel."""
        if dst not in self._nodes:
            raise KeyError(f"send to unattached node {dst}")
        latency = self._latency(src, dst, size)
        if latency < 0:
            raise ValueError("negative latency")
        arrival = self._now + latency
        key = (src, dst)
        front = self._channel_front.get(key, 0.0)
        arrival = max(arrival, front)
        # Strictly increase the channel front so same-instant messages
        # still dequeue in send order (seq breaks exact ties).
        self._channel_front[key] = arrival
        heapq.heappush(
            self._queue, (arrival, next(self._seq), src, dst, msg, None)
        )
        self.messages_sent += 1
        self.bytes_sent += size
        if self.obs.enabled:
            mtype = type(msg).__name__
            self.obs.metrics.inc(f"tbon.sent.{mtype}")
            self.obs.metrics.inc(f"tbon.sent_bytes.{mtype}", size)
            # Untyped total: the live monitor derives its channel
            # backlog (sent - delivered) from this pair without
            # enumerating per-type counters every tick.
            self.obs.metrics.inc("tbon.sent_total")

    def reserve_seqs(self, count: int) -> int:
        """Set aside ``count`` consecutive sequence numbers.

        Returns the first. Events later scheduled with ``call_at(...,
        seq=first + i)`` order among same-time events exactly as if
        they had all been scheduled now, in ``i`` order — which lets a
        caller arm a long chain of calls one link at a time.
        """
        first = next(self._seq)
        self._seq = itertools.count(first + count)
        return first

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        seq: Optional[int] = None,
    ) -> None:
        """Schedule ``callback`` at an absolute simulated time.

        ``seq`` is one of the numbers :meth:`reserve_seqs` set aside;
        by default the call takes the next fresh one.
        """
        if time < self._now:
            raise ValueError("cannot schedule in the past")
        if seq is None:
            seq = next(self._seq)
        heapq.heappush(self._queue, (time, seq, -1, -1, None, callback))

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self._now + delay, callback)

    def run(self, until: float | None = None) -> float:
        """Process events (optionally up to simulated time ``until``).

        Returns the current simulated time: ``until`` when a bound was
        given (the clock always advances to it, even when the event
        heap drains early), otherwise the time the queue drained at.
        ``idle()`` afterwards answers whether events remain past the
        bound — a drained heap at ``now == until`` is idle, a bounded
        stop with later events pending is not.
        """
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return self._now
            time, _, src, dst, msg, callback = heappop(queue)
            processed += 1
            if processed > self._max_events:
                raise RuntimeError(
                    f"network exceeded {self._max_events} events"
                )
            if time > self._now:
                self._now = time
            if callback is not None:
                callback()
                continue
            node = self._nodes[dst]
            if self._node_cost > 0.0:
                # Serialize processing on the node: handling starts when
                # the node is free and occupies it for node_cost.
                start = max(self._now, self._busy_until.get(dst, 0.0))
                self._busy_until[dst] = start + self._node_cost
                self._now = max(self._now, start)
            if self.obs.enabled:
                mtype = type(msg).__name__
                self.obs.metrics.inc(f"tbon.recv.{mtype}")
                self.obs.metrics.inc("tbon.delivered_total")
                self.obs.metrics.gauge("tbon.queue_depth").set(
                    len(self._queue)
                )
                # A decimated counter track ("tbon.queue") so Perfetto
                # draws queue pressure over simulated time without one
                # sample per delivery bloating the artifact.
                self._deliveries += 1
                if self._deliveries % _QUEUE_SAMPLE_EVERY == 1:
                    self.obs.tracer.counter(
                        "tbon.queue",
                        ts=self._now * 1e6,
                        pid=PID_TBON,
                        values={"depth": float(len(self._queue))},
                    )
                self.obs.tracer.instant(
                    mtype,
                    cat="tbon.deliver",
                    ts=self._now * 1e6,
                    pid=PID_TBON,
                    tid=dst,
                    args={"src": src},
                )
            node.handle(msg, self, src)
        # The heap drained. A bounded run still owes the caller the
        # full interval: without this, run(until=T) returned the
        # pre-drain clock (the last event's time) whenever the heap
        # emptied at or before T, so back-to-back bounded runs saw
        # time jump backwards relative to the requested horizon.
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def idle(self) -> bool:
        """True when no events are pending (consistent with ``run``:
        after a bounded run, idle means the drain — not the bound —
        ended it)."""
        return not self._queue
