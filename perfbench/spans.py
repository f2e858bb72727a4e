"""Layer spans recorded from outside the program.

The traced run wraps the pipeline's public entry points (node
``handle`` by message type, ``Network.run``/``send``, the WFG build,
check and renderers, ``matched_trace_from_dict``, ``Session.record``/
``verify``, ...) with :class:`SpanRecorder` spans. Spans are kept in
memory per thread; a layer's self time is its span's duration minus
the durations of the spans nested inside it, so the self times of one
iteration plus its uncovered remainder (``other``) sum to the
iteration's wall time. Nothing under ``src/`` is modified: wrappers are
installed by attribute replacement and removed by :meth:`restore`.
"""
from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple, Union

#: Layer names, in table order (the ROADMAP's ledger layers plus the
#: backend, service and static-verification layers).
LAYERS = (
    "runtime",
    "serialize",
    "track",
    "transport",
    "aggregate",
    "sync",
    "gather",
    "wfg_build",
    "wfg_check",
    "output",
    "sharded",
    "serve",
    "verify",
)

#: First-layer node messages: Figure 7 tracking, Figure 8 handshake,
#: wait-info gather.
FIRST_LAYER_LAYERS = {
    "NewOpMsg": "track",
    "RankDoneMsg": "track",
    "PassSend": "track",
    "RecvActive": "track",
    "RecvActiveAck": "track",
    "CollectiveAck": "track",
    "RequestConsistentState": "sync",
    "Ping": "sync",
    "Pong": "sync",
    "RequestWaits": "gather",
}

#: Interior nodes aggregate collective waves and relay the protocol.
INTERIOR_LAYERS = {
    "CollectiveReady": "aggregate",
    "CollectiveAck": "aggregate",
    "AckConsistentState": "sync",
    "RequestConsistentState": "sync",
    "WaitInfoMsg": "gather",
    "RequestWaits": "gather",
}

#: The root completes waves, closes the handshake and gathers waits
#: (the last WaitInfoMsg runs the WFG build/check/output, which carry
#: their own nested spans).
ROOT_LAYERS = {
    "CollectiveReady": "aggregate",
    "AckConsistentState": "sync",
    "WaitInfoMsg": "gather",
}

Layer = Union[str, Callable[[Tuple[Any, ...]], str]]


class _Table:
    """One thread's open-span stack and per-layer totals."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)


class SpanRecorder:
    """Self-time accounting for wrapped calls, off until ``active``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.active = False
        self._clock = clock
        self._local = threading.local()
        self._tables: List[_Table] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        # Forked children (the sharded backend's workers) inherit the
        # wrappers; they must run unrecorded and at full speed.
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def _table(self) -> _Table:
        """This thread's table, created on its first span."""
        table = _Table()
        self._local.table = table
        with self._lock:
            self._tables.append(table)
        return table

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: Any, name: str, layer: Layer) -> None:
        """Replace ``owner.name`` by a span-recording wrapper.

        ``owner`` is a module or a class; class attributes keep their
        ``classmethod``/``staticmethod`` kind. ``layer`` is a layer
        name or a function of the call's positional arguments.
        """
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        wrapper = self._wrapper(raw.__func__ if kind is not None else raw, layer)
        setattr(owner, name, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, name, raw))

    def _wrapper(self, fn: Callable[..., Any], layer: Layer) -> Callable[..., Any]:
        # One flat closure: every traced call pays for it, so it makes
        # no further Python-level calls of its own.
        recorder = self
        local = self._local
        clock = self._clock
        pick = None if isinstance(layer, str) else layer

        def wrapper(*args: Any, **kw: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kw)
            try:
                table = local.table
            except AttributeError:
                table = recorder._table()
            stack = table.stack
            span = layer if pick is None else pick(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kw)
            finally:
                duration = clock() - start
                nested = stack.pop()
                table.busy[span] += duration - nested
                table.calls[span] += 1
                if stack:
                    stack[-1] += duration

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.busy.clear()
                table.calls.clear()

    def totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and span counts per layer, over all threads."""
        busy: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        with self._lock:
            for table in self._tables:
                for layer, seconds in table.busy.items():
                    busy[layer] += seconds
                for layer, count in table.calls.items():
                    calls[layer] += count
        return dict(busy), dict(calls)


def _by_message(mapping: Dict[str, str], default: str) -> Callable[[Tuple[Any, ...]], str]:
    def pick(args: Tuple[Any, ...]) -> str:
        # handle(self, msg, net, src)
        return mapping.get(type(args[1]).__name__, default)

    return pick


def install_pipeline(recorder: SpanRecorder) -> None:
    """Wrap the pipeline's entry points with layer spans."""
    from repro import api
    from repro.backend import sharded
    from repro.core import treenodes
    from repro.core.distributed import FirstLayerNode
    from repro.mpi import serialize
    from repro.obs import causal
    from repro.obs.flight import FlightRecorder
    from repro.serve import protocol
    from repro.tbon.network import Network
    from repro.wfg.graph import WaitForGraph

    wrap = recorder.wrap
    wrap(api.Session, "record", "runtime")
    wrap(api.Session, "verify", "verify")
    wrap(serialize, "load_trace", "serialize")
    wrap(serialize, "matched_trace_from_dict", "serialize")
    wrap(protocol, "encode", "serialize")
    wrap(FirstLayerNode, "handle", _by_message(FIRST_LAYER_LAYERS, "track"))
    wrap(treenodes.InteriorNode, "handle", _by_message(INTERIOR_LAYERS, "aggregate"))
    wrap(treenodes.RootNode, "handle", _by_message(ROOT_LAYERS, "gather"))
    wrap(treenodes.RootNode, "start_detection", "sync")
    for name in ("run", "send", "call_at"):
        wrap(Network, name, "transport")
    wrap(treenodes.RootNode, "_resolve_conditions", "wfg_build")
    wrap(WaitForGraph, "from_conditions", "wfg_build")
    wrap(treenodes, "detect_deadlock", "wfg_check")
    for name in ("render_dot", "render_html_report", "render_json_report"):
        wrap(treenodes, name, "output")
    wrap(causal, "blame_chain", "output")
    wrap(FlightRecorder, "snapshot", "output")
    wrap(sharded._FlightGather, "snapshot", "output")
    wrap(sharded.ShardedBackend, "run", "sharded")
