"""TBON substrate: topology, network FIFO guarantees, aggregation."""
import pytest

from repro.mpi.constants import OpKind
from repro.tbon import (
    Network,
    TbonTopology,
    WaveAggregator,
    WaveContribution,
    fixed_latency,
    jittered_latency,
)
from repro.util.errors import CollectiveMismatchError


class TestTopology:
    def test_layers_and_roles(self):
        topo = TbonTopology.build(8, fan_in=2)
        assert topo.layers[0] == tuple(range(8))
        assert len(topo.first_layer) == 4
        assert topo.root == topo.layers[-1][0]
        assert topo.num_tool_nodes == 4 + 2 + 1

    def test_every_rank_has_a_first_layer_host(self):
        topo = TbonTopology.build(10, fan_in=4)
        for rank in range(10):
            host = topo.host_of_rank(rank)
            assert host in topo.first_layer
            assert rank in topo.ranks_of_host(host)

    def test_dedicated_root_for_small_worlds(self):
        """Even p <= fan_in gets a root above the first layer."""
        topo = TbonTopology.build(3, fan_in=4)
        assert len(topo.first_layer) == 1
        assert topo.root != topo.first_layer[0]
        assert topo.children(topo.root) == (topo.first_layer[0],)

    def test_parents_and_paths(self):
        topo = TbonTopology.build(16, fan_in=2)
        for node in topo.first_layer:
            path = topo.path_to_root(node)
            assert path[0] == node and path[-1] == topo.root
            for a, b in zip(path, path[1:]):
                assert topo.parent(a) == b

    def test_ranks_under(self):
        topo = TbonTopology.build(8, fan_in=2)
        assert topo.ranks_under(topo.root) == tuple(range(8))
        mid = topo.layers[2][0]
        assert topo.ranks_under(mid) == (0, 1, 2, 3)
        assert topo.ranks_under(5) == (5,)

    def test_root_has_no_parent(self):
        topo = TbonTopology.build(4, fan_in=2)
        with pytest.raises(KeyError):
            topo.parent(topo.root)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TbonTopology.build(0, 2)
        with pytest.raises(ValueError):
            TbonTopology.build(4, 1)

    def test_layer_of(self):
        topo = TbonTopology.build(4, fan_in=2)
        assert topo.layer_of(0) == 0
        assert topo.layer_of(topo.first_layer[0]) == 1
        assert topo.layer_of(topo.root) == len(topo.layers) - 1


class _Recorder:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def handle(self, msg, net, src):
        self.received.append((src, msg))


class TestNetwork:
    def test_fifo_per_channel_under_jitter(self):
        net = Network(jittered_latency(seed=42, base=1e-6, jitter=1e-4))
        sink = _Recorder(0)
        net.attach(sink)
        for i in range(50):
            net.send(1, 0, i)
        net.run()
        assert [m for _, m in sink.received] == list(range(50))

    def test_cross_channel_interleaving_allowed(self):
        net = Network(jittered_latency(seed=1, base=1e-6, jitter=1e-3))
        sink = _Recorder(0)
        net.attach(sink)
        for i in range(10):
            net.send(1, 0, ("a", i))
            net.send(2, 0, ("b", i))
        net.run()
        per_channel = {"a": [], "b": []}
        for src, (ch, i) in sink.received:
            per_channel[ch].append(i)
        assert per_channel["a"] == list(range(10))
        assert per_channel["b"] == list(range(10))

    def test_send_to_unattached_node(self):
        net = Network()
        with pytest.raises(KeyError):
            net.send(0, 99, "x")

    def test_call_at_ordering(self):
        net = Network(fixed_latency(1e-6))
        fired = []
        net.call_at(5.0, lambda: fired.append("late"))
        net.call_at(1.0, lambda: fired.append("early"))
        net.run()
        assert fired == ["early", "late"]
        assert net.now == 5.0

    def test_cannot_schedule_in_past(self):
        net = Network()
        net.call_at(1.0, lambda: None)
        net.run()
        with pytest.raises(ValueError):
            net.call_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            net.call_at(0.5, lambda: None, seq=net.reserve_seqs(1))

    def test_run_until_bound(self):
        net = Network(fixed_latency(1.0))
        sink = _Recorder(0)
        net.attach(sink)
        net.send(1, 0, "m")
        t = net.run(until=0.5)
        assert t == 0.5 and not sink.received
        net.run()
        assert sink.received

    def test_message_statistics(self):
        net = Network()
        net.attach(_Recorder(0))
        net.send(1, 0, "x", size=100)
        net.send(2, 0, "y", size=50)
        net.run()
        assert net.messages_sent == 2
        assert net.bytes_sent == 150

    def test_handlers_can_send(self):
        net = Network(fixed_latency(1e-6))
        sink = _Recorder(0)

        class Relay:
            node_id = 1

            def handle(self, msg, n, src):
                n.send(1, 0, msg + 1)

        net.attach(sink)
        net.attach(Relay())
        net.send(2, 1, 41)
        net.run()
        assert sink.received == [(1, 42)]


class TestWaveAggregator:
    def test_emits_exactly_once_at_threshold(self):
        agg = WaveAggregator()
        c = WaveContribution(count=1, kind=OpKind.BARRIER, root=None)
        assert agg.add("w", c, expected=3) is None
        assert agg.add("w", c, expected=3) is None
        out = agg.add("w", c, expected=3)
        assert out is not None and out.count == 3
        assert agg.pending_keys() == ()

    def test_partial_counts_aggregate(self):
        agg = WaveAggregator()
        out = agg.add(
            "w", WaveContribution(2, OpKind.ALLREDUCE, None), expected=5
        )
        assert out is None
        out = agg.add(
            "w", WaveContribution(3, OpKind.ALLREDUCE, None), expected=5
        )
        assert out.count == 5

    def test_kind_mismatch(self):
        agg = WaveAggregator()
        agg.add("w", WaveContribution(1, OpKind.BARRIER, None), expected=2)
        with pytest.raises(CollectiveMismatchError):
            agg.add("w", WaveContribution(1, OpKind.ALLREDUCE, None),
                    expected=2)

    def test_root_mismatch(self):
        agg = WaveAggregator()
        agg.add("w", WaveContribution(1, OpKind.REDUCE, 0), expected=2)
        with pytest.raises(CollectiveMismatchError):
            agg.add("w", WaveContribution(1, OpKind.REDUCE, 1), expected=2)

    def test_overcount_detected(self):
        agg = WaveAggregator()
        agg.add("w", WaveContribution(2, OpKind.BARRIER, None), expected=2)
        with pytest.raises(CollectiveMismatchError):
            agg.add("w", WaveContribution(1, OpKind.BARRIER, None),
                    expected=2)

    def test_independent_keys(self):
        agg = WaveAggregator()
        c = WaveContribution(1, OpKind.BARRIER, None)
        assert agg.add(("a", 0), c, expected=1) is not None
        assert agg.add(("a", 1), c, expected=2) is None
        assert set(agg.pending_keys()) == {("a", 1)}


class _NullNode:
    def __init__(self, node_id):
        self.node_id = node_id

    def handle(self, msg, net, src):
        pass


class TestBoundedRunClock:
    """Regression: ``run(until=T)`` must advance the clock to T even
    when the event heap drains early. It used to return the pre-drain
    clock, so back-to-back bounded runs saw time move backwards
    relative to the requested horizon."""

    def test_empty_heap_still_advances_to_until(self):
        net = Network(fixed_latency(0.25))
        assert net.run(until=5.0) == 5.0
        assert net.now == 5.0

    def test_drained_heap_advances_past_last_event(self):
        net = Network(fixed_latency(0.25))
        net.attach(_NullNode(0))
        net.send(1, 0, "hello", 8)
        assert net.run(until=2.0) == 2.0  # delivery was at t=0.25
        assert net.idle()
        # The advanced clock must be usable: scheduling relative to
        # `now` lands after the bound, never "in the past".
        fired = []
        net.call_later(0.5, lambda: fired.append(net.now))
        net.run()
        assert fired == [2.5]

    def test_monotonic_across_consecutive_bounded_runs(self):
        net = Network(fixed_latency(0.25))
        stamps = []
        for until in (1.0, 2.0, 3.0):
            stamps.append(net.run(until=until))
        assert stamps == [1.0, 2.0, 3.0]


class _Log:
    """A node appending its deliveries to a shared event log."""

    def __init__(self, node_id, log):
        self.node_id = node_id
        self.log = log

    def handle(self, msg, net, src):
        self.log.append(("deliver", msg))


class TestEventOrder:
    """The heap orders events by ``(time, seq)``: exact time ties go to
    whichever event was scheduled first, whatever its kind."""

    def test_same_time_deliveries_in_send_order(self):
        log = []
        net = Network(fixed_latency(1.0))
        net.attach(_Log(0, log))
        for src in (3, 1, 2):  # distinct channels, identical arrival
            net.send(src, 0, src)
        net.run()
        assert log == [("deliver", 3), ("deliver", 1), ("deliver", 2)]

    def test_same_time_call_and_delivery_in_schedule_order(self):
        log = []
        net = Network(fixed_latency(1.0))
        net.attach(_Log(0, log))
        net.call_at(1.0, lambda: log.append(("call", "a")))
        net.send(1, 0, "m")
        net.call_at(1.0, lambda: log.append(("call", "b")))
        net.run()
        assert log == [("call", "a"), ("deliver", "m"), ("call", "b")]

    def test_reserved_seqs_order_as_if_scheduled_at_reservation(self):
        log = []
        net = Network(fixed_latency(1.0))
        net.attach(_Log(0, log))
        first = net.reserve_seqs(2)
        net.send(1, 0, "fresh")  # takes a seq after the reserved block
        net.call_at(1.0, lambda: log.append(("call", 1)), seq=first + 1)
        net.call_at(1.0, lambda: log.append(("call", 0)), seq=first)
        net.run()
        assert log == [("call", 0), ("call", 1), ("deliver", "fresh")]

    def test_run_until_stops_at_the_bound(self):
        log = []
        net = Network(fixed_latency(1.0))
        net.attach(_Log(0, log))
        net.send(1, 0, "at-1")
        net.call_at(3.0, lambda: log.append(("call", "at-3")))
        assert net.run(until=2.0) == 2.0
        assert log == [("deliver", "at-1")]
        assert not net.idle()
        assert net.run() == 3.0
        assert log[-1] == ("call", "at-3") and net.idle()


class TestInjectionCursors:
    """The inline detector arms one injection per rank at a time, so its
    event heap is bounded by the ranks and the messages in flight, not
    by the length of the trace."""

    @staticmethod
    def _peak_heap(p, iterations):
        from repro.core.detector import DistributedDeadlockDetector
        from repro.workloads import build_stress_trace

        jitter = jittered_latency(1)
        peak = [0]
        detector = None

        def latency(src, dst, size):
            # Sampled on every send: the heap as the transport sees it.
            peak[0] = max(peak[0], len(detector.net._queue))
            return jitter(src, dst, size)

        matched = build_stress_trace(p, iterations=iterations)
        detector = DistributedDeadlockDetector(
            matched, seed=1, latency_model=latency
        )
        outcome = detector.run()
        assert not outcome.has_deadlock
        return peak[0]

    def test_only_first_injections_are_armed(self):
        from repro.core.detector import DistributedDeadlockDetector
        from repro.workloads import build_stress_trace

        detector = DistributedDeadlockDetector(build_stress_trace(16, 5))
        detector._schedule_events()
        assert len(detector.net._queue) == 16

    def test_stress_heap_is_linear_in_ranks(self):
        p = 256
        peak = self._peak_heap(p, iterations=20)
        # About one injection plus ~7 in-flight messages per rank; the
        # trace itself holds 63 operations per rank.
        assert peak <= 10 * p

    def test_heap_does_not_grow_with_trace_length(self):
        short = self._peak_heap(32, iterations=10)
        long = self._peak_heap(32, iterations=40)
        assert long <= short + 32
