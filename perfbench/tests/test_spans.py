"""Self time: a span minus the spans nested inside it."""
import os
import types

import pytest

from perfbench.spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Pipeline:
    """outer (1s own) -> middle (2s own) -> leaf (4s), then outer 8s more."""

    def __init__(self, clock):
        self.clock = clock

    def leaf(self):
        self.clock.now += 4.0

    def middle(self):
        self.clock.now += 2.0
        self.leaf()

    def outer(self):
        self.clock.now += 1.0
        self.middle()
        self.clock.now += 8.0
        return "done"

    @classmethod
    def build(cls, clock):
        clock.now += 16.0
        return cls(clock)


@pytest.fixture
def traced():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    recorder.wrap(Pipeline, "outer", "a")
    recorder.wrap(Pipeline, "middle", "b")
    recorder.wrap(Pipeline, "leaf", "c")
    recorder.wrap(Pipeline, "build", "d")
    yield recorder, clock
    recorder.restore()


def test_nested_spans_report_self_time(traced):
    recorder, clock = traced
    recorder.active = True
    assert Pipeline(clock).outer() == "done"
    busy, calls = recorder.totals()
    assert busy == {"a": 9.0, "b": 2.0, "c": 4.0}
    assert calls == {"a": 1, "b": 1, "c": 1}
    # Self times of a fully covered call sum to its wall time.
    assert sum(busy.values()) == clock.now


def test_same_layer_nesting_is_not_double_counted():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    recorder.wrap(Pipeline, "outer", "x")
    recorder.wrap(Pipeline, "middle", "x")
    try:
        recorder.active = True
        Pipeline(clock).outer()
    finally:
        recorder.restore()
    busy, calls = recorder.totals()
    # The unwrapped leaf's 4s count as the middle span's own time.
    assert busy == {"x": 15.0}
    assert calls == {"x": 2}


def test_classmethods_stay_classmethods(traced):
    recorder, clock = traced
    recorder.active = True
    built = Pipeline.build(clock)
    assert isinstance(built, Pipeline)
    assert recorder.totals()[0] == {"d": 16.0}


def test_inactive_recorder_records_nothing(traced):
    recorder, clock = traced
    Pipeline(clock).outer()
    assert recorder.totals() == ({}, {})


def test_reset_and_restore(traced):
    recorder, clock = traced
    recorder.active = True
    Pipeline(clock).outer()
    recorder.reset()
    assert recorder.totals() == ({}, {})
    recorder.restore()
    assert not hasattr(Pipeline.__dict__["outer"], "__wrapped__")
    assert isinstance(Pipeline.__dict__["build"], classmethod)


def test_layer_chosen_per_call():
    clock = FakeClock()

    def handle(node, msg):
        clock.now += 1.0

    module = types.SimpleNamespace(handle=handle)
    recorder = SpanRecorder(clock)
    recorder.wrap(module, "handle", lambda args: "even" if args[1] % 2 == 0 else "odd")
    recorder.active = True
    for msg in range(5):
        module.handle(None, msg)
    assert recorder.totals() == ({"even": 3.0, "odd": 2.0}, {"even": 3, "odd": 2})


def test_forked_child_runs_unrecorded(traced):
    recorder, clock = traced
    recorder.active = True
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.write(write, b"1" if recorder.active else b"0")
        os._exit(0)
    os.waitpid(pid, 0)
    assert os.read(read, 1) == b"0"
    os.close(read)
    os.close(write)
    assert recorder.active
