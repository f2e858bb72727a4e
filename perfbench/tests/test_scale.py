"""A failing quarter-size input must not make ``scale_4x`` look better."""
import time

from perfbench import measure
from perfbench.batch import BatchWorkload, Result


class _Outcome:
    has_deadlock = False


class _Sleeper(BatchWorkload):
    """Full size sleeps 8 ms, quarter size 2 ms; the quarter can fail fast."""

    name = "sleeper"
    ranks = 4

    def __init__(self, quarter_fails: bool) -> None:
        super().__init__({"seed": 0})
        self.quarter_fails = quarter_fails

    def inputs(self):
        return "full", "quarter"

    def iterate(self, item):
        if item == "quarter" and self.quarter_fails:
            raise RuntimeError("quarter-size input failed")
        time.sleep(0.008 if item == "full" else 0.002)
        return Result(_Outcome(), (1, 1, 1, 1))

    def check(self, result, item):
        return True

    def drop(self):
        pass


def test_a_failing_quarter_input_counts_and_does_not_lower_scale_4x():
    good, good_tally = measure.batch_timed(_Sleeper(quarter_fails=False), 0.0)
    bad, bad_tally = measure.batch_timed(_Sleeper(quarter_fails=True), 0.0)
    assert good_tally.failed == 0
    # Every quarter-size iteration failed, and each one is counted.
    assert bad_tally.failed == measure.MIN_ITERATIONS
    assert bad["pass_rate"][0] < good["pass_rate"][0]
    assert bad["scale_4x"][0] > good["scale_4x"][0]
