"""The tail-percentile rule and failures ranked at the timeout."""
import pytest

from perfbench.stats import (
    TAIL_BEYOND,
    TIMEOUT_S,
    median,
    ranked_latency,
    scale_ratios,
    tail,
)


def test_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]  # 1..200
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert value == 190.0
    assert pct == pytest.approx(95.0)


def test_tail_is_the_highest_such_percentile():
    samples = [float(i) for i in range(100)]
    value, pct = tail(samples)
    # One step higher would leave only nine samples beyond.
    assert sum(s > value for s in samples) == TAIL_BEYOND
    assert pct == pytest.approx(90.0)


def test_a_short_run_leaves_a_tenth_beyond_its_tail():
    assert tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))
    samples = [float(i) for i in range(25)]
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == 2
    assert tail([5.0]) == (5.0, 100.0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail([])


def test_failures_rank_behind_every_success():
    successes = [ranked_latency(t, True) for t in (0.1, 5.0, TIMEOUT_S - 0.01)]
    failures = [ranked_latency(t, False) for t in (0.0, 0.02)]
    assert max(successes) < min(failures)
    assert failures[0] == TIMEOUT_S
    # Two failures that took different times do not read alike.
    assert failures[0] != failures[1]


def test_a_fixed_failure_never_worsens_a_percentile():
    elapsed = [0.1 * (i + 1) for i in range(150)]
    broken = [ranked_latency(t, i % 6 != 5) for i, t in enumerate(elapsed)]
    fixed = [ranked_latency(t, True) for t in elapsed]
    assert median(fixed) <= median(broken)
    assert tail(fixed)[0] <= tail(broken)[0]
    # With one job in six failing the tail sits at the timeout.
    assert tail(broken)[0] >= TIMEOUT_S


def test_a_failed_pair_ranks_behind_every_passing_pair():
    passing = [(4.0, 1.0, True), (50.0, 1.0, True)]
    # The small side gave up after 25 s: large / small alone would be 0.2.
    failed = (5.0, 25.0, False)
    ratios = scale_ratios(passing + [failed])
    assert ratios[:2] == [4.0, 50.0]
    assert ratios[2] > 50.0 and ratios[2] > TIMEOUT_S


def test_fixing_a_failed_pair_never_raises_the_ratio():
    pairs = [(4.0 + 0.1 * i, 1.0, i % 3 != 0) for i in range(9)]
    fixed = [(large, small, True) for large, small, _ in pairs]
    assert median(scale_ratios(fixed)) <= median(scale_ratios(pairs))
