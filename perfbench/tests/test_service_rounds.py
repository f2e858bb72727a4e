"""The service's round count, job orders and per-kind verdict."""
import math

import pytest

from perfbench import measure, service
from perfbench.hostspeed import REFERENCE_S
from perfbench.stats import TIMEOUT_S


def test_round_count_follows_the_seconds_alone():
    assert measure.round_count(0.0) == 1
    assert measure.round_count(30.0) == round(30.0 / measure.ROUND_S)
    assert measure.round_count(30.0) == measure.round_count(30.0)


def test_each_round_interleaves_one_cycle_per_tenant_in_a_seeded_order(monkeypatch):
    orders = []
    monkeypatch.setattr(
        service, "run_jobs", lambda sock_path, order: orders.append(
            tuple((tenant, job["kind"]) for tenant, job in order)
        )
    )
    jobs = [{"kind": k} for k in "abcdef"]
    for i in range(10):
        service.closed_loop("unused.sock", jobs, f"7/timed/{i}")
        service.closed_loop("unused.sock", jobs, f"7/timed/{i}")
    assert orders[0::2] == orders[1::2], "the same seed gives the same order"
    every = sorted((t, k) for t in service.TENANTS for k in "abcdef")
    assert all(sorted(order) == every for order in orders)
    assert len(set(orders)) == 10, "every round gets an order of its own"


def _round(latencies):
    """One round of ``(kind, elapsed, ok)`` jobs."""
    return service.Cycle([service.JobRecord(kind, elapsed, ok) for kind, elapsed, ok in latencies])


def test_verdict_is_the_geometric_mean_of_per_kind_medians():
    rounds = [
        _round([("a", 1.0, True), ("b", 0.01, True)]),
        _round([("a", 3.0, True), ("b", 0.02, True)]),
        _round([("a", 2.0, True), ("b", 0.03, True)]),
    ]
    assert measure._kind_verdict(rounds) == pytest.approx(math.sqrt(2.0 * 0.02))
    # Beside kernel runs twice the reference time, every latency halves.
    slow = [2 * REFERENCE_S] * 3
    assert measure._kind_verdict(rounds, slow) == pytest.approx(math.sqrt(2.0 * 0.02) / 2)


def test_a_failing_kind_ranks_at_the_timeout_and_a_fix_lowers_the_verdict():
    failing = [_round([("a", 0.5, True), ("b", 0.001, False)]) for _ in range(3)]
    fixed = [_round([("a", 0.5, True), ("b", 2.0, True)]) for _ in range(3)]
    assert measure._kind_verdict(failing) == pytest.approx(math.sqrt(0.5 * (TIMEOUT_S + 0.001)))
    assert measure._kind_verdict(fixed) < measure._kind_verdict(failing)
