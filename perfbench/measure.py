"""The measured process: one workload, timed or traced, in a fresh process.

``python -m perfbench.measure PLAN.json SECONDS TRACE`` runs the plan
written by :mod:`perfbench.inputs` and prints one JSON line with the
end-to-end metrics (tracing off) or the per-layer metrics (a shorter
untraced phase, then the traced phase). Running in its own process
gives ``peak_rss_mb`` and ``RUSAGE_CHILDREN`` to this run alone.
"""
from __future__ import annotations

import gc
import json
import math
import os
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import hostspeed, procfs, service
from perfbench.batch import WORKLOADS, BatchWorkload
from perfbench.report import PER_LAYER
from perfbench.spans import LAYERS, SpanRecorder, install_pipeline
from perfbench.stats import median, ranked_latency, scale_ratios, tail

#: Every batch run times at least this many full-size iterations.
MIN_ITERATIONS = 3

#: Traced runs: at least this many iterations per phase.
MIN_TRACE_ITERATIONS = 2

#: Back-to-back p / 4p job pairs behind the service's ``scale_4x``.
SCALE_PROBE_ROUNDS = 16

#: Nominal wall seconds of one service round (one mix cycle per
#: tenant) and the kernel run after it, on the host the bounds were
#: set on. A service run of ``seconds`` runs ``seconds / ROUND_S``
#: rounds: the number of jobs, and so of failed ``trace`` uploads,
#: follows from ``--seconds`` alone, and two runs attempt and fail the
#: same jobs however fast the host was at the time.
ROUND_S = 1.5

Metrics = Dict[str, Tuple[float, int]]


class Tally:
    """Attempts, failures and wrong answers of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: List[str] = []

    def add(self, ok: bool, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong

    def doc(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.wrong == 0,
            "notes": self.notes,
        }


# -- batch workloads -------------------------------------------------------


def _iteration(
    workload: BatchWorkload,
    item: Any,
    tally: Tally,
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[float, float, bool, Any]:
    """One timed iteration: ``(elapsed, cpu, ok, result)``.

    The output check runs after the clock stopped; an exception or a
    failed check counts as a failed iteration, never aborts the run.
    """
    gc.collect()
    if recorder is not None:
        recorder.reset()
        recorder.active = True
    cpu0 = procfs.rusage_cpu_s()
    start = time.perf_counter()
    try:
        result = workload.iterate(item)
    except Exception:
        result = None
        tally.notes.append(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - start
    cpu = procfs.rusage_cpu_s() - cpu0
    if recorder is not None:
        recorder.active = False
    wrong = False
    if result is not None:
        try:
            wrong = not workload.check(result, item)
        except Exception:
            wrong = True
            tally.notes.append(traceback.format_exc(limit=3))
    ok = result is not None and not wrong
    tally.add(ok, wrong)
    return elapsed, cpu, ok, result


def _run_until(deadline: float, minimum: int, body: Callable[[], None]) -> None:
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        body()
        done += 1


def batch_timed(workload: BatchWorkload, seconds: float) -> Tuple[Metrics, Tally]:
    full, quarter = workload.inputs()
    tally = Tally()
    walls: List[float] = []
    cpus: List[float] = []
    oks: List[bool] = []
    pairs: List[Tuple[float, float, bool]] = []
    kernels = [hostspeed.reference_s()]
    ops = 0  # trace operations of the full-size input

    def body() -> None:
        nonlocal ops
        # The quarter-size iteration counts into the run's attempts and
        # failures like the full-size one it is paired with.
        q_elapsed, _, q_ok, result = _iteration(workload, quarter, tally)
        del result
        workload.drop()
        elapsed, cpu_s, ok, result = _iteration(workload, full, tally)
        walls.append(elapsed)
        cpus.append(cpu_s)
        oks.append(ok)
        if ok and not ops:
            ops = sum(result.lengths)
        del result
        workload.drop()
        # Each full-size iteration over the quarter-size one just before
        # it: the pair shares the machine's state of the moment.
        pairs.append((elapsed, q_elapsed, ok and q_ok))
        kernels.append(hostspeed.reference_s())

    _run_until(time.perf_counter() + seconds, MIN_ITERATIONS, body)
    speed = hostspeed.bracketed(kernels)
    ranked = [
        ranked_latency(hostspeed.at_reference_speed(wall, kernel_s), ok)
        for wall, kernel_s, ok in zip(walls, speed, oks)
    ]
    cpu = [hostspeed.at_reference_speed(c, kernel_s) for c, kernel_s in zip(cpus, speed)]
    verdict = median(ranked)
    tail_value, tail_pct = tail(ranked)
    n = len(ranked)
    metrics: Metrics = {
        "verdict_s": (verdict, n),
        "verdict_s.tail": (tail_value, n),
        "ops_per_s": (ops / verdict, n),
        "scale_4x": (median(scale_ratios(pairs)), n),
        "cpu_s": (median(cpu), n),
        "peak_rss_mb": (procfs.rusage_peak_mb(), 1),
        "pass_rate": (1.0 - tally.failed / tally.attempted, tally.attempted),
    }
    tally.notes.insert(
        0,
        f"tail is p{tail_pct:g} of {n}; scale_4x is p={workload.ranks} over p={workload.ranks // 4}; "
        + _host_note(median(walls), kernels),
    )
    return metrics, tally


def _host_note(wall_verdict: float, kernels: List[float]) -> str:
    return (
        f"times at reference speed; wall verdict_s {wall_verdict:.4g} s, "
        f"reference kernel {median(kernels):.4g} s (nominal {hostspeed.REFERENCE_S:g} s)"
    )


def _layer_values(
    busy: Dict[str, float], calls: Dict[str, int], counts: Dict[str, float], wall: float
) -> Dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = busy.get(layer, 0.0)
    for layer in ("track", "aggregate", "sync", "gather"):
        values[f"{layer}.msgs"] = float(calls.get(layer, 0))
    values.update(counts)
    values["other.busy_s"] = wall - sum(busy.get(layer, 0.0) for layer in LAYERS)
    values["tracing.iteration_s"] = wall
    return values


def _mean_tables(tables: List[Dict[str, float]]) -> Dict[str, float]:
    # A mean (not a median) keeps each table's sum property.
    return {name: statistics.fmean(t[name] for t in tables) for name in tables[0]}


def batch_traced(workload: BatchWorkload, seconds: float) -> Tuple[Dict[str, float], Tally]:
    full, _ = workload.inputs()
    tally = Tally()
    # Every iteration of both phases, between reference kernel runs, so
    # the overhead compares times at reference speed like verdict_s.
    units: List[Tuple[float, bool, bool]] = []  # (elapsed, ok, traced)
    kernels = [hostspeed.reference_s()]

    def plain() -> None:
        elapsed, _, ok, result = _iteration(workload, full, tally)
        units.append((elapsed, ok, False))
        del result
        workload.drop()
        kernels.append(hostspeed.reference_s())

    _run_until(time.perf_counter() + seconds / 2, MIN_TRACE_ITERATIONS, plain)
    recorder = SpanRecorder()
    install_pipeline(recorder)
    tables: List[Dict[str, float]] = []
    failed_before = tally.failed

    def with_spans() -> None:
        elapsed, _, ok, result = _iteration(workload, full, tally, recorder)
        units.append((elapsed, ok, True))
        busy, calls = recorder.totals()
        counts = workload.counts(result, full) if result is not None else {}
        tables.append(_layer_values(busy, calls, counts, elapsed))
        del result
        workload.drop()
        kernels.append(hostspeed.reference_s())

    try:
        _run_until(time.perf_counter() + seconds / 2, MIN_TRACE_ITERATIONS, with_spans)
    finally:
        recorder.restore()
    verdicts: Dict[bool, List[float]] = {False: [], True: []}
    for (elapsed, ok, traced), kernel_s in zip(units, hostspeed.bracketed(kernels)):
        verdicts[traced].append(ranked_latency(hostspeed.at_reference_speed(elapsed, kernel_s), ok))
    values = _mean_tables(tables)
    values["tracing.overhead_s"] = median(verdicts[True]) - median(verdicts[False])
    values["checks.fail_rate"] = (tally.failed - failed_before) / len(tables)
    return values, tally


# -- service ---------------------------------------------------------------


def _service_jobs(plan: Dict[str, Any]) -> List[Dict[str, Any]]:
    jobs = plan["jobs"]
    for job in jobs:
        if "upload" in job:
            with open(job["upload"], encoding="utf-8") as fh:
                job["fields"] = {"trace": json.load(fh)}
    return jobs


def _kind_verdict(rounds: Rounds, speed: Optional[List[float]] = None) -> float:
    """The service's ``verdict_s``: the geometric mean over the mix's
    job kinds of each kind's median ranked latency, at reference speed
    beside each round's kernel seconds in ``speed`` (none: wall
    seconds).

    The six kinds differ by up to 100x in cost, so the median of the
    pooled jobs sits on the boundary between two kinds and jumps with
    the kinds' small shifts; a median per kind does not, and the
    geometric mean weighs a given speed-up of any kind alike. A failed
    kind enters at the timeout, so a fix can only lower the figure.
    """
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for i, cycle in enumerate(rounds):
        kernel_s = speed[i] if speed else hostspeed.REFERENCE_S
        for record in cycle.records:
            by_kind[record.kind].append(
                ranked_latency(hostspeed.at_reference_speed(record.elapsed, kernel_s), record.ok)
            )
    return math.exp(statistics.fmean(math.log(median(v)) for v in by_kind.values()))


def _tally_jobs(tally: Tally, records: List[service.JobRecord]) -> None:
    for record in records:
        tally.add(record.ok, record.wrong)


Rounds = List[service.Cycle]


def round_count(seconds: float) -> int:
    """Service rounds in a run of ``seconds``: at least one."""
    return max(1, round(seconds / ROUND_S))


def _rounds(
    sock: str, jobs: List[Dict[str, Any]], label: str, count: int, daemon_pid: int
) -> Tuple[Rounds, List[float], List[float], List[float]]:
    """Run ``count`` rounds of the mix, one cycle per tenant each,
    between reference kernel runs on the idle daemon.

    Returns the rounds, each round's wall and CPU seconds (this process,
    its reaped children and the daemon), and the kernel seconds beside
    each round.
    """
    rounds: Rounds = []
    walls: List[float] = []
    used: List[float] = []
    kernels = [hostspeed.reference_s()]
    while len(rounds) < count:
        cpu0 = procfs.rusage_cpu_s() + procfs.proc_cpu_s(daemon_pid)
        begin = time.perf_counter()
        rounds.append(service.closed_loop(sock, jobs, f"{label}/{len(rounds)}"))
        walls.append(time.perf_counter() - begin)
        used.append(procfs.rusage_cpu_s() + procfs.proc_cpu_s(daemon_pid) - cpu0)
        kernels.append(hostspeed.reference_s())
    return rounds, walls, used, hostspeed.bracketed(kernels)


def service_run(plan: Dict[str, Any], seconds: float, traced: bool) -> Tuple[Any, Tally]:
    workdir = plan["workdir"]
    sock = os.path.join(os.path.relpath(workdir), "serve.sock")
    jobs = _service_jobs(plan)
    seed = plan["seed"]
    probe = plan["probe"]
    tally = Tally()
    proc, _ = service.start_daemon(sock, dict(os.environ), os.path.join(workdir, "serve.log"))
    try:
        # Warm the daemon (lazy imports, first Session use) with one
        # pass of the mix, as a long-running service would be.
        service.closed_loop(sock, jobs, f"{seed}/warm", ("warm",))
        if traced:
            return _service_traced(plan, sock, jobs, seconds, tally, proc.pid)
        rounds, walls, used, speed = _rounds(
            sock, jobs, f"{seed}/timed", round_count(seconds), proc.pid
        )
        records = [r for cycle in rounds for r in cycle.records]
        _tally_jobs(tally, records)
        smalls, larges = service.scale_probe(sock, probe["small"], probe["large"], SCALE_PROBE_ROUNDS)
        _tally_jobs(tally, smalls + larges)
        peak = procfs.rusage_peak_mb() + procfs.proc_hwm_mb(proc.pid)
    finally:
        service.stop_daemon(proc, sock)
    ranked = [
        ranked_latency(hostspeed.at_reference_speed(r.elapsed, kernel_s), r.ok)
        for cycle, kernel_s in zip(rounds, speed)
        for r in cycle.records
    ]
    tail_value, tail_pct = tail(ranked)
    n = len(records)
    ratios = scale_ratios(
        [(big.elapsed, little.elapsed, big.ok and little.ok) for little, big in zip(smalls, larges)]
    )
    wall_verdict = _kind_verdict(rounds)
    throughput = [
        sum(r.ops for r in cycle.records) / hostspeed.at_reference_speed(w, k)
        for cycle, w, k in zip(rounds, walls, speed)
    ]
    cpu = sum(hostspeed.at_reference_speed(c, k) for c, k in zip(used, speed))
    metrics: Metrics = {
        "verdict_s": (_kind_verdict(rounds, speed), n),
        "verdict_s.tail": (tail_value, n),
        "ops_per_s": (median(throughput), len(throughput)),
        "scale_4x": (median(ratios), len(ratios)),
        "cpu_s": (cpu / n, n),
        "peak_rss_mb": (peak, 1),
        "pass_rate": (1.0 - tally.failed / tally.attempted, tally.attempted),
    }
    drops = sum(r.dropped for r in records)
    # Failed jobs by kind and cause.
    errors = Counter(f"{r.kind}: {r.error}" for r in records + smalls + larges if not r.ok)
    tally.notes.extend(f"{count} failed job(s) {text}" for text, count in sorted(errors.items()))
    tally.notes.insert(
        0,
        f"tail is p{tail_pct:g} of {n}; {tally.failed} failed jobs "
        f"({drops} lost connections); scale_4x is halo2d p=64 over p=16; "
        + _host_note(wall_verdict, speed),
    )
    return metrics, tally


def _verify_probe(jobs: List[Dict[str, Any]]) -> Tuple[float, float]:
    """States explored and fast-path ratio of the mix's verify jobs,
    verified in-process (the daemon does not return them)."""
    from repro.api import Session

    session = Session(observe=True)
    for job in jobs:
        session.verify(job["verify_path"], ranks=job["fields"].get("ranks", 4))
    counters = session.metrics_snapshot()["counters"]
    hits = counters.get("verify.fastpath.hits", 0)
    decided = hits + counters.get("verify.fastpath.misses", 0)
    return float(counters.get("verify.states_explored", 0)), hits / decided if decided else 0.0


def _service_traced(
    plan: Dict[str, Any],
    sock: str,
    jobs: List[Dict[str, Any]],
    seconds: float,
    tally: Tally,
    daemon_pid: int,
) -> Tuple[Dict[str, float], Tally]:
    seed = plan["seed"]
    half = round_count(seconds / 2)
    untraced, _, _, untraced_speed = _rounds(sock, jobs, f"{seed}/untraced", half, daemon_pid)
    _tally_jobs(tally, [r for cycle in untraced for r in cycle.records])
    recorder = SpanRecorder()
    install_pipeline(recorder)
    recorder.active = True
    try:
        rounds, walls, _, speed = _rounds(sock, jobs, f"{seed}/traced", half, daemon_pid)
    finally:
        recorder.active = False
        recorder.restore()
    records = [r for cycle in rounds for r in cycle.records]
    before = tally.failed
    _tally_jobs(tally, records)
    busy, _ = recorder.totals()
    n = len(records)
    timed = [r for r in records if r.exec_s is not None]
    exec_total = sum(r.exec_s for r in timed)
    verify_exec = sum(r.exec_s for r in timed if r.kind.startswith("verify"))
    latency = sum(r.elapsed for r in records)
    serialize = busy.get("serialize", 0.0)
    wall_total = sum(cycle.wall_s for cycle in rounds)
    upload_bytes = {job["kind"]: job.get("upload_bytes", 0) for job in plan["jobs"]}
    states, fastpath = _verify_probe([j for j in plan["jobs"] if "verify_path" in j])
    values = {name: 0.0 for name in PER_LAYER}
    values.update(
        {
            "serialize.busy_s": serialize / n,
            "serialize.bytes": sum(upload_bytes[r.kind] for r in records) / n,
            "verify.busy_s": verify_exec / n,
            # The service layer's own cost: queueing and the client round
            # trip, i.e. latency minus the daemon's execution of the job.
            "serve.busy_s": (latency - exec_total - serialize) / n,
            # The daemon executing analyze, workload and trace jobs
            # (runtime, tracking, transport inside it) is covered by no
            # layer span, nor is the load generator between jobs.
            "other.busy_s": (wall_total - latency + exec_total - verify_exec) / n,
            "tracing.iteration_s": wall_total / n,
            "serve.queue_s": statistics.fmean(r.queue_s for r in timed),
            "serve.exec_s": statistics.fmean(r.exec_s for r in timed),
            "serve.overhead_s": statistics.fmean(r.elapsed - r.queue_s - r.exec_s for r in timed),
            "serve.rejected": float(sum(r.refused for r in records)),
            "serve.conn_drops": float(sum(r.dropped for r in records)),
            "serve.jobs_per_s": len(timed) / sum(walls),
            "verify.states": states,
            "verify.fastpath_ratio": fastpath,
            "tracing.overhead_s": (
                _kind_verdict(rounds, speed) - _kind_verdict(untraced, untraced_speed)
            ),
            "checks.fail_rate": (tally.failed - before) / n,
        }
    )
    return values, tally


# -- entry point -------------------------------------------------------------


def measure(plan: Dict[str, Any], seconds: float, traced: bool) -> Dict[str, Any]:
    name = plan["workload"]
    if name == "service":
        values, tally = service_run(plan, seconds, traced)
    else:
        workload = WORKLOADS[name](plan)
        workload.setup()
        try:
            run = batch_traced if traced else batch_timed
            values, tally = run(workload, seconds)
        finally:
            workload.close()
    doc = tally.doc()
    doc["metrics"] = values
    return doc


def main(argv: List[str]) -> int:
    plan_path, seconds, traced = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    doc = measure(plan, float(seconds), traced == "1")
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
