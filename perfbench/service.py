"""The ``service`` workload: a ``repro serve`` daemon under a closed loop.

One load-generator process drives the daemon (Unix socket, two worker
threads, inline backend) over one connection, submitting each job only
after the previous job's result came back, as ``repro submit`` callers
do. The mix runs in rounds: in each, tenants ``t0`` and ``t1`` each
submit one cycle of the six-job mix, the twelve jobs interleaved in an
order drawn afresh from the seed for every round.

One job at a time: with two connections running at once, each job's
latency depends on which job of the other connection overlaps it on
the daemon's workers (they share one interpreter), and two jobs that
parse Python at once fail now and then (see ``README.md``).

A job that fails, is refused or loses its connection is ranked at the
client timeout (:func:`perfbench.stats.ranked_latency`); a lost
connection is reopened and counted in ``serve.conn_drops``.
"""
from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench.stats import TIMEOUT_S

#: Daemon start-up must answer a ping within this many seconds.
START_TIMEOUT_S = 60.0

#: The tenants whose jobs share the one connection.
TENANTS = ("t0", "t1")


def daemon_command(sock_path: str) -> List[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--no-tcp", "--unix", sock_path,
        "--workers", "2", "--backend", "inline",
    ]


def start_daemon(
    sock_path: str, env: Dict[str, str], log_path: str
) -> Tuple[subprocess.Popen, float]:
    """Launch the daemon; return it and the seconds until a ping answered."""
    from repro.serve import ServeClient, ServeError

    if os.path.exists(sock_path):
        os.unlink(sock_path)
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            daemon_command(sock_path), env=env, stdout=log, stderr=log
        )
    while True:
        try:
            with ServeClient(sock_path, timeout=TIMEOUT_S) as client:
                client.ping()
            return proc, time.perf_counter() - start
        except (FileNotFoundError, ConnectionRefusedError, ServeError):
            if proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {proc.returncode}")
            if time.perf_counter() - start > START_TIMEOUT_S:
                stop_daemon(proc, sock_path)
                raise RuntimeError("repro serve did not answer a ping")
            time.sleep(0.005)


def stop_daemon(proc: subprocess.Popen, sock_path: str) -> None:
    """Drain the daemon through the protocol, then make sure it is gone."""
    from repro.serve import ServeClient, ServeError

    if proc.poll() is None:
        try:
            with ServeClient(sock_path, timeout=TIMEOUT_S) as client:
                client.shutdown()
            proc.wait(timeout=TIMEOUT_S)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()


@dataclass
class JobRecord:
    """One job as the load generator saw it."""

    kind: str
    elapsed: float
    ok: bool
    #: A verdict came back and it was not the expected one.
    wrong: bool = False
    refused: bool = False
    dropped: bool = False
    #: The daemon's error code and message, when it answered with one.
    error: str = ""
    #: Daemon-side timestamps from the job's status document.
    queue_s: Optional[float] = None
    exec_s: Optional[float] = None
    ops: int = 0


@dataclass
class Cycle:
    """One pass of the mix on one connection and what it measured."""

    records: List[JobRecord] = field(default_factory=list)
    wall_s: float = 0.0


def run_job(client: Any, tenant: str, job: Dict[str, Any]) -> JobRecord:
    """Submit one job for ``tenant``, wait for its result, check the verdict."""
    from repro.serve import ServeError

    start = time.perf_counter()
    try:
        job_id = client.submit(tenant=tenant, **job["fields"])
        doc = client.result(job_id, wait=True, timeout=TIMEOUT_S)
    except ServeError as exc:
        elapsed = time.perf_counter() - start
        dropped = str(exc) == "connection closed"
        return JobRecord(
            job["kind"], elapsed, False, refused=exc.retryable, dropped=dropped,
            error=f"{exc.code}: {exc}",
        )
    except (OSError, socket.timeout) as exc:
        return JobRecord(
            job["kind"], time.perf_counter() - start, False, dropped=True,
            error=type(exc).__name__,
        )
    elapsed = time.perf_counter() - start
    verdict = doc.get("result", {}).get("verdict")
    ok = verdict == job["expect"]
    record = JobRecord(job["kind"], elapsed, ok, wrong=not ok, ops=job["ops"] if ok else 0)
    if not ok:
        record.error = f"verdict {verdict!r}, expected {job['expect']!r}"
    if "started_at" in doc and "finished_at" in doc:
        record.queue_s = doc["started_at"] - doc["submitted_at"]
        record.exec_s = doc["finished_at"] - doc["started_at"]
    return record


class _Client:
    """A :class:`~repro.serve.ServeClient` that reconnects after a drop."""

    def __init__(self, sock_path: str) -> None:
        self.sock_path = sock_path
        self._client: Any = None
        self.reconnect()

    def reconnect(self) -> None:
        from repro.serve import ServeClient

        self.close()
        self._client = ServeClient(self.sock_path, timeout=TIMEOUT_S)

    def submit(self, **fields: Any) -> str:
        return self._client.submit(**fields)

    def result(self, job_id: str, **kw: Any) -> Dict[str, Any]:
        return self._client.result(job_id, **kw)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


def run_jobs(sock_path: str, order: List[Tuple[str, Dict[str, Any]]]) -> Cycle:
    """Run ``(tenant, job)`` pairs back to back on one connection."""
    cycle = Cycle()
    client = _Client(sock_path)
    start = time.perf_counter()
    try:
        for tenant, job in order:
            record = run_job(client, tenant, job)
            cycle.records.append(record)
            if record.dropped:
                client.reconnect()
    finally:
        cycle.wall_s = time.perf_counter() - start
        client.close()
    return cycle


def closed_loop(
    sock_path: str,
    jobs: List[Dict[str, Any]],
    seed: str,
    tenants: Tuple[str, ...] = TENANTS,
) -> Cycle:
    """One cycle of the mix per tenant, the tenants' jobs interleaved in
    one order shuffled by ``seed``."""
    order = [(tenant, job) for tenant in tenants for job in jobs]
    random.Random(seed).shuffle(order)
    return run_jobs(sock_path, order)


def scale_probe(
    sock_path: str, small: Dict[str, Any], large: Dict[str, Any], rounds: int
) -> Tuple[List[JobRecord], List[JobRecord]]:
    """Alternate a job at p and at 4p on the otherwise idle daemon."""
    records = run_jobs(sock_path, [("probe", small), ("probe", large)] * rounds).records
    return records[0::2], records[1::2]
