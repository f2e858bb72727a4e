"""Time-to-verdict ledger: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stress --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric (name, value, unit,
sample count); ``--trace 1`` prints the per-layer self-time table of a
separate traced run. ``--workload all`` runs the four workloads in
turn. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run generates its inputs from the seed, measures ``setup_s`` in
fresh processes, and then times the workload in one more fresh process
(``perfbench/measure.py``) so that memory and child CPU belong to the
run alone. See ``perfbench/README.md`` for the workloads and the
per-layer predictions.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("stress", "wildcard", "lammps-sharded", "service")

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5

#: The measured process is killed (with its daemon and workers) when it
#: runs this long past its measuring time.
CHILD_GRACE_S = 100.0

_SETUP_PROBE = (
    "import json, sys\n"
    "from repro.api import Session\n"
    "Session(**json.loads(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)

_SESSION_ARGS = {
    "stress": "{}",
    "wildcard": "{}",
    "lammps-sharded": '{"backend": "sharded", "shards": 2}',
}


def _env(workdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [SRC, ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The daemon writes uploaded programs to temporary files; keep them
    # inside the checkout.
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    return env


def _setup_once(workload: str, env: Dict[str, str], workdir: str) -> float:
    """Seconds from process launch until the system is ready for input:
    ``repro`` imported and the Session/backend built, or for ``service``
    the daemon answering its first ping."""
    if workload == "service":
        from perfbench.service import start_daemon, stop_daemon

        sock = os.path.join(os.path.relpath(workdir), "setup.sock")
        proc, seconds = start_daemon(sock, env, os.path.join(workdir, "setup.log"))
        stop_daemon(proc, sock)
        return seconds
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP_PROBE, _SESSION_ARGS[workload]],
        env=env,
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return seconds


def _measure(plan_path: str, seconds: float, trace: int, env: Dict[str, str]) -> Dict[str, Any]:
    cmd = [sys.executable, "-m", "perfbench.measure", plan_path, str(seconds), str(trace)]
    # A session of its own, so a timeout takes the daemon and the shard
    # workers down with the measured process.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("the measured process timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"the measured process exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Tuple[Dict[str, Any], str]:
    """Measure one workload; returns its result doc and printable text."""
    from perfbench import hostspeed, inputs, report, stats

    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    try:
        env = _env(workdir)
        plan = inputs.prepare(workload, seed, ROOT, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        setup: List[float] = []  # at reference speed
        walls: List[float] = []
        if not trace:
            kernels = [hostspeed.reference_s()]
            for _ in range(SETUP_REPEATS):
                walls.append(_setup_once(workload, env, workdir))
                kernels.append(hostspeed.reference_s())
            setup = [
                hostspeed.at_reference_speed(wall, kernel_s)
                for wall, kernel_s in zip(walls, hostspeed.bracketed(kernels))
            ]
        doc = _measure(plan_path, seconds, trace, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    if trace:
        values = doc["metrics"]
        text = report.layer_table(workload, values)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in report.PER_LAYER.items()}
    else:
        measured = {name: tuple(pair) for name, pair in doc["metrics"].items()}
        measured["setup_s"] = (stats.median(setup), len(setup))
        fail_note = (
            f"fail_rate {doc['failed']}/{doc['attempted']}; wall setup_s {stats.median(walls):.4g} s"
        )
        text = report.end_to_end_lines(workload, measured, [fail_note] + doc["notes"][:1])
        metrics = {
            name: {"value": measured[name][0], "unit": unit}
            for name, unit in report.END_TO_END.items()
        }
    for note in doc["notes"][1:]:
        print(note, file=sys.stderr)
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }, text


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, text = run_workload(name, args.seed, args.seconds, args.trace)
        print(text, flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
