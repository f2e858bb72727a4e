"""Input generation from the seed, done before anything is timed.

The measured process receives only what this module writes: trace
files, the upload document and the job mix. Reference verdicts for
the output checks are computed here too, so they fall outside both
the timed iterations and ``setup_s``.
"""
from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional

from perfbench.batch import LammpsSharded


def _ops(matched: Any) -> int:
    trace = matched.trace
    return sum(len(trace.sequence(r)) for r in range(trace.num_processes))


def _recorded_ops(programs: List[Any], seed: int) -> int:
    from repro.api import Session

    return _ops(Session(seed=seed).record(programs).matched)


def _halo2d(ranks: int) -> List[Any]:
    # The daemon's ``workload=halo2d`` maps ranks to a sqrt x sqrt grid.
    from repro.workloads import halo2d_programs

    side = max(2, int(math.sqrt(ranks)))
    return halo2d_programs(side, side)


def _lammps_traces(seed: int, workdir: str, ranks: int) -> Dict[str, Any]:
    from repro.api import Session
    from repro.mpi.serialize import load_trace, save_trace
    from repro.workloads.specmpi import lammps_skeleton_programs

    traces = {}
    for label, p in (("full", ranks), ("quarter", ranks // 4)):
        path = os.path.join(workdir, f"lammps-p{p}.json")
        save_trace(Session(seed=seed).record(lammps_skeleton_programs(p)).matched, path)
        reference = Session(seed=seed).analyze(load_trace(path))
        traces[label] = {
            "path": path,
            "deadlock": reference.has_deadlock,
            "deadlocked": list(reference.deadlocked),
        }
    return {"traces": traces}


def _service_mix(seed: int, root: str, workdir: str) -> Dict[str, Any]:
    from repro.api import Session
    from repro.mpi.serialize import matched_trace_to_dict
    from repro.obs.blame import load_programs
    from repro.workloads import fig2a_programs
    from repro.workloads.stress import stress_programs

    examples = os.path.join(root, "examples")

    def source(name: str) -> str:
        with open(os.path.join(examples, name), encoding="utf-8") as fh:
            return fh.read()

    upload = matched_trace_to_dict(Session(seed=seed).record(stress_programs(64)).matched)
    upload_path = os.path.join(workdir, "upload-stress-p64.json")
    with open(upload_path, "w", encoding="utf-8") as fh:
        json.dump(upload, fh)
    parity = os.path.join(examples, "parity_exchange.py")
    jobs = [
        {
            "kind": "verify-lammps",
            "fields": {"op": "verify", "source": source("lammps_potential_deadlock.py")},
            "verify_path": os.path.join(examples, "lammps_potential_deadlock.py"),
            "expect": "deadlock",
            "ops": 0,
        },
        {
            "kind": "verify-wildcard",
            "fields": {"op": "verify", "source": source("wildcard_master_worker.py")},
            "verify_path": os.path.join(examples, "wildcard_master_worker.py"),
            "expect": "deadlock",
            "ops": 0,
        },
        {
            "kind": "analyze-parity",
            "fields": {"op": "analyze", "source": source("parity_exchange.py"), "ranks": 8},
            "expect": "clean",
            "ops": _recorded_ops(load_programs(parity, 8), seed),
        },
        {
            "kind": "halo2d",
            "fields": {"workload": "halo2d", "ranks": 64},
            "expect": "clean",
            "ops": _recorded_ops(_halo2d(64), seed),
        },
        {
            "kind": "fig2a",
            "fields": {"workload": "fig2a"},
            "expect": "deadlock",
            "ops": _recorded_ops(fig2a_programs(), seed),
        },
        {
            "kind": "trace-upload",
            "fields": {},
            "upload": upload_path,
            "upload_bytes": os.path.getsize(upload_path),
            "expect": "clean",
            "ops": sum(len(seq) for seq in upload["ranks"]),
        },
    ]
    probe = {
        "small": {
            "kind": "halo2d-p16",
            "fields": {"workload": "halo2d", "ranks": 16},
            "expect": "clean",
            "ops": _recorded_ops(_halo2d(16), seed),
        },
        "large": dict(jobs[3], kind="halo2d-p64"),
    }
    return {"jobs": jobs, "probe": probe}


def prepare(
    workload: str, seed: int, root: str, workdir: str, ranks: Optional[int] = None
) -> Dict[str, Any]:
    """The plan the measured process runs: workload, seed and inputs.

    ``ranks`` shrinks a batch workload's full-size input (the
    benchmark's own smoke test); the ledger always runs the defaults.
    """
    plan: Dict[str, Any] = {"workload": workload, "seed": seed, "workdir": workdir}
    if ranks is not None:
        plan["ranks"] = ranks
    if workload == "lammps-sharded":
        plan.update(_lammps_traces(seed, workdir, ranks or LammpsSharded.ranks))
    elif workload == "service":
        plan.update(_service_mix(seed, root, workdir))
    return plan
