"""`repro blame` orchestration: load, analyze, render, export.

Two input modes feed :func:`repro.obs.causal.analyze_events`:

* **artifact mode** — a Chrome trace file written by ``--obs-trace`` (or
  a raw ``--out FILE --format jsonl`` stream): the wait-state events are parsed back
  out of the artifact; malformed input raises
  :class:`~repro.util.errors.TraceError` so the CLI can exit 2.
* **live mode** — a Python rank-program file (the `repro lint`
  conventions: ``LINT_PROGRAMS`` / ``LINT_RANKS`` / a module-level
  generator function): the file is executed on the virtual runtime,
  the distributed detector runs over the matched trace with a live
  observer, and blame is computed from the in-memory events. Live mode
  also returns the runtime outcome so callers can cross-check the
  blame root causes against the runtime WFG verdict.
"""
from __future__ import annotations

import importlib.util
import inspect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.causal import BlameReport, analyze_events
from repro.obs.events import TraceEvent
from repro.obs.exporters import load_run, read_jsonl
from repro.obs.observer import Observer, make_observer
from repro.obs.stats import render_timeline_table
from repro.util import pysource
from repro.util.errors import TraceError

from repro.docs import format_tag

BLAME_FORMAT = format_tag("blame")


# ---------------------------------------------------------------------------
# artifact mode
# ---------------------------------------------------------------------------


def load_events(
    path: str,
) -> Tuple[List[TraceEvent], Optional[Dict[str, Any]]]:
    """Events (+ run metadata if present) from a trace artifact.

    ``.jsonl`` streams have no metadata block; anything else is parsed
    as a Chrome trace-event document. Raises ``TraceError`` / ``OSError``
    on unreadable or malformed input.
    """
    if path.endswith(".jsonl"):
        return read_jsonl(path), None
    doc = load_run(path)
    events: List[TraceEvent] = []
    for index, raw in enumerate(doc.get("traceEvents", [])):
        try:
            events.append(TraceEvent.from_json(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(
                f"{path}: traceEvents[{index}]: malformed event: {exc}"
            ) from exc
    return events, doc.get("repro")


def blame_artifact(path: str) -> BlameReport:
    """Artifact mode end to end: load, reconstruct, attribute."""
    events, meta = load_events(path)
    num_ranks = None
    if meta is not None and isinstance(meta.get("ranks"), int):
        num_ranks = meta["ranks"]
    return analyze_events(events, num_ranks=num_ranks)


# ---------------------------------------------------------------------------
# live mode
# ---------------------------------------------------------------------------


def load_programs(path: str, default_ranks: int) -> List[Any]:
    """Rank programs from a Python file, `repro lint` conventions."""
    spec = importlib.util.spec_from_file_location(
        "_repro_blame_target", path
    )
    if spec is None or spec.loader is None:
        raise TraceError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    try:
        pysource.load(spec.loader, module)
    except Exception as exc:  # import errors are user input errors
        raise TraceError(f"cannot import {path}: {exc}") from exc
    programs = getattr(module, "LINT_PROGRAMS", None)
    if programs is not None:
        return list(programs)
    ranks = getattr(module, "LINT_RANKS", default_ranks)
    functions = [
        value
        for name, value in sorted(vars(module).items())
        if not name.startswith("_") and inspect.isgeneratorfunction(value)
    ]
    if not functions:
        raise TraceError(
            f"{path}: no rank programs found (no LINT_PROGRAMS and no "
            "module-level generator function)"
        )
    if len(functions) == 1:
        return [functions[0]] * ranks
    return list(functions)


def blame_programs(
    programs: Sequence[Any],
    *,
    seed: int = 0,
    fan_in: int = 4,
    backend: Any = None,
) -> Tuple[BlameReport, Any]:
    """Run rank programs, detect, blame. Returns (report, outcome).

    ``backend`` is an :class:`repro.backend.AnalysisBackend` (default:
    the inline one); either backend yields the same blame roots.
    """
    from repro.backend import InlineBackend
    from repro.mpi.blocking import BlockingSemantics
    from repro.runtime.engine import run_programs

    observer: Observer = make_observer(True)
    run = run_programs(
        programs,
        semantics=BlockingSemantics.relaxed(),
        seed=seed,
        observer=observer,
    )
    if backend is None:
        backend = InlineBackend()
    outcome = backend.run(
        run.matched, fan_in=fan_in, seed=seed, observer=observer
    )
    report = analyze_events(
        list(observer.tracer.events), num_ranks=len(programs)
    )
    return report, outcome


def blame_live(
    path: str,
    *,
    ranks: int = 4,
    seed: int = 0,
    fan_in: int = 4,
    backend: Any = None,
) -> Tuple[BlameReport, Any]:
    """Live mode: run the file, detect, blame. Returns (report, outcome)."""
    programs = load_programs(path, ranks)
    return blame_programs(
        programs, seed=seed, fan_in=fan_in, backend=backend
    )


# ---------------------------------------------------------------------------
# rendering / export
# ---------------------------------------------------------------------------


def render_blame(report: BlameReport) -> List[str]:
    """The ``repro blame`` body, in the `obs/stats.py` table style."""
    lines: List[str] = []

    lines.append("-- blocked time per rank --")
    per_rank = report.per_rank_blocked_us()
    if per_rank:
        terminal = {iv.rank for iv in report.intervals if iv.terminal}
        lines.append(
            f"{'rank':<8} {'intervals':>10} {'blocked ms':>12} {'state':<22}"
        )
        counts: Dict[int, int] = {}
        for iv in report.intervals:
            counts[iv.rank] = counts.get(iv.rank, 0) + 1
        dead = set(report.root_causes)
        for rank in sorted(per_rank):
            if rank in dead:
                state = "deadlocked"
            elif rank in terminal:
                state = "blocked (releasable)"
            else:
                state = "progressed"
            lines.append(
                f"{rank:<8} {counts.get(rank, 0):>10} "
                f"{per_rank[rank] / 1e3:>12.3f} {state:<22}"
            )
    else:
        lines.append("  (no blocked intervals recorded)")

    lines.append("")
    lines.append("-- blame attribution (root-cause ranks) --")
    if report.attribution:
        total = report.total_blocked_us
        lines.append(f"{'blamed rank':<12} {'blocked ms':>12} {'share':>8}")
        for rank in sorted(
            report.attribution, key=lambda r: -report.attribution[r]
        ):
            us = report.attribution[rank]
            share = (us / total * 100.0) if total > 0 else 0.0
            lines.append(f"{rank:<12} {us / 1e3:>12.3f} {share:>7.1f}%")
        lines.append(
            f"attributed to root causes: {report.attributed_ratio * 100.0:.1f}% "
            f"of {total / 1e3:.3f} ms total blocked time"
        )
    else:
        lines.append("  (nothing to attribute)")

    if report.chain:
        lines.append("")
        lines.append("-- blame chain (witness cycle) --")
        for line in report.chain:
            lines.append("  " + line)

    if report.critical_path:
        lines.append("")
        lines.append("-- critical path --")
        for hop in report.critical_path:
            waits = hop.get("waits_for")
            arrow = f" -> waits for rank {waits}" if waits is not None else ""
            lines.append(
                f"  rank {hop['rank']} in {hop['op']} "
                f"({hop['blocked_us'] / 1e3:.3f} ms blocked){arrow}"
            )

    if report.timeline is not None and report.timeline.events:
        lines.append("")
        lines.append("-- unified timeline --")
        lines += render_timeline_table(report.timeline)
    return lines


def blame_document(
    report: BlameReport, *, source: Optional[str] = None
) -> Dict[str, Any]:
    """Machine-readable blame summary (``--out FILE --format json``)."""
    doc: Dict[str, Any] = {
        "format": BLAME_FORMAT,
        "source": source,
        "num_ranks": report.num_ranks,
        "deadlock": report.has_deadlock,
        "root_causes": list(report.root_causes),
        "witness_cycle": (
            list(report.result.witness_cycle)
            if report.result is not None
            else []
        ),
        "total_blocked_us": report.total_blocked_us,
        "attributed_to_root_us": report.attributed_to_root_us,
        "attributed_ratio": report.attributed_ratio,
        "attribution_us": {
            str(rank): us for rank, us in sorted(report.attribution.items())
        },
        "per_rank_blocked_us": {
            str(rank): us
            for rank, us in sorted(report.per_rank_blocked_us().items())
        },
        "blame_chain": list(report.chain),
        "critical_path": list(report.critical_path),
        "finished": sorted(report.finished),
        "intervals": [
            {
                "rank": iv.rank,
                "start_us": iv.start_us,
                "end_us": iv.end_us,
                "duration_us": iv.duration_us,
                "op": iv.op,
                "targets": list(iv.targets),
                "terminal": iv.terminal,
                "blamed": iv.blamed,
            }
            for iv in report.intervals
        ],
        "timeline": (
            report.timeline.summary() if report.timeline is not None else []
        ),
    }
    return doc


def check_agreement(
    report: BlameReport, runtime_deadlocked: Sequence[int]
) -> bool:
    """Do blame root causes equal the runtime WFG's deadlocked set?"""
    return set(report.root_causes) == set(runtime_deadlocked)
