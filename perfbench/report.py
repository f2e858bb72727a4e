"""Metric catalogue and the human-readable tables of the ledger.

The catalogue here is the single source of names and units the runner
emits; ``BENCHMARK.json`` lists the same names (a test pins the two
together).
"""
from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from perfbench.spans import LAYERS

#: End-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "verdict_s": "s",
    "verdict_s.tail": "s",
    "ops_per_s": "1/s",
    "scale_4x": "ratio",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "pass_rate": "ratio",
}

#: Per-layer metrics of the traced run: name -> unit. Every ``*.busy_s``
#: is self time per iteration (per job on ``service``).
PER_LAYER: Dict[str, str] = {
    "runtime.busy_s": "s",
    "runtime.ops": "count",
    "runtime.steps": "count",
    "serialize.busy_s": "s",
    "serialize.bytes": "B",
    "track.busy_s": "s",
    "track.msgs": "count",
    "track.peak_window": "count",
    "transport.busy_s": "s",
    "transport.msgs": "count",
    "transport.bytes": "B",
    "aggregate.busy_s": "s",
    "aggregate.msgs": "count",
    "sync.busy_s": "s",
    "sync.msgs": "count",
    "sync.simulated_s": "s",
    "gather.busy_s": "s",
    "gather.msgs": "count",
    "wfg_build.busy_s": "s",
    "wfg.arcs": "count",
    "wfg.nodes": "count",
    "wfg_check.busy_s": "s",
    "wfg.deadlocked": "count",
    "output.busy_s": "s",
    "output.bytes": "B",
    "sharded.busy_s": "s",
    "sharded.coordinator_busy_s": "s",
    "sharded.shard_busy_max_s": "s",
    "sharded.shard_busy_sum_s": "s",
    "sharded.wait_s": "s",
    "sharded.rounds": "count",
    "sharded.cross_shard_msgs": "count",
    "serve.busy_s": "s",
    "serve.queue_s": "s",
    "serve.exec_s": "s",
    "serve.overhead_s": "s",
    "serve.rejected": "count",
    "serve.conn_drops": "count",
    "serve.jobs_per_s": "1/s",
    "verify.busy_s": "s",
    "verify.states": "count",
    "verify.fastpath_ratio": "ratio",
    "other.busy_s": "s",
    "tracing.iteration_s": "s",
    "tracing.overhead_s": "s",
    "checks.fail_rate": "ratio",
}

#: The counts shown beside each layer's self time in the table.
_TABLE_COUNTS: Dict[str, Tuple[str, ...]] = {
    "runtime": ("runtime.ops", "runtime.steps"),
    "serialize": ("serialize.bytes",),
    "track": ("track.msgs", "track.peak_window"),
    "transport": ("transport.msgs", "transport.bytes"),
    "aggregate": ("aggregate.msgs",),
    "sync": ("sync.msgs", "sync.simulated_s"),
    "gather": ("gather.msgs",),
    "wfg_build": ("wfg.arcs", "wfg.nodes"),
    "wfg_check": ("wfg.deadlocked",),
    "output": ("output.bytes",),
    "sharded": (
        "sharded.coordinator_busy_s",
        "sharded.shard_busy_max_s",
        "sharded.wait_s",
        "sharded.rounds",
    ),
    "serve": ("serve.queue_s", "serve.exec_s", "serve.overhead_s", "serve.conn_drops"),
    "verify": ("verify.states", "verify.fastpath_ratio"),
}


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) >= 1:
        return str(int(value))
    return f"{value:.4g}"


def end_to_end_lines(
    workload: str, metrics: Mapping[str, Tuple[float, int]], notes: Sequence[str] = ()
) -> str:
    """One line per end-to-end metric: name, value, unit, sample count."""
    lines = [f"== {workload}: end-to-end"]
    for name, unit in END_TO_END.items():
        value, samples = metrics[name]
        lines.append(f"  {name:<15} {_fmt(value):>12} {unit:<6} n={samples}")
    lines.extend(f"  {note}" for note in notes)
    return "\n".join(lines)


def layer_table(workload: str, values: Mapping[str, float]) -> str:
    """The per-layer self-time table; the ``total`` row is the traced
    iteration the self times and ``other`` sum to."""
    total = values["tracing.iteration_s"]
    lines = [
        f"== {workload}: per-layer self time per iteration (traced)",
        f"  {'layer':<10} {'self_s':>10} {'share':>7}  counts",
    ]
    for layer in LAYERS + ("other",):
        busy = values[f"{layer}.busy_s"]
        counts = "  ".join(
            f"{name.split('.', 1)[1]}={_fmt(values[name])}"
            for name in _TABLE_COUNTS.get(layer, ())
        )
        share = 100.0 * busy / total if total else 0.0
        lines.append(f"  {layer:<10} {busy:>10.4f} {share:>6.1f}%  {counts}")
    lines.append(f"  {'total':<10} {total:>10.4f} {100.0:>6.1f}%")
    lines.append(
        f"  tracing overhead {values['tracing.overhead_s']:+.4f} s per iteration "
        "(traced minus untraced verdict_s)"
    )
    return "\n".join(lines)
