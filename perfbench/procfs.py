"""CPU and memory of the benchmark process, its children and the daemon.

``RUSAGE_CHILDREN`` only counts children that have been waited for, so
a live ``repro serve`` daemon is read from ``/proc/<pid>/stat``
(``utime + stime``) and ``/proc/<pid>/status`` (``VmHWM``) instead.
"""
from __future__ import annotations

import os
import resource

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def parse_stat_cpu_s(text: str) -> float:
    """``utime + stime`` in seconds from a ``/proc/<pid>/stat`` line.

    The command name (field 2) is parenthesised and may itself hold
    spaces or parentheses, so fields are counted after the last ``)``.
    """
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(rest[11]) + int(rest[12])) / _CLK_TCK


def parse_status_hwm_mb(text: str) -> float:
    """Peak resident set (``VmHWM``) in MiB from ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
        return parse_stat_cpu_s(fh.read())


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
        return parse_status_hwm_mb(fh.read())


def rusage_cpu_s() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def rusage_peak_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0
