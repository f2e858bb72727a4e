"""``repro lint`` on the O(n) linear matcher it shares with verify.

Pins lint's verdicts on the probe-first program (a static deadlock
the earlier fixpoint replay reported falsely), on recorded traces
whose runtime-steered calls (``Iprobe``, ``Waitany``) are decided
through their observed outcome, and against ``repro verify`` on every
example verify decides on its wildcard-free fast path.
"""
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import lint_path, verify_path
from repro.checks.findings import (
    CHECK_STATIC_DEADLOCK,
    CHECK_WILDCARD_UNSUPPORTED,
)
from repro.cli import main
from repro.mpi.constants import OpKind
from repro.mpi.serialize import load_trace, save_trace
from repro.workloads import waitany_survivor_programs
from tests.conftest import run_strict

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

PROBE_FIRST = """\
LINT_RANKS = 2
def probe_first(rank):
    if rank.rank == 0:
        yield rank.probe(source=1, tag=0)
        yield rank.recv(source=1, tag=0)
    else:
        yield rank.send(dest=0, tag=0)
    yield rank.finalize()
"""


def test_probe_before_its_receive_is_clean(tmp_path, capsys):
    src = tmp_path / "probe_first.py"
    src.write_text(PROBE_FIRST)
    code = main(["lint", str(src)])
    out = capsys.readouterr().out
    assert code == 0
    assert "static-deadlock" not in out


def _record(workload, ranks):
    def record(path):
        args = ["record", workload, "-n", str(ranks), "-o", str(path)]
        assert main(args) == 0
    return record


def _record_waitany(path):
    res = run_strict(waitany_survivor_programs())
    assert not res.deadlocked
    save_trace(res.matched, str(path))


#: case -> (recorder, exit code, match findings, message text that
#: every match finding carries, steered kind decided by its outcome)
TRACE_CASES = {
    "soft-hang-8": (_record("soft-hang", 8), 0, {}, "", OpKind.IPROBE),
    "waitany": (_record_waitany, 0, {}, "", OpKind.WAITANY),
    "lammps-8": (
        _record("lammps", 8),
        1,
        {CHECK_STATIC_DEADLOCK: 8},
        "dependency cycle 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> 6 -> 7 -> 0",
        None,
    ),
    "wildcard-4": (
        _record("wildcard", 4),
        0,
        {CHECK_WILDCARD_UNSUPPORTED: 1},
        "use `repro verify`",
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_recorded_trace_verdicts(case, tmp_path, capsys):
    record, exit_code, expected, text, steered = TRACE_CASES[case]
    path = tmp_path / f"{case}.json"
    record(path)
    capsys.readouterr()
    assert main(["lint", str(path)]) == exit_code
    report = lint_path(str(path))
    found = [
        f for f in report.findings
        if f.check in (CHECK_STATIC_DEADLOCK, CHECK_WILDCARD_UNSUPPORTED)
    ]
    assert Counter(f.check for f in found) == Counter(expected)
    assert all(text in f.message for f in found)
    # The matcher decided (or refused on a wildcard): no refusal note.
    assert not report.notes
    if steered is not None:
        trace = load_trace(str(path)).trace
        assert any(
            op.kind is steered
            and (op.observed_peer is not None or op.completed_indices)
            for r in range(trace.num_processes)
            for op in trace.sequence(r)
        )


def test_lint_deadlocks_equal_verify_fast_path_on_examples():
    compared = {}
    for example in sorted(EXAMPLES.glob("*.py")):
        verify = verify_path(str(example))
        fast = {
            prog.label: set(prog.result.deadlocked)
            for prog in verify.programs
            if prog.result is not None
            and prog.result.fragment == "SEQ-DETERMINISTIC"
        }
        if not fast:
            continue
        lint = {label: set() for label in fast}
        for finding in lint_path(str(example)).findings:
            if finding.check == CHECK_STATIC_DEADLOCK:
                label = finding.message.split(":", 1)[0]
                lint.setdefault(label, set()).add(finding.rank)
        assert lint == fast, example.name
        compared[example.name] = fast
    verdicts = {bool(ranks) for fast in compared.values()
                for ranks in fast.values()}
    assert verdicts == {True, False}, compared
