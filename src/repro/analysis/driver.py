"""The ``repro lint`` entry point: orchestrate the static passes.

For a Python file the pipeline is

1. parse + AST lint (:mod:`repro.analysis.astlint`);
2. import the module and instantiate every discovered rank program
   over ``LINT_RANKS`` virtual ranks (or an explicit ``LINT_PROGRAMS``
   list when the module provides one);
3. statically extract the per-rank operation sequences
   (:mod:`repro.analysis.extract`);
4. run the request typestate FSM and the collective consistency
   checker (:mod:`repro.analysis.typestate`);
5. when the extraction is exact and wildcard-free, decide the
   unique matching with the O(n) linear matcher that ``repro verify``
   and ``repro prove`` use too
   (:mod:`repro.analysis.symbolic.linmatch`) and report any deadlock
   with its witness cycle.

For a recorded ``.json`` trace, steps 4–5 run on the recorded
sequences, with wildcard receives pinned to their observed matches.
"""
from __future__ import annotations

import ast
import importlib.util
import os
import sys
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.analysis.astlint import lint_source
from repro.analysis.explore import (
    ExplorationUnsupported,
    ExploreResult,
    Verdict,
    explore_extraction,
)
from repro.analysis.extract import extract_programs
from repro.analysis.symbolic.fragments import (
    ProgramClassification,
    classify_extraction,
    classify_source,
    decide_extraction,
)
from repro.analysis.symbolic.linmatch import (
    LinearMatchUnsupported,
    match_linear,
)
from repro.analysis.typestate import (
    check_collective_consistency,
    check_request_typestate,
)
from repro.analysis.witness import ReplayOutcome, WitnessSchedule, replay_witness
from repro.checks.findings import (
    CHECK_STATIC_DEADLOCK,
    CHECK_VERIFY_BOUND,
    CHECK_VERIFY_DEADLOCK,
    CHECK_WILDCARD_UNSUPPORTED,
    CheckFinding,
    Severity,
)
from repro.mpi.communicator import CommRegistry
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.ops import Operation
from repro.mpi.serialize import load_trace
from repro.obs.metrics import MetricsRegistry
from repro.util import pysource
from repro.util.errors import ReproError

#: Default virtual world size for statically analyzed programs.
DEFAULT_RANKS = 4


@dataclass
class LintReport:
    """Everything ``repro lint`` learned about one path."""

    path: str
    findings: List[CheckFinding] = field(default_factory=list)
    #: Program sets that were extracted and analyzed.
    programs_analyzed: int = 0
    #: Diagnostics about the analysis itself (import failures etc.).
    notes: List[str] = field(default_factory=list)
    #: Per-program decidable-fragment labels from the symbolic pass.
    classifications: List[ProgramClassification] = field(
        default_factory=list
    )

    def errors(self) -> List[CheckFinding]:
        return [
            f for f in self.findings if f.severity is Severity.ERROR
        ]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors())


def lint_path(path: str, *, ranks: int = DEFAULT_RANKS) -> LintReport:
    """Statically analyze a rank-program file or recorded trace."""
    if path.endswith(".json"):
        return _lint_trace(path)
    return _lint_python(path, ranks)


# ----------------------------------------------------------------------
# Python source files
# ----------------------------------------------------------------------

def _lint_python(path: str, ranks: int) -> LintReport:
    report = LintReport(path=path)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        findings, programs = lint_source(source, path)
    except SyntaxError as exc:
        report.findings.append(
            CheckFinding(
                check="syntax-error",
                severity=Severity.ERROR,
                rank=None,
                message=f"source does not parse: {exc.msg}",
                location=f"{path}:{exc.lineno or 1}",
            )
        )
        return report
    report.findings.extend(findings)
    _classify_for_lint(source, path, report)
    if not programs and not _has_explicit_programs(source):
        report.notes.append(
            "no module-level rank programs found; AST lint only"
        )
        return report

    module = _import_module(path, report)
    if module is None:
        return report

    program_sets = _program_sets(module, programs, ranks, report)
    for label, program_set in program_sets:
        _analyze_program_set(label, program_set, report)
    return report


def _classify_for_lint(
    source: str, path: str, report: LintReport
) -> None:
    """Run the symbolic pass and fold its provenance into the lint
    findings: ``loop-unsupported`` / ``symbolic-unsupported`` notes
    with file:line, and one ``role-split`` INFO per rank-dependent
    branch so role-parametric programs are visible in lint output."""
    try:
        classifications = classify_source(source, path)
    except SyntaxError:
        return  # already reported by the AST lint
    except RecursionError:  # pathological nesting; lint stays usable
        report.notes.append("symbolic classification overflowed; skipped")
        return
    report.classifications.extend(classifications)
    for cl in classifications:
        if cl.summary is not None:
            report.findings.extend(cl.summary.notes)
        for cond, lineno in cl.role_splits:
            report.findings.append(
                CheckFinding(
                    check="role-split",
                    severity=Severity.INFO,
                    rank=None,
                    message=(
                        f"{cl.name}: role split on `{cond}` — per-role "
                        "sequences extracted for both arms"
                    ),
                    location=f"{path}:{lineno}",
                )
            )
        report.notes.append(
            f"{cl.name}: fragment {cl.fragment.value}"
            + (f" ({cl.reason})" if cl.reason else "")
        )
        _prove_for_lint(cl, path, report)


def _prove_for_lint(
    cl: ProgramClassification, path: str, report: LintReport
) -> None:
    """Run the parameterized prover on decidable classifications.

    A certified program earns an INFO finding ("certified for all
    p"); a refuted one earns a WARNING carrying the minimal failing
    process count. Neither changes lint's exit code (only ERROR
    findings do) — the runtime-facing checks keep that authority.
    """
    if not cl.fragment.decidable or cl.summary is None:
        return
    from repro.analysis.symbolic.prove import ProveVerdict, prove_summary

    proof = prove_summary(cl.summary)
    if proof.verdict is ProveVerdict.PROVED_ALL_P:
        cert = proof.certificate
        assert cert is not None
        report.findings.append(
            CheckFinding(
                check="proved-all-p",
                severity=Severity.INFO,
                rank=None,
                message=(
                    f"{cl.name}: certified deadlock-free for all "
                    f"p >= 2 (sizes [2, {cert.window_hi}) confirmed, "
                    f"channel behavior verified periodic)"
                ),
                location=path,
            )
        )
    elif proof.verdict is ProveVerdict.REFUTED:
        ranks = ", ".join(str(r) for r in proof.deadlocked)
        report.findings.append(
            CheckFinding(
                check="prove-refuted",
                severity=Severity.WARNING,
                rank=None,
                message=(
                    f"{cl.name}: parameterized falsification found a "
                    f"deadlock at p={proof.min_p} (minimal failing "
                    f"process count; ranks {{{ranks}}})"
                ),
                location=path,
            )
        )


def _has_explicit_programs(source: str) -> bool:
    """Whether the module assigns a top-level ``LINT_PROGRAMS`` list
    (checked on the AST so program-less files are never imported)."""
    try:
        tree = pysource.parse(source)
    except SyntaxError:
        return False
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "LINT_PROGRAMS":
                return True
    return False


def _import_module(path: str, report: LintReport):
    """Import the linted file under a throwaway module name."""
    name = "_repro_lint_target"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        report.notes.append("cannot import module; AST lint only")
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        pysource.load(spec.loader, module)
    except SystemExit:
        # Scripts guarded by __main__ blocks should not run, but be
        # robust against modules calling sys.exit at import time.
        report.notes.append(
            "module exited during import; AST lint only"
        )
        return None
    except Exception as exc:
        report.notes.append(
            f"import failed ({exc!r}); AST lint only"
        )
        return None
    finally:
        sys.modules.pop(name, None)
    return module


def _program_sets(module, programs, ranks: int, report: LintReport):
    """The program sets to extract: explicit LINT_PROGRAMS or one set
    of ``n`` copies per discovered rank program."""
    explicit = getattr(module, "LINT_PROGRAMS", None)
    if explicit is not None:
        return [("LINT_PROGRAMS", list(explicit))]
    n = getattr(module, "LINT_RANKS", ranks)
    sets = []
    for program in programs:
        fn = getattr(module, program.name, None)
        if fn is None or not callable(fn):
            report.notes.append(
                f"{program.name}: not importable; skipped"
            )
            continue
        sets.append((program.name, [fn] * n))
    return sets


def _analyze_program_set(
    label: str, program_set: Sequence, report: LintReport
) -> None:
    if not program_set:
        return
    try:
        extraction = extract_programs(program_set)
    except ReproError as exc:
        report.notes.append(f"{label}: extraction failed ({exc})")
        return
    report.programs_analyzed += 1
    report.findings.extend(extraction.notes)
    report.findings.extend(
        check_request_typestate(extraction.sequences)
    )
    report.findings.extend(
        check_collective_consistency(
            extraction.sequences,
            extraction.comms,
            hung_ranks=extraction.truncated,
        )
    )
    if not extraction.exact and not (
        extraction.wildcard_exact and not extraction.truncated
    ):
        report.notes.append(
            f"{label}: control flow may depend on runtime outcomes; "
            "sequential deadlock matching skipped"
        )
        return
    # Wildcard-exact sequences reach the matcher so its refusal
    # becomes a structured `wildcard-unsupported` finding pointing at
    # `repro verify` (instead of an opaque note).
    _report_match(label, extraction.sequences, extraction.comms, report)


def _report_match(
    label: str,
    sequences: Sequence[Sequence[Operation]],
    comms: CommRegistry,
    report: LintReport,
) -> None:
    try:
        result = match_linear(sequences, comms, label=label)
    except LinearMatchUnsupported as exc:
        if exc.wildcard is not None:
            report.findings.append(
                CheckFinding(
                    check=CHECK_WILDCARD_UNSUPPORTED,
                    severity=Severity.INFO,
                    rank=None,
                    message=(
                        f"{label}: {exc} — use `repro verify` for "
                        "wildcard-aware match-set exploration"
                    ),
                )
            )
        else:
            report.notes.append(f"{label}: {exc}")
        return
    if not result.has_deadlock:
        return
    cycle = ""
    if result.witness_cycle:
        chain = " -> ".join(str(r) for r in result.witness_cycle)
        cycle = f"; dependency cycle {chain} -> {result.witness_cycle[0]}"
    for rank in result.deadlocked:
        _, ts = result.blocked_ops[rank]
        op = sequences[rank][ts]
        report.findings.append(
            CheckFinding(
                check=CHECK_STATIC_DEADLOCK,
                severity=Severity.ERROR,
                rank=rank,
                message=(
                    f"{label}: rank {rank} blocks forever at "
                    f"{op.describe()}{cycle}"
                ),
                op=op.ref,
                location=op.location,
            )
        )


# ----------------------------------------------------------------------
# Bounded verification (``repro verify``)
# ----------------------------------------------------------------------

@dataclass
class ProgramVerification:
    """Verdict of the match-set explorer for one program set."""

    label: str
    result: Optional[ExploreResult] = None
    witness: Optional[WitnessSchedule] = None
    replay: Optional[ReplayOutcome] = None
    findings: List[CheckFinding] = field(default_factory=list)
    #: Why exploration did not run (checker errors, inexact sequences).
    skipped_reason: str = ""

    @property
    def verdict_name(self) -> str:
        """The verdict string, or ``"inconclusive"`` when skipped."""
        if self.result is None:
            return "inconclusive"
        return self.result.verdict.value


@dataclass
class VerifyReport:
    """Everything ``repro verify`` learned about one path."""

    path: str
    programs: List[ProgramVerification] = field(default_factory=list)
    findings: List[CheckFinding] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def errors(self) -> List[CheckFinding]:
        all_findings = list(self.findings)
        for prog in self.programs:
            all_findings.extend(prog.findings)
        return [f for f in all_findings if f.severity is Severity.ERROR]

    @property
    def has_deadlock(self) -> bool:
        return any(
            p.result is not None and p.result.has_deadlock
            for p in self.programs
        )

    @property
    def inconclusive(self) -> bool:
        """Any program set without a definite verdict (skipped or
        bound-exceeded)."""
        return any(
            p.result is None
            or p.result.verdict is Verdict.BOUND_EXCEEDED
            for p in self.programs
        )


def verify_path(
    path: str,
    *,
    ranks: int = DEFAULT_RANKS,
    max_states: int = 200_000,
    max_depth: int = 1_000_000,
    por: bool = True,
    replay: bool = False,
    fastpath: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> VerifyReport:
    """Bounded wildcard-aware verification of a rank-program file.

    Extracts every discovered program set, runs the consistency
    checkers, and — when the sequences are exact up to wildcard
    statuses — explores the full match-set state graph. Wildcard-free
    exact sequences skip the state graph entirely: the fragment
    classifier routes them through the O(n) linear matcher
    (``fastpath=False`` forces exploration; ``verify.fastpath.*``
    counters record the routing). A
    `deadlock-possible` verdict carries a witness schedule;
    ``replay=True`` additionally feeds it back through the runtime
    engine to confirm the deadlock dynamically.
    """
    if path.endswith(".json"):
        raise ReproError(
            "verify needs rank programs to explore (and replay); "
            "recorded traces are analyzed by `repro lint` / "
            "`repro analyze`"
        )
    report = VerifyReport(path=path)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        _, programs = lint_source(source, path)
    except SyntaxError as exc:
        raise ReproError(
            f"source does not parse: {exc.msg} "
            f"({path}:{exc.lineno or 1})"
        ) from exc
    if not programs and not _has_explicit_programs(source):
        report.notes.append("no module-level rank programs found")
        return report
    module = _import_module(path, report)
    if module is None:
        raise ReproError(f"cannot import {path}: {report.notes[-1]}")

    lint_shim = LintReport(path=path)
    program_sets = _program_sets(module, programs, ranks, lint_shim)
    report.notes.extend(lint_shim.notes)
    for label, program_set in program_sets:
        report.programs.append(
            _verify_program_set(
                label,
                program_set,
                max_states=max_states,
                max_depth=max_depth,
                por=por,
                replay=replay,
                fastpath=fastpath,
                metrics=metrics,
            )
        )
    return report


def _verify_program_set(
    label: str,
    program_set: Sequence,
    *,
    max_states: int,
    max_depth: int,
    por: bool,
    replay: bool,
    fastpath: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> ProgramVerification:
    prog = ProgramVerification(label=label)
    try:
        extraction = extract_programs(program_set)
    except ReproError as exc:
        prog.skipped_reason = f"extraction failed ({exc})"
        return prog
    prog.findings.extend(extraction.notes)
    prog.findings.extend(check_request_typestate(extraction.sequences))
    prog.findings.extend(
        check_collective_consistency(
            extraction.sequences,
            extraction.comms,
            hung_ranks=extraction.truncated,
        )
    )
    if any(f.severity is Severity.ERROR for f in prog.findings):
        # The engine would reject these programs (usage errors); an
        # exploration verdict would be meaningless.
        prog.skipped_reason = (
            "consistency checks reported errors; fix those first"
        )
        return prog
    # Decidable-fragment fast path: wildcard-free exact sequences have
    # a unique matching (arXiv:0709.3692), so a single linear replay
    # decides deadlock without building the state graph.
    if fastpath:
        classification = classify_extraction(extraction)
        if metrics is not None:
            metrics.inc(
                f"verify.fragment.{classification.fragment.value}"
            )
        fast = None
        if classification.decidable:
            fast = decide_extraction(extraction, label=label)
        if fast is not None:
            if metrics is not None:
                metrics.inc("verify.fastpath.hits")
                metrics.inc(
                    "verify.fastpath.linear_ops",
                    fast.stats.transitions,
                )
                if fast.has_deadlock:
                    metrics.inc("verify.fastpath.deadlocks_found")
            prog.result = fast
        else:
            if metrics is not None:
                metrics.inc("verify.fastpath.misses")
    if prog.result is None:
        try:
            prog.result = explore_extraction(
                extraction,
                max_states=max_states,
                max_depth=max_depth,
                por=por,
                metrics=metrics,
                label=label,
            )
        except ExplorationUnsupported as exc:
            prog.skipped_reason = str(exc)
            return prog
    result = prog.result
    if result.verdict is Verdict.BOUND_EXCEEDED:
        prog.findings.append(
            CheckFinding(
                check=CHECK_VERIFY_BOUND,
                severity=Severity.WARNING,
                rank=None,
                message=(
                    f"{label}: exploration stopped early ({result.reason}) "
                    f"after {result.stats.states_explored} states; "
                    "NOT a deadlock-freedom proof — raise --max-states/"
                    "--max-depth for a verdict"
                ),
            )
        )
        return prog
    if not result.has_deadlock:
        return prog
    prog.witness = result.witness
    cycle = ""
    if result.witness_cycle:
        chain = " -> ".join(str(r) for r in result.witness_cycle)
        cycle = f"; dependency cycle {chain} -> {result.witness_cycle[0]}"
    for rank in result.deadlocked:
        ref = result.blocked_ops.get(rank)
        cond = result.conditions.get(rank)
        prog.findings.append(
            CheckFinding(
                check=CHECK_VERIFY_DEADLOCK,
                severity=Severity.ERROR,
                rank=rank,
                message=(
                    f"{label}: a feasible schedule deadlocks rank {rank} "
                    f"at {cond.op_description if cond else 'its op'}"
                    f"{cycle}"
                ),
                op=ref,
            )
        )
    if replay and prog.witness is not None:
        prog.replay = replay_witness(list(program_set), prog.witness)
    return prog


# ----------------------------------------------------------------------
# Recorded traces
# ----------------------------------------------------------------------

def _lint_trace(path: str) -> LintReport:
    report = LintReport(path=path)
    matched = load_trace(path)
    sequences = [
        list(matched.trace.sequence(r))
        for r in range(matched.trace.num_processes)
    ]
    report.programs_analyzed = 1
    report.findings.extend(check_request_typestate(sequences))
    report.findings.extend(
        check_collective_consistency(sequences, matched.comms)
    )
    _report_match(
        os.path.basename(path),
        _resolve_with_observations(sequences),
        matched.comms,
        report,
    )
    return report


def _resolve_with_observations(
    sequences: Sequence[Sequence[Operation]],
) -> List[List[Operation]]:
    """Pin recorded wildcard receives and probes to their observed
    source/tag; the ones that never matched stay wildcards."""
    resolved: List[List[Operation]] = []
    for seq in sequences:
        out: List[Operation] = []
        for op in seq:
            if (
                (op.is_recv() or op.is_probe())
                and op.peer == ANY_SOURCE
                and op.observed_peer is not None
            ):
                tag = op.tag
                if tag == ANY_TAG and op.observed_tag is not None:
                    tag = op.observed_tag
                op = replace(op, peer=op.observed_peer, tag=tag)
            out.append(op)
        resolved.append(out)
    return resolved
