"""The static verdict must never contradict the runtime verdict.

For deterministic (wildcard-free, straight-line) random programs the
linear matcher (:func:`repro.analysis.match_linear`) and the virtual
runtime under the strict blocking semantics ``b`` analyze the *same*
unique matching, so their deadlock verdicts must agree exactly:

* safe-by-construction program sets are clean in both worlds;
* mutated (maybe-deadlocking) sets either deadlock in both with the
  same set of deadlocked ranks, or complete in both — and when the
  engine rejects a program outright (collective mismatch), the static
  consistency checks must already have reported an error. The matcher
  may refuse such a program, and only such a program.

This is the agreement property ``repro lint`` rests on: a static
``static-deadlock`` finding is a true positive and a clean static
report is a true negative, for every program the model covers.
"""
import pytest

from repro.analysis import (
    LinearMatchUnsupported,
    check_collective_consistency,
    check_request_typestate,
    extract_programs,
    match_linear,
)
from repro.checks.findings import Severity
from repro.core.waitstate import analyze_trace
from repro.mpi.blocking import BlockingSemantics
from repro.util.errors import ReproError
from repro.workloads.randomgen import mutate_program_set, safe_program_set
from tests.conftest import run_strict

SAFE_SEEDS = range(25)
MUTATED_SEEDS = range(35)
#: Mutated sets the retired fixpoint replay got wrong: it reported
#: ranks (0, 1, 2, 3) deadlocked where the runtime finds () and (0,).
REGRESSION_SEEDS = (46, 270)


def _generate(seed):
    p = 2 + seed % 4
    events = 10 + seed % 9
    return safe_program_set(p, events, seed, allow_wildcards=False)


def _static_verdict(generated):
    """Extract + check + match; returns (match result, error findings).

    The match result is ``None`` when the linear matcher refused the
    sequences (a structural error such as a mismatched collective)."""
    ext = extract_programs(generated.programs())
    assert ext.exact, "wildcard-free straight-line programs extract exactly"
    assert not ext.truncated
    findings = check_request_typestate(ext.sequences)
    findings += check_collective_consistency(
        ext.sequences, ext.comms, hung_ranks=ext.truncated
    )
    errors = [f for f in findings if f.severity is Severity.ERROR]
    try:
        result = match_linear(ext.sequences, ext.comms)
    except LinearMatchUnsupported:
        assert errors, "linear matcher refused a program the checks pass"
        return None, errors
    return result, errors


def _runtime_deadlocked(generated):
    """Ground truth: execute under strict ``b`` and analyze the trace."""
    res = run_strict(generated.programs())
    if not res.deadlocked:
        return frozenset()
    analysis = analyze_trace(
        res.matched,
        semantics=BlockingSemantics.strict(),
        generate_outputs=False,
    )
    return frozenset(analysis.deadlocked)


@pytest.mark.parametrize("seed", SAFE_SEEDS)
def test_safe_sets_are_clean_in_both_worlds(seed):
    generated = _generate(seed)
    static, errors = _static_verdict(generated)
    assert not errors
    assert static is not None and not static.has_deadlock
    assert _runtime_deadlocked(generated) == frozenset()


@pytest.mark.parametrize("seed", [*MUTATED_SEEDS, *REGRESSION_SEEDS])
def test_mutated_sets_agree_with_the_runtime(seed):
    generated = mutate_program_set(
        _generate(seed), seed + 10_000, mutations=1 + seed % 3
    )
    static, errors = _static_verdict(generated)
    try:
        runtime = _runtime_deadlocked(generated)
    except ReproError:
        # The engine rejected the program (e.g. a collective kind or
        # root mismatch): the static checks must already say ERROR.
        assert errors, "engine rejected program but static pass was clean"
        return
    assert static is not None, (
        f"linear matcher refused seed {seed}, which the engine runs"
    )
    assert static.has_deadlock == bool(runtime), (
        f"static verdict {static.deadlocked} contradicts runtime "
        f"verdict {sorted(runtime)} for seed {seed}"
    )
    if static.has_deadlock:
        assert set(static.deadlocked) == set(runtime)


def test_enough_programs_covered():
    # The acceptance bar: at least 50 deterministic random programs.
    assert len(SAFE_SEEDS) + len(MUTATED_SEEDS) >= 50
