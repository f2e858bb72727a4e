"""Source-level lint for rank programs (no execution required).

Rank programs drive the virtual MPI runtime by *yielding* call
descriptors built on their :class:`~repro.runtime.program.Rank`
handle. That protocol has sharp edges a pure AST pass can catch:

* ``rank.send(...)`` without ``yield`` builds a descriptor and drops
  it — the call never reaches the engine (the classic forgotten-yield
  bug, the static analogue of a lost message);
* ``yield from`` and ``yield`` confusion: composite helpers
  (``sendrecv``, ``startall``) are sub-generators and need ``yield
  from``, single-call builders must not use it;
* collectives issued under a rank-dependent branch with different
  collective sequences per branch — the textbook root/kind mismatch
  pattern (Section 2's erroneous applications);
* literal tags outside the portable ``[0, MPI_TAG_UB]`` window;
* ``MPI_ANY_SOURCE`` used as a send destination.

Findings are :class:`~repro.checks.findings.CheckFinding` records with
``rank=None`` (source findings are per-program, not per-process) and a
``file:line`` location.
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

from repro.checks.findings import CheckFinding, Severity
from repro.checks.local import MIN_TAG_UB
from repro.util import pysource

SEND_METHODS = frozenset(
    {"send", "ssend", "bsend", "rsend", "isend", "issend", "ibsend",
     "irsend", "send_init"}
)
RECV_METHODS = frozenset(
    {"recv", "irecv", "recv_init", "probe", "iprobe"}
)
COLLECTIVE_METHODS = frozenset(
    {"barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
     "allgather", "alltoall", "scan", "reduce_scatter", "comm_dup",
     "comm_split", "comm_create", "comm_free"}
)
COMPLETION_METHODS = frozenset(
    {"wait", "waitall", "waitany", "waitsome", "test", "testall",
     "testany", "testsome"}
)
OTHER_PLAIN_METHODS = frozenset({"start", "request_free", "finalize"})
#: Builders returning a *sub-generator*: must be driven by yield-from.
GENERATOR_METHODS = frozenset({"sendrecv", "startall"})
#: Builders returning a single call: must be the value of a plain yield.
PLAIN_METHODS = (
    SEND_METHODS | RECV_METHODS | COLLECTIVE_METHODS
    | COMPLETION_METHODS | OTHER_PLAIN_METHODS
)
ALL_METHODS = PLAIN_METHODS | GENERATOR_METHODS

#: Names that denote MPI_ANY_SOURCE in source text.
_ANY_SOURCE_NAMES = frozenset({"ANY_SOURCE", "MPI_ANY_SOURCE"})


@dataclass
class RankProgram:
    """A module-level function recognized as a rank program."""

    node: ast.FunctionDef
    handle: str  # parameter name of the Rank handle

    @property
    def name(self) -> str:
        return self.node.name


def _int_literal(node: ast.AST) -> Optional[int]:
    """The value of an integer literal, handling unary minus."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
    ):
        inner = _int_literal(node.operand)
        if inner is not None:
            return -inner
    return None


def _is_any_source(node: ast.AST) -> bool:
    value = _int_literal(node)
    if value == -1:
        return True
    if isinstance(node, ast.Name) and node.id in _ANY_SOURCE_NAMES:
        return True
    if isinstance(node, ast.Attribute) and node.attr in _ANY_SOURCE_NAMES:
        return True
    return False


def _handle_call(node: ast.AST, handles: Set[str]) -> Optional[str]:
    """Method name when ``node`` is ``<handle>.<mpi-method>(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in ALL_METHODS:
        return None
    if not isinstance(func.value, ast.Name):
        return None
    if func.value.id not in handles:
        return None
    return func.attr


def _scoped_walk(fn: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _direct_yields(fn: ast.FunctionDef) -> List[ast.expr]:
    """Yield/YieldFrom nodes in ``fn``'s own scope (not nested defs)."""
    found: List[ast.expr] = []

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node is not fn:
                return  # do not descend into nested functions
            self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Lambda(self, node: ast.Lambda) -> None:
            return

        def visit_Yield(self, node: ast.Yield) -> None:
            found.append(node)
            self.generic_visit(node)

        def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
            found.append(node)
            self.generic_visit(node)

    Visitor().visit(fn)
    return found


def _is_rank_program(fn: ast.FunctionDef) -> Optional[str]:
    """The handle parameter name when ``fn`` looks like a rank program.

    A rank program takes the handle as its first parameter and directly
    yields at least one MPI call built on it.
    """
    args = fn.args
    if not args.args:
        return None
    handle = args.args[0].arg
    for node in _direct_yields(fn):
        value = node.value
        if value is not None and _handle_call(value, {handle}):
            return handle
    return None


def find_rank_programs(tree: ast.Module) -> List[RankProgram]:
    """Module-level functions that are recognizably rank programs."""
    programs: List[RankProgram] = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        extra_required = len(node.args.args) - 1 - len(node.args.defaults)
        if extra_required > 0:
            continue  # cannot be called with just the Rank handle
        handle = _is_rank_program(node)
        if handle is not None:
            programs.append(RankProgram(node=node, handle=handle))
    return programs


@dataclass
class _Linter:
    filename: str
    findings: List[CheckFinding] = field(default_factory=list)

    def report(self, check: str, severity: Severity, node: ast.AST,
               message: str) -> None:
        self.findings.append(
            CheckFinding(
                check=check,
                severity=severity,
                rank=None,
                message=message,
                location=f"{self.filename}:{node.lineno}",
            )
        )

    # ------------------------------------------------------------------

    def lint_program(self, fn: ast.FunctionDef, handle: str) -> None:
        handles = {handle}
        self._collect_aliases(fn, handles)
        self._check_yield_discipline(fn, handles)
        self._check_rank_dependent_collectives(fn, handles)
        self._check_rank_dependent_collective_loops(fn, handles)
        for call in _scoped_walk(fn):
            method = _handle_call(call, handles)
            if method is None:
                continue
            self._check_call_arguments(call, method)  # type: ignore[arg-type]

    def _collect_aliases(self, fn: ast.FunctionDef,
                         handles: Set[str]) -> None:
        """Track simple handle aliases (``comm = rank``)."""
        for node in _scoped_walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in handles
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        handles.add(target.id)

    # -- yield discipline ----------------------------------------------

    def _check_yield_discipline(self, fn: ast.FunctionDef,
                                handles: Set[str]) -> None:
        yielded: Set[int] = set()
        yielded_from: Set[int] = set()
        for node in _scoped_walk(fn):
            if isinstance(node, ast.Yield) and node.value is not None:
                yielded.add(id(node.value))
            elif isinstance(node, ast.YieldFrom):
                yielded_from.add(id(node.value))
        for node in _scoped_walk(fn):
            method = _handle_call(node, handles)
            if method is None:
                continue
            if method in GENERATOR_METHODS:
                if id(node) in yielded_from:
                    continue
                if id(node) in yielded:
                    self.report(
                        "yield-from-misuse", Severity.ERROR, node,
                        f"{self._call_text(node, method)} is a composite "
                        "sub-generator; drive it with 'yield from', not "
                        "'yield'",
                    )
                else:
                    self.report(
                        "unyielded-call", Severity.ERROR, node,
                        f"{self._call_text(node, method)} is never driven "
                        "('yield from' is required); the calls it builds "
                        "never reach the engine",
                    )
            else:
                if id(node) in yielded:
                    continue
                if id(node) in yielded_from:
                    self.report(
                        "yield-from-misuse", Severity.ERROR, node,
                        f"{self._call_text(node, method)} builds a single "
                        "MPI call; submit it with 'yield', not "
                        "'yield from'",
                    )
                else:
                    self.report(
                        "unyielded-call", Severity.ERROR, node,
                        f"{self._call_text(node, method)} builds a call "
                        "descriptor but never yields it to the engine; "
                        "the MPI operation is silently dropped",
                    )

    @staticmethod
    def _call_text(node: ast.Call, method: str) -> str:
        obj = node.func.value.id  # type: ignore[union-attr]
        return f"{obj}.{method}(...)"

    # -- rank-dependent collectives --------------------------------------

    def _check_rank_dependent_collectives(
        self, fn: ast.FunctionDef, handles: Set[str]
    ) -> None:
        rank_names = self._rank_identity_names(fn, handles)
        for node in _scoped_walk(fn):
            if not isinstance(node, ast.If):
                continue
            if not self._mentions_rank(node.test, handles, rank_names):
                continue
            body_calls = self._collective_calls(node.body, handles)
            else_calls = self._collective_calls(node.orelse, handles)
            if body_calls != else_calls:
                described = self._describe_diff(body_calls, else_calls)
                self.report(
                    "rank-dependent-collective", Severity.WARNING, node,
                    "collective calls differ between rank-dependent "
                    f"branches ({described}); unless the branches "
                    "rejoin on every rank this mismatches the "
                    "collective order across the communicator",
                )

    def _check_rank_dependent_collective_loops(
        self, fn: ast.FunctionDef, handles: Set[str]
    ) -> None:
        """Collectives inside loops whose trip count depends on the
        rank identity: each rank then calls the collective a different
        number of times, which mismatches the collective order exactly
        like a rank-dependent branch does (the loop-shaped variant the
        branch check is blind to)."""
        rank_names = self._rank_identity_names(fn, handles)
        for node in _scoped_walk(fn):
            if isinstance(node, ast.For):
                trip = node.iter
            elif isinstance(node, ast.While):
                trip = node.test
            else:
                continue
            if not self._mentions_rank(trip, handles, rank_names):
                continue
            calls = self._collective_calls(node.body, handles)
            if not calls:
                continue
            described = "+".join(calls)
            self.report(
                "rank-dependent-collective", Severity.WARNING, node,
                f"collective call(s) {described} sit inside a "
                "loop whose trip count depends on the rank identity; "
                "ranks will disagree on how many collective waves "
                "they join",
            )

    def _rank_identity_names(self, fn: ast.FunctionDef,
                             handles: Set[str]) -> Set[str]:
        """Variables assigned from ``<handle>.rank`` (simple aliases)."""
        names: Set[str] = set()
        for node in _scoped_walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "rank"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in handles
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _mentions_rank(test: ast.AST, handles: Set[str],
                       rank_names: Set[str]) -> bool:
        for node in ast.walk(test):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "rank"
                and isinstance(node.value, ast.Name)
                and node.value.id in handles
            ):
                return True
            if isinstance(node, ast.Name) and node.id in rank_names:
                return True
        return False

    @staticmethod
    def _collective_calls(body: List[ast.stmt],
                          handles: Set[str]) -> Tuple[str, ...]:
        calls: List[str] = []
        for stmt in body:
            for node in ast.walk(stmt):
                method = _handle_call(node, handles)
                if method in COLLECTIVE_METHODS:
                    calls.append(method)
        return tuple(calls)

    @staticmethod
    def _describe_diff(body: Tuple[str, ...],
                       else_: Tuple[str, ...]) -> str:
        fmt = lambda calls: "+".join(calls) if calls else "none"
        return f"if-branch: {fmt(body)}, else-branch: {fmt(else_)}"

    # -- argument checks -------------------------------------------------

    def _check_call_arguments(self, node: ast.Call, method: str) -> None:
        if method in SEND_METHODS:
            dest = self._argument(node, 0, "dest")
            if dest is not None and _is_any_source(dest):
                self.report(
                    "any-source-send", Severity.ERROR, node,
                    f"MPI_ANY_SOURCE used as the destination of "
                    f"{method}(); wildcards are only valid on the "
                    "receive side",
                )
            self._check_tag_literal(node, method,
                                    self._argument(node, 1, "tag"),
                                    is_send=True)
        elif method in RECV_METHODS:
            self._check_tag_literal(node, method,
                                    self._argument(node, 1, "tag"),
                                    is_send=False)
        elif method == "sendrecv":
            dest = self._argument(node, 0, "dest")
            if dest is not None and _is_any_source(dest):
                self.report(
                    "any-source-send", Severity.ERROR, node,
                    "MPI_ANY_SOURCE used as the destination of "
                    "sendrecv(); wildcards are only valid on the "
                    "receive side",
                )
            self._check_tag_literal(node, method,
                                    self._argument(node, 2, "sendtag"),
                                    is_send=True)
            self._check_tag_literal(node, method,
                                    self._argument(node, 3, "recvtag"),
                                    is_send=False)

    @staticmethod
    def _argument(node: ast.Call, index: int,
                  keyword: str) -> Optional[ast.AST]:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        if index < len(node.args):
            return node.args[index]
        return None

    def _check_tag_literal(self, node: ast.Call, method: str,
                           tag: Optional[ast.AST], *,
                           is_send: bool) -> None:
        if tag is None:
            return
        value = _int_literal(tag)
        if value is None:
            return
        floor = 0 if is_send else -1  # ANY_TAG is legal on receives
        if value < floor:
            self.report(
                "literal-tag-range", Severity.ERROR, node,
                f"literal tag {value} of {method}() is negative"
                + ("" if is_send else " (and not MPI_ANY_TAG)"),
            )
        elif value > MIN_TAG_UB:
            self.report(
                "literal-tag-range", Severity.WARNING, node,
                f"literal tag {value} of {method}() exceeds the "
                f"portable MPI_TAG_UB minimum ({MIN_TAG_UB})",
            )


def lint_source(
    source: str, filename: str
) -> Tuple[List[CheckFinding], List[RankProgram]]:
    """AST-lint ``source``; returns findings and discovered programs.

    Raises :class:`SyntaxError` when the source does not parse — the
    caller turns that into a finding with the error position.
    """
    tree = pysource.parse(source, filename)
    programs = find_rank_programs(tree)
    linter = _Linter(filename=filename)

    # Lint every function that yields handle-built MPI calls — nested
    # and non-module-level generators included — not just the programs
    # eligible for extraction.
    seen: Set[int] = set()

    def lint_fn(fn: ast.FunctionDef) -> None:
        if id(fn) in seen:
            return
        seen.add(id(fn))
        handle = _is_rank_program(fn)
        if handle is not None:
            linter.lint_program(fn, handle)

    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            lint_fn(node)
    return linter.findings, programs
