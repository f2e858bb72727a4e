"""Parsing and importing user Python files, one at a time per process.

CPython (3.11, early 3.12) keeps the AST constructor's recursion
counter per interpreter, not per thread. Two threads converting a
parse tree at once — two ``repro serve`` workers linting or verifying
uploaded programs, say — can trip it and fail with ``AST constructor
recursion depth mismatch``. Every ``ast.parse`` and module import of a
user file in this package goes through :func:`parse` and :func:`load`,
which hold one process-wide lock. The lock is re-entrant because an
imported user module may itself reach :func:`parse`.
"""
from __future__ import annotations

import ast
import sys
import threading
from types import ModuleType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from importlib.abc import Loader

_LOCK = threading.RLock()


def parse(source: str, filename: str = "<unknown>") -> ast.Module:
    """``ast.parse(source, filename)`` under the process-wide lock."""
    with _LOCK:
        return ast.parse(source, filename=filename)


def load(loader: Loader, module: ModuleType) -> None:
    """``loader.exec_module(module)`` under the process-wide lock, with
    the module in ``sys.modules`` (``dataclass`` looks it up there)
    only while it executes."""
    with _LOCK:
        sys.modules[module.__name__] = module
        try:
            loader.exec_module(module)
        finally:
            sys.modules.pop(module.__name__, None)
