"""User-file parsing and importing are serialized process-wide.

Concurrent ``ast.parse`` calls (e.g. two ``repro serve`` workers) can
fail inside CPython with ``AST constructor recursion depth mismatch``;
every parse and import of a user file goes through
:mod:`repro.util.pysource`, which holds one lock.
"""
from __future__ import annotations

import importlib.util
import re
import sys
import threading
from pathlib import Path

from repro.util import pysource

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _parse_and_import(path: Path, tag: str) -> None:
    source = path.read_text()
    tree = pysource.parse(source, str(path))
    assert tree.body
    spec = importlib.util.spec_from_file_location(f"_pysource_{tag}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    pysource.load(spec.loader, module)


def test_threads_parse_and_import_examples():
    """More threads than CI cores, switching as often as the interpreter
    allows, each parsing and importing the examples 100 times."""
    assert EXAMPLES
    rounds, workers = 100, 4
    errors = []
    done = []

    def worker(tid: int) -> None:
        try:
            for i in range(rounds):
                _parse_and_import(EXAMPLES[i % len(EXAMPLES)], f"{tid}_{i}")
                done.append(tid)
        except Exception as exc:  # collected and asserted below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(done) == workers * rounds


def test_lock_is_reentrant():
    """An imported user module may itself parse (e.g. lint on import)."""
    spec = importlib.util.spec_from_loader("_pysource_nested", loader=None)
    module = importlib.util.module_from_spec(spec)

    class _Loader:
        def exec_module(self, mod):
            mod.tree = pysource.parse("x = 1")

    pysource.load(_Loader(), module)
    assert module.tree.body


def test_no_direct_parse_or_import_outside_the_helper():
    helper = ROOT / "src" / "repro" / "util" / "pysource.py"
    pattern = re.compile(r"\bast\.parse\(|\.exec_module\(")
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if path != helper
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_module_is_registered_only_while_it_executes():
    """Decorators such as ``dataclass`` find the module in
    ``sys.modules`` during the import; nothing is left behind."""
    spec = importlib.util.spec_from_loader("_pysource_registered", loader=None)
    module = importlib.util.module_from_spec(spec)

    class _Loader:
        def exec_module(self, mod):
            mod.seen = sys.modules.get(mod.__name__) is mod

    pysource.load(_Loader(), module)
    assert module.seen
    assert "_pysource_registered" not in sys.modules
