"""One rank-program loader for every entry point.

``repro lint``/``verify`` check each module-level rank program of a
file on its own ``LINT_RANKS``-rank world. ``repro blame``/``watch``,
``Session.blame`` and the service's program jobs load the same file
through the same code, so a file with two rank programs is two worlds
to them as well — they refuse it (exit 2 / ``job-failed``) instead of
running the two programs side by side as one made-up world.
"""
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.blame import load_programs
from repro.serve import ServeClient, ServeError
from repro.util.errors import TraceError

from tests.integration.test_serve import start_service

ROOT = Path(__file__).resolve().parents[2]

TWO_RINGS = """\
LINT_RANKS = 4


def ring_ok(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    req = yield rank.isend(right, tag=0)
    yield rank.recv(source=left, tag=0)
    yield rank.wait(req)
    yield rank.finalize()


def ring_bad(rank):
    right = (rank.rank + 1) % rank.size
    left = (rank.rank - 1) % rank.size
    yield rank.recv(source=left, tag=0)
    yield rank.send(right, tag=0)
    yield rank.finalize()
"""

#: ``load_programs(example, 4)`` per shipped example: the qualified
#: names of the returned world, or the loader refusing the file.
EXAMPLE_WORLDS = {
    "custom_application.py": None,
    "lammps_potential_deadlock.py": ["lammps_halo_shift"] * 12,
    "offline_workflow.py": None,
    "parity_exchange.py": ["parity_exchange"] * 6,
    "quickstart.py": None,
    "soft_hang_imbalance.py": [
        "soft_hang_imbalance_programs.<locals>.worker"
    ] * 8,
    "stress_overhead.py": None,
    "wildcard_master_worker.py": [
        "wildcard_master_worker_programs.<locals>.master",
        "wildcard_master_worker_programs.<locals>.worker",
        "wildcard_master_worker_programs.<locals>.worker",
    ],
    "wildcard_storm.py": ["wildcard_storm"] * 4,
}


@pytest.fixture()
def two_rings(tmp_path):
    path = tmp_path / "two_rings.py"
    path.write_text(TWO_RINGS)
    return str(path)


@pytest.mark.parametrize("command", ["blame", "watch"])
def test_run_commands_refuse_a_file_with_two_worlds(
    command, two_rings, capsys
):
    code = main([command, two_rings])
    err = capsys.readouterr().err
    assert code == 2
    assert "ring_ok" in err and "ring_bad" in err


def test_load_programs_names_every_program(two_rings):
    with pytest.raises(TraceError, match="ring_ok, ring_bad"):
        load_programs(two_rings, 4)


def test_serve_analyze_upload_of_two_worlds_fails(two_rings):
    service, thread = start_service()
    try:
        with ServeClient(service.address) as client:
            job = client.submit(
                tenant="t", source=Path(two_rings).read_text(), ranks=4
            )
            with pytest.raises(ServeError) as excinfo:
                client.result(job, wait=True, timeout=60)
            assert excinfo.value.code == "job-failed"
            assert "ring_ok" in str(excinfo.value)
            client.shutdown()
    finally:
        thread.join(30)
    assert not thread.is_alive()


def test_lint_keeps_per_program_verdicts(two_rings, capsys):
    code = main(["lint", two_rings])
    out = capsys.readouterr().out
    assert code == 1
    deadlocks = [
        line for line in out.splitlines() if "static-deadlock" in line
    ]
    assert len(deadlocks) == 4
    assert all("ring_bad:" in line for line in deadlocks)


def test_verify_keeps_per_program_verdicts(two_rings, capsys):
    code = main(["verify", two_rings])
    out = capsys.readouterr().out
    assert code == 1
    assert "ring_ok: deadlock-free" in out
    assert "ring_bad: deadlock-possible" in out


@pytest.mark.parametrize("name", sorted(EXAMPLE_WORLDS))
def test_examples_load_the_same_worlds(name):
    path = str(ROOT / "examples" / name)
    expected = EXAMPLE_WORLDS[name]
    if expected is None:
        with pytest.raises(TraceError, match="no rank programs found"):
            load_programs(path, 4)
        return
    assert [fn.__qualname__ for fn in load_programs(path, 4)] == expected


def test_one_function_imports_user_program_files():
    pattern = "spec_from_file_location("
    sites = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for line in path.read_text().splitlines()
        if pattern in line
    ]
    assert sites == ["src/repro/analysis/driver.py"]
