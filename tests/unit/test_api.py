"""The ``repro.api`` facade: AnalysisConfig, Session, and the v1
removal of the legacy free-function names."""
import json

import pytest

import repro
from repro.api import AnalysisConfig, Session
from repro.backend import InlineBackend, ShardedBackend
from repro.workloads import fig2a_programs, stress_programs


class TestAnalysisConfig:
    def test_defaults_build_the_inline_backend(self):
        config = AnalysisConfig()
        assert isinstance(config.build_backend(), InlineBackend)
        assert not config.observability_wanted

    def test_backend_selection(self):
        config = AnalysisConfig(backend="sharded", shards=4)
        backend = config.build_backend()
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 4

    def test_replace_returns_a_new_value(self):
        config = AnalysisConfig()
        other = config.replace(fan_in=8)
        assert other.fan_in == 8 and config.fan_in == 4

    def test_sinks_imply_observability(self):
        assert AnalysisConfig(trace_out="x.json").observability_wanted
        assert AnalysisConfig(jsonl_out="x.jsonl").observability_wanted

    def test_frozen(self):
        with pytest.raises(Exception):
            AnalysisConfig().fan_in = 8


class TestSession:
    def test_record_analyze_pipeline(self):
        session = Session()
        run = session.record(fig2a_programs())
        assert session.last_run is run
        outcome = session.analyze()
        assert outcome.deadlocked == (0, 1)
        assert session.last_outcome is outcome

    def test_run_is_record_plus_analyze(self):
        outcome = Session().run(fig2a_programs())
        assert outcome.has_deadlock

    def test_analyze_without_record_raises(self):
        with pytest.raises(ValueError, match="record a run first"):
            Session().analyze()

    def test_analyze_accepts_a_matched_trace(self):
        session = Session()
        run = session.record(stress_programs(4, iterations=3))
        outcome = session.analyze(run.matched)
        assert not outcome.has_deadlock

    def test_overrides_win_over_config(self):
        session = Session(AnalysisConfig(fan_in=8), backend="sharded")
        assert session.config.fan_in == 8
        assert isinstance(session.backend, ShardedBackend)

    def test_sharded_session_reaches_the_same_verdict(self):
        outcome = Session(backend="sharded", shards=2).run(fig2a_programs())
        assert outcome.deadlocked == (0, 1)

    def test_blame_runs_on_the_session_backend(self, monkeypatch):
        session = Session(backend="sharded", shards=2)
        assert isinstance(session.backend, ShardedBackend)
        calls = []
        run = session.backend.run

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return run(*args, **kwargs)

        monkeypatch.setattr(session.backend, "run", spy)
        report, outcome = session.blame(
            "examples/lammps_potential_deadlock.py"
        )
        assert len(calls) == 1
        assert outcome.deadlocked == tuple(range(12))
        assert set(report.root_causes) == set(outcome.deadlocked)

    def test_context_manager_exports_sinks(self, tmp_path):
        trace = tmp_path / "session.trace.json"
        jsonl = tmp_path / "session.jsonl"
        with Session(
            trace_out=str(trace), jsonl_out=str(jsonl)
        ) as session:
            session.run(fig2a_programs())
        doc = json.loads(trace.read_text())
        assert doc["repro"]["deadlocked"] is True
        assert doc["traceEvents"]
        assert jsonl.read_text().strip()

    def test_export_is_idempotent(self, tmp_path):
        trace = tmp_path / "once.trace.json"
        session = Session(trace_out=str(trace))
        session.run(fig2a_programs())
        session.export()
        stamp = trace.stat().st_mtime_ns
        trace.unlink()
        session.export()  # second call must not rewrite
        assert not trace.exists()
        assert stamp


class TestRemovedLegacyNames:
    """The 1.1 deprecation shims are gone: importing the legacy free
    functions from ``repro`` raises AttributeError naming the Session
    replacement (pinned by the v1 API consolidation)."""

    @pytest.mark.parametrize(
        "name",
        ["run_programs", "analyze_trace", "detect_deadlocks_distributed"],
    )
    def test_legacy_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match="Session"):
            getattr(repro, name)
        with pytest.raises(AttributeError, match="removed in 1.2"):
            getattr(repro, name)

    @pytest.mark.parametrize(
        "name",
        ["run_programs", "analyze_trace", "detect_deadlocks_distributed"],
    )
    def test_legacy_import_raises(self, name):
        with pytest.raises(ImportError):
            exec(f"from repro import {name}")

    def test_legacy_names_left_all(self):
        assert "run_programs" not in repro.__all__
        assert "analyze_trace" not in repro.__all__
        assert "detect_deadlocks_distributed" not in repro.__all__

    def test_other_unknown_attributes_still_raise_plainly(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_name

    def test_home_modules_keep_the_originals(self):
        from repro.core import analyze_trace, detect_deadlocks_distributed
        from repro.runtime import run_programs

        result = run_programs(fig2a_programs())
        assert result.deadlocked
        assert analyze_trace(result.matched).deadlocked == (0, 1)
        assert detect_deadlocks_distributed(
            result.matched
        ).deadlocked == (0, 1)
