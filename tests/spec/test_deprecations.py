"""The PR-4 compatibility shims are gone; these tests pin the removals.

Each class documents one retired shim and asserts the post-removal
contract: legacy spellings fail loudly (no silent misbehaviour), and
the behaviours the shims were bridging toward are the only ones left.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import cached_trace
from repro.spec import WorkloadSpec


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    from repro.runner.artifacts import reset_cache_stats

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    reset_cache_stats()
    yield
    reset_cache_stats()


class TestCachedTraceSpecOnly:
    def test_legacy_positional_form_is_rejected(self):
        with pytest.raises(TypeError):
            cached_trace("gzip", 600)
        with pytest.raises(TypeError, match="WorkloadSpec"):
            cached_trace("gzip")

    def test_seed_aliasing_is_gone(self):
        # seed=None and the profile's explicit seed share one slot
        resolved = WorkloadSpec("gzip").resolved_seed()
        a = cached_trace(WorkloadSpec("gzip", length=600, seed=None))
        b = cached_trace(WorkloadSpec("gzip", length=600, seed=resolved))
        assert a is b

    def test_spec_form_rejects_extra_scalars(self):
        with pytest.raises(TypeError):
            cached_trace(WorkloadSpec("gzip"), 600)


class TestEngineChoiceRemoved:
    def test_removed_engine_spellings_fail_loudly(self, monkeypatch,
                                                  capsys):
        from repro.cli import build_parser
        from repro.service import evaluations
        from repro.service.protocol import ProtocolError
        from repro.spec import SpecError, resolve_spec

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "gzip", "--engine", "reference"])
        assert "--engine" in capsys.readouterr().err
        with pytest.raises(ProtocolError, match="engine"):
            evaluations.flat_params_to_spec(
                "simulate", {"benchmark": "gzip", "engine": "reference"})
        with pytest.raises(SpecError, match="engine"):
            resolve_spec(overrides={"workload": {"benchmark": "gzip"},
                                    "engine": {"engine": "reference"}})
        # the old variable is just an unregistered name now: ignored
        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp")
        spec = resolve_spec(overrides={"workload": {"benchmark": "gzip"}})
        assert spec == resolve_spec(
            overrides={"workload": {"benchmark": "gzip"}}, use_env=False)


class TestServiceSpecOnlyParams:
    def test_flat_model_params_are_rejected(self):
        from repro.service import evaluations
        from repro.service.protocol import ProtocolError

        with pytest.raises(ProtocolError, match="'spec'"):
            evaluations.normalize_params(
                "model", {"benchmark": "gzip", "length": 2_000})

    def test_spec_params_normalize(self):
        from repro.service import evaluations

        spec = evaluations.flat_params_to_spec(
            "model", {"benchmark": "gzip", "length": 2_000})
        sent = evaluations.normalize_params("model", {"spec": spec.to_dict()})
        assert sent["spec"]["workload"]["benchmark"] == "gzip"


class TestSpecOnlyCacheKeys:
    def test_compat_probe_is_gone(self):
        from repro.runner import artifacts

        assert not hasattr(artifacts, "cached_artifact_compat")

    def test_trace_artifact_uses_canonical_key_only(self):
        from repro.runner import artifacts
        from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

        chunked = {"chunk_size": DEFAULT_CHUNK_SIZE}
        trace = artifacts.trace_artifact("gzip", 600, None)
        new_key = artifacts.artifact_key(
            "trace_chunks",
            WorkloadSpec("gzip", length=600).canonical() | chunked)
        found, stored = artifacts.probe_artifact("trace_chunks", new_key)
        assert found and sum(stored["sizes"]) == len(trace)

        # a legacy-shaped manifest is never probed: wipe the canonical one
        # and the trace is regenerated, not served from the old key
        legacy_key = artifacts.artifact_key(
            "trace_chunks",
            {"benchmark": "gzip", "length": 600, "seed": None} | chunked)
        artifacts.store_artifact("trace_chunks", legacy_key, "stale-payload")
        for path in (artifacts.cache_root() / "trace_chunks").rglob(
                f"{new_key}*"):
            path.unlink()
        artifacts.reset_cache_stats()
        again = artifacts.trace_artifact("gzip", 600, None)
        assert artifacts.cache_stats().misses.get("trace") == 1
        assert len(again) == len(trace)
