"""One spec, three consumers, one key.

The tentpole guarantee of the spec layer: the same ``RunSpec`` driven
through the in-process executor, the parallel runner and the evaluation
service produces bit-identical results, and all three meet in the
artifact cache under the single ``RunSpec.content_key()``.
"""

from __future__ import annotations

import pytest

from repro.spec import RunSpec, WorkloadSpec

LENGTH = 4_000


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    from repro.runner.artifacts import reset_cache_stats

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    reset_cache_stats()
    yield
    reset_cache_stats()


def test_one_spec_three_consumers_one_key():
    from repro.runner import artifacts, execute_spec, run_units
    from repro.service import BackgroundServer, SchedulerConfig
    from repro.service.client import ServiceClient

    spec = RunSpec(workload=WorkloadSpec("gzip", length=LENGTH))
    key = spec.content_key()

    # consumer 1: in-process execution publishes under the content key
    direct = execute_spec(spec, reuse_result=True)
    found, cached = artifacts.probe_artifact("result", key)
    assert found, "execute_spec must publish under RunSpec.content_key()"
    assert cached.cycles == direct.cycles

    # consumer 2: the parallel runner reuses the very same artifact
    (unit_result,), _ = run_units([spec], jobs=1, reuse_results=True)
    assert unit_result.result.cycles == direct.cycles
    assert unit_result.result.cpi == direct.cpi  # bit-identical

    # consumer 3: the service, fed the spec payload verbatim
    with BackgroundServer(config=SchedulerConfig(workers=1)) as bg:
        with ServiceClient(bg.host, bg.port) as client:
            served = client.evaluate("simulate",
                                     {"spec": spec.to_dict()})
    assert served["cycles"] == direct.cycles
    assert served["cpi"] == direct.cpi  # bit-identical across the wire

    # and all of it still lives under the one content key
    found, final = artifacts.probe_artifact("result", key)
    assert found and final.cycles == direct.cycles


def test_engines_share_the_spec_and_the_result():
    import dataclasses

    from repro.runner import execute_spec
    from repro.spec import EngineSpec

    spec = RunSpec(workload=WorkloadSpec("vpr", length=LENGTH))
    streamed_spec = dataclasses.replace(
        spec, engine=EngineSpec(stream=True, chunk_size=333))
    in_memory = execute_spec(spec)
    streamed = execute_spec(streamed_spec)
    assert in_memory.cycles == streamed.cycles
    assert in_memory.cpi == streamed.cpi
    # the paths agree, which is why the streaming knobs stay out of the key
    assert spec.content_key() == streamed_spec.content_key()


def test_service_spec_variants_coalesce_to_one_key():
    from repro.service import evaluations

    spec = RunSpec(workload=WorkloadSpec("gzip", length=LENGTH))
    partial = {"workload": {"benchmark": "gzip", "length": LENGTH}}
    sent = evaluations.normalize_params("simulate", {"spec": spec.to_dict()})
    sent_partial = evaluations.normalize_params("simulate", {"spec": partial})
    # a partial spec and the same spec with defaults spelled out are the
    # same request — and the only accepted form is {"spec": ...}
    assert (evaluations.request_key("simulate", sent)
            == evaluations.request_key("simulate", sent_partial))
    with pytest.raises(Exception):
        evaluations.normalize_params(
            "simulate", {"benchmark": "gzip", "length": LENGTH})
