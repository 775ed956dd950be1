"""The ingest flow: identity, idempotence, serving, spec integration."""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest

from repro import ingest
from repro.isa.opclass import OpClass
from repro.runner import artifacts
from repro.spec import SpecError, WorkloadSpec
from repro.trace.synthetic import generate_trace


def write_csv_trace(path, trace):
    """Serialize a trace as the generic CSV format, losslessly."""
    names = {int(c): c.name.lower() for c in OpClass}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pc", "op", "dst", "src1", "src2", "addr", "taken",
                    "target"])
        for k in range(len(trace)):
            w.writerow([
                int(trace.pc[k]), names[int(trace.opclass[k])],
                int(trace.dst[k]), int(trace.src1[k]), int(trace.src2[k]),
                int(trace.addr[k]), int(trace.taken[k]),
                int(trace.target[k]),
            ])


@pytest.fixture(scope="module")
def foreign(tmp_path_factory):
    """A 5000-record foreign CSV (gzip statistics, non-default seed)."""
    trace = generate_trace("gzip", 5000, seed=777)
    path = tmp_path_factory.mktemp("foreign") / "foreign.csv"
    write_csv_trace(path, trace)
    return path, trace


class TestIngestFile:
    def test_round_trip_is_column_exact(self, foreign):
        path, trace = foreign
        result = ingest.ingest_file(path)
        assert result.length == len(trace)
        assert result.benchmark == f"ingest:{result.key}"
        served = artifacts.trace_artifact(result.benchmark, result.length)
        for col in ("pc", "opclass", "dst", "src1", "src2", "addr",
                    "taken", "target"):
            assert np.array_equal(getattr(served, col),
                                  getattr(trace, col)), col

    def test_reingest_is_a_warm_noop(self, foreign):
        path, _ = foreign
        first = ingest.ingest_file(path)
        again = ingest.ingest_file(path)
        assert again.reused
        assert again.key == first.key
        forced = ingest.ingest_file(path, force=True)
        assert not forced.reused
        assert forced.key == first.key

    def test_key_is_content_not_spelling(self, foreign, tmp_path):
        """Hex vs decimal fields, different filename — same workload."""
        path, trace = foreign
        other = tmp_path / "respelled.csv"
        names = {int(c): c.name.lower() for c in OpClass}
        with open(other, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pc", "op", "dst", "src1", "src2", "addr",
                        "taken", "target"])
            for k in range(len(trace)):
                w.writerow([
                    hex(int(trace.pc[k])), names[int(trace.opclass[k])],
                    int(trace.dst[k]), int(trace.src1[k]),
                    int(trace.src2[k]), hex(int(trace.addr[k])),
                    int(trace.taken[k]), hex(int(trace.target[k])),
                ])
        assert ingest.ingest_file(other).key == ingest.ingest_file(path).key

    def test_missing_file_unknown_format_empty_trace(self, tmp_path):
        with pytest.raises(ingest.IngestError, match="no such"):
            ingest.ingest_file(tmp_path / "absent.csv")
        path = tmp_path / "t.csv"
        path.write_text("op\nadd\n")
        with pytest.raises(ingest.IngestError, match="unknown trace format"):
            ingest.ingest_file(path, fmt="elf")
        empty = tmp_path / "empty.csv"
        empty.write_text("op\n")
        with pytest.raises(ingest.IngestError, match="no instruction"):
            ingest.ingest_file(empty)

    def test_kernel_space_trace_ingests_cleanly(self, tmp_path):
        """Addresses/pcs >= 2**63 ingest with a fold warning instead of
        an unhandled OverflowError."""
        path = tmp_path / "kernel.csv"
        path.write_text(
            "pc,op,addr\n"
            "0xffff800000000000,load,0xffff888000001000\n"
            "0x400004,add,0\n")
        result = ingest.ingest_file(path)
        assert result.length == 2
        assert any("outside int64" in w for w in result.warnings)
        served = artifacts.trace_artifact(result.benchmark, result.length)
        assert served.addr[0] == 0xFFFF_8880_0000_1000 - (1 << 64)

    def test_needs_the_artifact_cache(self, foreign, monkeypatch):
        path, _ = foreign
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        with pytest.raises(ingest.IngestError, match="artifact cache"):
            ingest.ingest_file(path)

    def test_manifest_carries_provenance(self, foreign):
        path, _ = foreign
        result = ingest.ingest_file(path)
        manifest = ingest.ingest_manifest(result.key)
        prov = manifest["provenance"]
        assert prov["format"] == "csv"
        assert prov["source"] == "foreign.csv"
        assert prov["records"] == result.length
        assert len(prov["source_sha256"]) == 64
        # a path reference resolves through the source index too
        assert ingest.ingest_manifest(str(path)) == manifest
        assert ingest.ingest_manifest("not-ingested.csv") is None

    def test_manifest_probe_never_ingests(self, tmp_path):
        """ingest_manifest is read-only: an un-ingested file answers
        None and publishes nothing (ingestion is ingest_file's job)."""
        path = tmp_path / "probe_only.csv"
        path.write_text("op\nadd\nld\n")
        before = ingest.ingest_manifest(str(path))
        assert before is None
        # still un-ingested: a real ingest afterwards is a cold run
        assert not ingest.ingest_file(path).reused


class TestIngestChunkStream:
    def test_serves_any_chunk_size_and_length(self, foreign):
        path, trace = foreign
        key = ingest.ingest_file(path).key
        stream = ingest.ingest_chunk_stream(key, length=3000,
                                            chunk_size=700)
        assert stream.num_chunks == 5
        got = stream.materialize()
        assert np.array_equal(got.pc, trace.pc[:3000])

    def test_oversize_length_clamps_to_the_record_count(self, foreign):
        path, trace = foreign
        key = ingest.ingest_file(path).key
        stream = ingest.ingest_chunk_stream(key, length=10_000)
        assert len(stream) == 5000
        assert np.array_equal(stream.materialize().pc, trace.pc)
        with pytest.raises(ingest.IngestError, match="positive"):
            ingest.ingest_chunk_stream(key, length=0)

    def test_unknown_key_says_ingest_first(self):
        with pytest.raises(ingest.IngestError, match="repro ingest"):
            ingest.ingest_chunk_stream("ab" * 32)


class TestWorkloadSpecIntegration:
    def test_path_spelling_normalizes_to_the_key(self, foreign):
        path, _ = foreign
        key = ingest.ingest_file(path).key
        workload = WorkloadSpec(f"ingest:{path}")
        assert workload.benchmark == f"ingest:{key}"
        assert workload.length == 30_000  # kept verbatim; serving clamps
        assert workload.resolved_seed() == 0
        assert workload.source() == ("ingest", key)

    def test_canonical_form_is_machine_independent(self, foreign):
        """Key-spelled workloads normalize identically with and without
        the trace data cached locally — no length clamp at construction,
        so cache/coalescing keys never split across machines."""
        path, _ = foreign
        key = ingest.ingest_file(path).key
        with_data = WorkloadSpec(f"ingest:{key}", 9_999)
        assert with_data.length == 9_999
        # a key this machine has never seen constructs the same way
        cold = WorkloadSpec("ingest:" + "ab" * 32, 9_999)
        assert cold.length == 9_999

    def test_seed_is_rejected(self, foreign):
        path, _ = foreign
        key = ingest.ingest_file(path).key
        with pytest.raises(SpecError, match="no RNG seed"):
            WorkloadSpec(f"ingest:{key}", 1000, seed=3)

    def test_streams_route_through_the_artifacts_layer(self, foreign):
        path, trace = foreign
        key = ingest.ingest_file(path).key
        stream = artifacts.trace_chunk_stream(f"ingest:{key}", 2000,
                                              chunk_size=512)
        assert len(stream) == 2000
        assert np.array_equal(stream.materialize().pc, trace.pc[:2000])
        manifest = artifacts.trace_chunk_manifest(f"ingest:{key}")
        assert manifest["length"] == 5000
        assert "provenance" in manifest

    def test_trace_artifact_serves_from_the_ingest_manifest(self, foreign):
        path, trace = foreign
        result = ingest.ingest_file(path)
        first = artifacts.trace_artifact(result.benchmark, result.length)
        artifacts._TRACES.clear()
        artifacts.reset_cache_stats()
        again = artifacts.trace_artifact(result.benchmark, result.length)
        assert again is not first
        for col in ("pc", "opclass", "dst", "src1", "src2", "addr",
                    "taken", "target"):
            assert np.array_equal(getattr(again, col),
                                  getattr(trace, col)), col
        assert artifacts.cache_stats().hits["trace"] == 1
        assert "trace" not in artifacts.cache_stats().misses
        # the layer serves the trace only while its ingest manifest exists
        stored = (artifacts.cache_root() / "ingest" / result.key[:2]
                  / f"{result.key}.pkl")
        saved = stored.read_bytes()
        stored.unlink()
        try:
            with pytest.raises(ingest.IngestError, match="repro ingest"):
                artifacts.trace_artifact(result.benchmark, result.length)
        finally:
            stored.write_bytes(saved)

    def test_corrupt_chunk_names_the_remedy(self, foreign, tmp_path):
        path, _ = foreign
        key = ingest.ingest_file(path).key
        manifest = ingest.ingest_manifest(key)
        payload = artifacts.chunk_payload_path(manifest["keys"][0])
        good = payload.read_bytes()
        try:
            payload.write_bytes(good[: len(good) // 2])
            from repro.trace.chunks import ChunkCorruptError

            with pytest.raises(ChunkCorruptError):
                ingest.ingest_chunk_stream(key).materialize()
        finally:
            payload.write_bytes(good)

    def test_cache_stores_only_chunks_and_manifest(self, foreign):
        path, _ = foreign
        result = ingest.ingest_file(path)
        # serving is mmap-backed: no whole-trace artifact is required
        root = artifacts.cache_root()
        assert (root / "chunks").exists()
        assert os.path.getsize(
            artifacts.chunk_payload_path(
                ingest.ingest_manifest(result.key)["keys"][0])) > 0
