"""Event-trace schema: JSONL round-trips, Chrome validity, sampling."""

import json

import pytest

from repro.telemetry.events import EventTrace, merge_traces, read_jsonl


def populated_trace(**kwargs) -> EventTrace:
    trace = EventTrace(**kwargs)
    trace.emit("icache_miss_l1", "frontend", 10, dur=4, index=3)
    trace.emit("dcache_long_miss", "memory", 12, dur=200, index=5)
    trace.emit("pipeline_flush", "frontend", 30, index=9)
    trace.emit("dispatch_stall", "stall", 31, dur=6, cause="branch")
    return trace


class TestEmission:
    def test_span_vs_instant_phase(self):
        trace = populated_trace()
        phases = {e["name"]: e["ph"] for e in trace.events}
        assert phases["dcache_long_miss"] == "X"
        assert phases["pipeline_flush"] == "i"

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError, match="unknown category"):
            EventTrace().emit("x", "nonsense", 0)

    def test_limit_caps_storage_but_counts_everything(self):
        trace = EventTrace(limit=2)
        for i in range(5):
            trace.emit("e", "stall", i)
        assert len(trace) == 2
        assert trace.emitted == 5
        assert trace.dropped == 3

    def test_sorted_events_orders_by_timestamp(self):
        trace = EventTrace()
        trace.emit("late", "stall", 100)
        trace.emit("early", "stall", 1)
        assert [e["name"] for e in trace.sorted_events()] == [
            "early", "late"
        ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        trace = populated_trace()
        path = trace.write_jsonl(tmp_path / "events.jsonl")
        loaded = read_jsonl(path)
        assert loaded == trace.sorted_events()

    def test_one_json_object_per_line(self, tmp_path):
        trace = populated_trace()
        path = trace.write_jsonl(tmp_path / "events.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(trace)
        for line in lines:
            record = json.loads(line)
            assert {"name", "cat", "ph", "ts"} <= set(record)

    def test_empty_trace_writes_empty_file(self, tmp_path):
        path = EventTrace().write_jsonl(tmp_path / "empty.jsonl")
        assert path.read_text() == ""


class TestChrome:
    def test_document_is_valid_json_with_required_keys(self, tmp_path):
        trace = populated_trace()
        path = trace.write_chrome(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        assert doc["otherData"]["emitted"] == trace.emitted

    def test_metadata_names_every_category_lane(self):
        doc = populated_trace().to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"frontend", "backend", "memory", "stall"} <= names

    def test_span_events_carry_dur_and_instants_a_scope(self):
        doc = populated_trace().to_chrome()
        data = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        for e in data:
            if e["ph"] == "X":
                assert e["dur"] >= 0
            else:
                assert e["s"] == "t"
            assert isinstance(e["tid"], int)


class TestSampling:
    def test_sampling_is_deterministic_under_fixed_seed(self):
        def emit_all(trace):
            for i in range(500):
                trace.emit("e", "stall", i, dur=1, n=i)
            return trace

        a = emit_all(EventTrace(sample_rate=0.3, seed=42))
        b = emit_all(EventTrace(sample_rate=0.3, seed=42))
        assert a.events == b.events
        assert a.dropped == b.dropped
        assert 0 < len(a) < 500

    def test_different_seed_keeps_a_different_subset(self):
        def emit_all(trace):
            for i in range(500):
                trace.emit("e", "stall", i)
            return trace

        a = emit_all(EventTrace(sample_rate=0.3, seed=1))
        b = emit_all(EventTrace(sample_rate=0.3, seed=2))
        assert a.events != b.events

    def test_rate_one_keeps_everything(self):
        trace = EventTrace(sample_rate=1.0)
        for i in range(100):
            trace.emit("e", "memory", i)
        assert len(trace) == 100 and trace.dropped == 0

    def test_invalid_rate_rejected(self):
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                EventTrace(sample_rate=rate)


class TestMerge:
    def test_merge_sorts_and_sums_counters(self):
        a = EventTrace()
        a.emit("a", "stall", 50)
        b = EventTrace(sample_rate=0.5, seed=0)
        for i in range(20):
            b.emit("b", "memory", i)
        merged = merge_traces([a, b])
        assert merged.emitted == a.emitted + b.emitted
        assert merged.dropped == a.dropped + b.dropped
        ts = [e["ts"] for e in merged.events]
        assert ts == sorted(ts)


class TestMultiProcessLanes:
    """Span events from several OS processes keep their pid lanes."""

    def two_pid_traces(self):
        main = EventTrace()
        main.process_names[100] = "repro main (pid 100)"
        main.time_unit = "1 ts = 1 us wall-clock"
        main.emit("profile", "span", 0, dur=50, pid=100, span_id="r")
        worker = EventTrace()
        worker.process_names[200] = "repro worker (pid 200)"
        worker.emit("runner.unit", "span", 10, dur=20, pid=200,
                    span_id="u", parent_id="r")
        return main, worker

    def test_merge_preserves_pids_and_process_names(self):
        main, worker = self.two_pid_traces()
        merged = merge_traces([main, worker])
        assert {e["pid"] for e in merged.events} == {100, 200}
        assert merged.process_names == {
            100: "repro main (pid 100)",
            200: "repro worker (pid 200)",
        }
        assert merged.time_unit == "1 ts = 1 us wall-clock"

    def test_chrome_document_has_a_lane_per_process(self):
        merged = merge_traces(self.two_pid_traces())
        doc = merged.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        assert names[100] == "repro main (pid 100)"
        assert names[200] == "repro worker (pid 200)"
        span_lanes = [e for e in meta if e["name"] == "thread_name"
                      and e["args"]["name"] == "span"]
        assert {e["pid"] for e in span_lanes} >= {100, 200}

    def test_chrome_events_stay_in_their_process(self):
        merged = merge_traces(self.two_pid_traces())
        events = [e for e in merged.to_chrome()["traceEvents"]
                  if e["ph"] == "X"]
        by_name = {e["name"]: e for e in events}
        assert by_name["profile"]["pid"] == 100
        assert by_name["runner.unit"]["pid"] == 200
        assert by_name["runner.unit"]["args"]["parent_id"] == "r"

    def test_jsonl_round_trip_keeps_the_pid(self, tmp_path):
        main, worker = self.two_pid_traces()
        merged = merge_traces([main, worker])
        loaded = read_jsonl(merged.write_jsonl(tmp_path / "t.jsonl"))
        assert [e["pid"] for e in loaded] == [100, 200]
        assert loaded == merged.sorted_events()
