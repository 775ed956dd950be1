"""Tests for the command-line interface."""

import argparse
import re

import pytest

import repro.cli
from repro.cli import build_parser, main


def registered_commands() -> set:
    """The subcommand names :func:`build_parser` registers."""
    return {name for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in action.choices}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["--version"])
        assert err.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2",
             "--queue-limit", "5"])
        assert args.port == 0 and args.workers == 2
        assert args.queue_limit == 5

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "simulate", "gzip", "--length", "2000", "--json"])
        assert args.op == "simulate" and args.target == ["gzip"]
        assert args.json

    def test_submit_rejects_unknown_op(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "obliterate"])

    def test_model_args(self):
        args = build_parser().parse_args(["model", "gzip",
                                          "--length", "500"])
        assert args.benchmark == "gzip" and args.length == 500

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "spec2017"])

    def test_profile_args(self):
        args = build_parser().parse_args(
            ["profile", "gzip", "--length", "2000", "--stream",
             "--chunk-size", "4096", "--jsonl", "spans.jsonl",
             "--chrome", "trace.json"])
        assert args.benchmark == "gzip" and args.stream
        assert args.chunk_size == 4096
        assert args.jsonl == "spans.jsonl" and args.chrome == "trace.json"

    def test_timeline_stream_args(self):
        args = build_parser().parse_args(
            ["timeline", "gzip", "--stream", "--chunk-size", "8192",
             "--max-rows", "32"])
        assert args.stream and args.chunk_size == 8192
        assert args.max_rows == 32

    def test_docstring_lists_exactly_the_registered_commands(self):
        documented = set(re.findall(r"^\* ``([\w-]+)", repro.cli.__doc__,
                                    re.MULTILINE))
        assert documented == registered_commands()

    def test_serve_slow_request_arg(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--slow-request", "1.5"])
        assert args.slow_request == 1.5


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "fig15_overall" in out

    def test_model(self, capsys):
        assert main(["model", "gzip", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "model CPI" in out and "CPI stack" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "vpr", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "mispredictions" in out

    def test_simulate_stream_matches_in_memory(self, capsys):
        assert main(["simulate", "vpr", "--length", "3000"]) == 0
        ref = capsys.readouterr().out
        assert main(["simulate", "vpr", "--length", "3000",
                     "--stream", "--chunk-size", "700"]) == 0
        assert capsys.readouterr().out == ref

    def test_trace_info(self, capsys):
        assert main(["trace-info", "gzip", "--length", "3000",
                     "--chunk-size", "1024"]) == 0
        out = capsys.readouterr().out
        assert "3000 instructions" in out and "chunk size 1024" in out
        assert "content key" in out and "mix:" in out

    def test_compare_subset(self, capsys):
        assert main(["compare", "gzip", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "mean |error|" in out

    def test_iw(self, capsys):
        assert main(["iw", "vortex", "--length", "3000"]) == 0
        out = capsys.readouterr().out
        assert "W^" in out and "measured" in out

    def test_transient(self, capsys):
        assert main(["transient", "--width", "4", "--depth", "5"]) == 0
        out = capsys.readouterr().out
        assert "drain" in out and "ramp" in out

    def test_experiment_fig08(self, capsys):
        assert main(["experiment", "fig08"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_experiment_by_full_name(self, capsys):
        assert main(["experiment", "fig19_ramp"]) == 0

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_timeline(self, capsys):
        assert main(["timeline", "gzip", "--length", "3000",
                     "--interval", "250"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "measured CPI" in out
        assert "IPC" in out

    def test_timeline_stream_bounds_rows(self, capsys):
        assert main(["timeline", "gzip", "--length", "40000",
                     "--stream", "--chunk-size", "16384",
                     "--max-rows", "8"]) == 0
        out = capsys.readouterr().out
        rows_line = next(line for line in out.splitlines()
                         if line.startswith("timeline rows:"))
        assert int(rows_line.split(":")[1]) <= 8

    def test_profile(self, capsys, tmp_path):
        from repro.obs import spans as _spans

        jsonl = tmp_path / "spans.jsonl"
        try:
            assert main(["profile", "gzip", "--length", "2000",
                         "--jsonl", str(jsonl)]) == 0
        finally:
            # ``repro profile`` enables process-global collection and
            # relies on process exit to drop it; tests must not
            _spans.enable(False)
            _spans.reset()
        out = capsys.readouterr().out
        assert "critical path" in out and "stage" in out
        assert jsonl.is_file() and jsonl.stat().st_size > 0

    def test_stats(self, capsys):
        assert main(["stats", "gzip", "--length", "3000", "-j", "1"]) == 0
        out = capsys.readouterr().out
        assert "runner.units" in out and "cache" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "gzip", "--length", "3000", "-j", "1",
                     "--json"]) == 0
        import json

        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["runner.units"]["type"] == "counter"

    @pytest.mark.parametrize(
        "engine_args", [[], ["--stream", "--chunk-size", "1000"]],
        ids=["in-memory", "stream"])
    def test_simulate_prints_measured_stack_with_telemetry(
            self, capsys, monkeypatch, engine_args):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert main(["simulate", "gzip", "--length", "3000",
                     *engine_args]) == 0
        out = capsys.readouterr().out
        assert "measured CPI" in out and "Base (dispatching)" in out


class TestSubmit:
    """``repro submit`` against a live background service."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)

    @pytest.fixture
    def service(self):
        from repro.service import BackgroundServer, SchedulerConfig

        with BackgroundServer(config=SchedulerConfig(workers=1)) as bg:
            yield bg

    def test_submit_ping(self, service, capsys):
        assert main(["submit", "ping", "--port", str(service.port)]) == 0
        assert "pong" in capsys.readouterr().out

    def test_submit_model(self, service, capsys):
        assert main(["submit", "model", "gzip", "--length", "2000",
                     "--port", str(service.port)]) == 0
        assert "CPI" in capsys.readouterr().out

    def test_submit_json_response(self, service, capsys):
        import json

        assert main(["submit", "simulate", "gzip", "--length", "2000",
                     "--port", str(service.port), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["result"]["cycles"] > 0

    def test_submit_model_needs_benchmark(self, service, capsys):
        assert main(["submit", "model",
                     "--port", str(service.port)]) == 2

    def test_submit_unreachable_service(self, capsys):
        assert main(["submit", "ping", "--port", "1",
                     "--timeout", "2"]) == 3
        assert "cannot reach" in capsys.readouterr().err


class TestLogging:
    def test_log_level_flag_accepted(self, capsys):
        assert main(["--log-level", "info", "list"]) == 0

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "list"]) == 0
