"""Node spawning: the ready-line wait keeps its deadline."""

from __future__ import annotations

import sys
import time

import pytest

from repro.fleet import nodes

#: a stand-in for the interpreter that never prints a ready line: its
#: shell records its own pid and that of a sleeping child, then waits
SILENT_CHILD = """#!/bin/sh
sleep 30 &
echo $$ $! > "$0.pids"
wait
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


class TestSpawnNode:
    def test_silent_child_times_out_and_leaves_nothing(self, tmp_path,
                                                       monkeypatch):
        script = tmp_path / "silent"
        script.write_text(SILENT_CHILD)
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="did not print a ready line"):
            nodes.spawn_node("mute", str(tmp_path / "cache"), timeout=0.5)
        assert time.monotonic() - start < 3.0
        pids = [int(p) for p in (tmp_path / "silent.pids").read_text().split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 2.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))

    def test_child_that_exits_early_is_reported(self, tmp_path, monkeypatch):
        script = tmp_path / "quits"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        with pytest.raises(RuntimeError, match="exited with 3"):
            nodes.spawn_node("quits", str(tmp_path / "cache"), timeout=10.0)
