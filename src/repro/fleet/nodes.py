"""Spawn and supervise worker-node processes for a local fleet.

A node is just ``repro serve --port 0 --node-id <id>`` with its own
``REPRO_CACHE_DIR`` — a full service process with scheduler, pool and a
*private* artifact cache, which is what makes cross-node peek and
replication observable (shared-cache nodes would trivially "hit").
``--port 0`` binds an ephemeral port; the spawner reads the actual
address back from the ready line, so N nodes never race for ports.

:class:`LocalFleet` composes the pieces into the harness the failover
tests drive: N spawned nodes behind an
in-process :class:`~repro.fleet.router.BackgroundRouter`, with a
``kill_node`` chaos switch (SIGKILL — the node gets no goodbye).
"""

from __future__ import annotations

import logging
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.spec.fleet import FleetSpec

_log = logging.getLogger(__name__)

#: the ready line ``repro serve`` prints once its socket is bound
READY_RE = re.compile(r"listening on (\S+?):(\d+)")


@dataclass
class NodeProc:
    """One spawned worker-node process."""

    node_id: str
    host: str
    port: int
    process: subprocess.Popen = field(repr=False)
    cache_dir: str

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL the node's whole process group — the machine-death
        the failover path handles.

        The group matters: the service's pool workers are forked
        children holding every inherited fd, including the *listening
        socket*.  Kill only the leader and the orphans keep the port
        open — connects still succeed and then hang, which turns a
        crisp connection-refused failover into a full request timeout.
        """
        try:
            if self.alive:
                _signal_group(self.process, signal.SIGKILL)
                self.process.wait(timeout=10)
        finally:
            self.process.stdout.close()  # the ready-line pipe

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful SIGINT (drain), escalating to a group SIGKILL."""
        try:
            if self.alive:
                self.process.send_signal(signal.SIGINT)
                self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        finally:
            self.process.stdout.close()


def _signal_group(process: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(process.pid, sig)  # own group: setsid at spawn
    except (ProcessLookupError, PermissionError):
        process.kill()


def _node_environment(cache_dir: str) -> dict:
    """The child environment: private cache, importable ``repro``."""
    import repro
    from repro.spec.env import process_environment

    env = process_environment()
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    src = str(Path(repro.__file__).parents[1])
    prior = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{prior}" if prior else src
    return env


def spawn_node(node_id: str, cache_dir: str, workers: int | None = 1,
               queue_limit: int = 64, host: str = "127.0.0.1",
               timeout: float = 60.0,
               extra_env: dict | None = None) -> NodeProc:
    """Start one ``repro serve --port 0`` node and wait for its address.

    The child gets a private ``REPRO_CACHE_DIR`` and prints its resolved
    ephemeral port on the ready line; this blocks (up to ``timeout``)
    until that line arrives, so the returned :class:`NodeProc` is
    immediately routable.
    """
    os.makedirs(cache_dir, exist_ok=True)
    env = _node_environment(cache_dir)
    if extra_env:
        env.update({k: str(v) for k, v in extra_env.items()})
    cmd = [sys.executable, "-m", "repro", "serve",
           "--host", host, "--port", "0", "--node-id", node_id,
           "--queue-limit", str(queue_limit)]
    if workers is not None:  # None = the serve default (CPU count)
        cmd += ["--workers", str(workers)]
    process = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True)  # own group, so kill() can take all of it
    try:
        match = _await_ready_line(process, node_id, timeout)
    except BaseException:
        _discard(process)
        raise
    node = NodeProc(node_id=node_id, host=match.group(1),
                    port=int(match.group(2)), process=process,
                    cache_dir=str(cache_dir))
    _log.info("node %s up at %s (pid %d)", node_id, node.address, node.pid)
    return node


def _await_ready_line(process: subprocess.Popen, node_id: str,
                      timeout: float) -> re.Match:
    """The ready line's match, read within ``timeout`` seconds.

    Waits on the pipe with a selector against the remaining time, so a
    child that stays alive without printing cannot hold the caller past
    the deadline.
    """
    deadline = time.monotonic() + timeout
    fd = process.stdout.fileno()
    pending = b""
    line = ""
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while (remaining := deadline - time.monotonic()) > 0:
            if not selector.select(remaining):
                continue
            chunk = os.read(fd, 4096)
            if not chunk:  # stdout closed: wait out the child's exit
                try:
                    code = process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    break
                raise RuntimeError(
                    f"node {node_id} exited with {code} before binding")
            *lines, pending = (pending + chunk).split(b"\n")
            for raw in lines:
                line = raw.decode(errors="replace")
                match = READY_RE.search(line)
                if match:
                    return match
    raise RuntimeError(
        f"node {node_id} did not print a ready line within {timeout}s "
        f"(last: {line!r})")


def _discard(process: subprocess.Popen) -> None:
    """Kill a child that never became a node (its whole group), reap it
    and close its pipe."""
    _signal_group(process, signal.SIGKILL)
    process.wait()
    process.stdout.close()


class LocalFleet:
    """N spawned nodes behind an in-process router (context manager).

    ::

        with LocalFleet(3, base_dir) as fleet:
            with ServiceClient(fleet.host, fleet.port) as client:
                client.simulate("gzip")
            fleet.kill_node(0)          # SIGKILL; router fails over

    Each node gets ``<base_dir>/cache-<id>`` as its private artifact
    cache.  Router spec knobs (replication, hash seed, peek) pass
    through to :class:`~repro.spec.fleet.FleetSpec`.
    """

    def __init__(self, count: int, base_dir: str, workers: int = 1,
                 queue_limit: int = 64, replication: int = 2,
                 hash_seed: int = 0, peek: bool = True,
                 health_interval_s: float = 0.5,
                 extra_env: dict | None = None):
        self.count = count
        self.base_dir = str(base_dir)
        self.workers = workers
        self.queue_limit = queue_limit
        self.replication = replication
        self.hash_seed = hash_seed
        self.peek = peek
        self.health_interval_s = health_interval_s
        self.extra_env = extra_env
        self.nodes: list[NodeProc] = []
        self.spec: FleetSpec | None = None
        self._router = None

    @property
    def host(self) -> str:
        return self._router.host

    @property
    def port(self) -> int:
        return self._router.port

    @property
    def router(self):
        return self._router.router

    def __enter__(self) -> "LocalFleet":
        from repro.fleet.router import BackgroundRouter

        try:
            for i in range(self.count):
                node_id = f"n{i + 1}"
                cache_dir = os.path.join(self.base_dir, f"cache-{node_id}")
                self.nodes.append(spawn_node(
                    node_id, cache_dir, workers=self.workers,
                    queue_limit=self.queue_limit,
                    extra_env=self.extra_env))
            self.spec = FleetSpec(
                nodes=tuple(node.address for node in self.nodes),
                replication=self.replication, hash_seed=self.hash_seed,
                peek=self.peek,
                health_interval_s=self.health_interval_s)
            self._router = BackgroundRouter(self.spec)
            self._router.__enter__()
        except BaseException:
            self._teardown()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._teardown()

    def _teardown(self) -> None:
        if self._router is not None:
            try:
                self._router.__exit__(None, None, None)
            finally:
                self._router = None
        for node in self.nodes:
            try:
                node.stop()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                node.process.kill()
        self.nodes.clear()

    def kill_node(self, index: int) -> NodeProc:
        """SIGKILL node ``index``; returns it (the router finds out the
        hard way — mid-request resets and failed health probes)."""
        node = self.nodes[index]
        node.kill()
        return node


__all__ = ["LocalFleet", "NodeProc", "READY_RE", "spawn_node"]
