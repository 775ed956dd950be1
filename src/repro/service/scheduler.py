"""Admission, batching, coalescing and fault handling for the service.

The scheduler sits between the asyncio front door and the process-pool
workers and gives every request one of four fates, checked in order:

1. **cache** — the persistent artifact cache already holds the response
   for this content-address; serve it without touching the pool.
2. **inflight** — an identical request is already queued or running;
   attach to its future (singleflight — N identical concurrent
   requests cost exactly one computation).
3. **overloaded** — the bounded admission queue is full; fail fast with
   an explicit error instead of building an invisible backlog.
4. **computed** — enqueue, micro-batch with same-op neighbours, run on
   a pool worker.

Dispatch pulls one request, then lingers ``batch_window_s`` for same-op
companions (up to ``batch_max``) so bursts amortize pickling and pool
round-trips without adding latency to a quiet service.  A crashed
worker (``BrokenProcessPool``) takes its whole pool down; the scheduler
rebuilds the pool and retries the batch with exponential backoff up to
``retries`` times.  Per-request deadlines are enforced at the await
site — an expired request gets a ``timeout`` error while the
computation still completes and warms the cache for the retry.

Everything observable lands in the process
:func:`~repro.telemetry.metrics.metrics_registry` under ``service.*``:
queue depth, batch sizes, latency, and counters for each fate.
"""

from __future__ import annotations

import asyncio
import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.obs import spans as _spans
from repro.service import evaluations
from repro.service.protocol import ErrorCode, ProtocolError
from repro.telemetry.metrics import metrics_registry

_log = logging.getLogger(__name__)


class Overloaded(Exception):
    """The admission queue is full; the caller should shed the request."""

    code = ErrorCode.OVERLOADED


class EvalTimeout(Exception):
    """The per-request deadline expired before a worker answered."""

    code = ErrorCode.TIMEOUT


class EvalFailed(Exception):
    """The evaluation itself failed; ``code`` says how."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class SchedulerConfig:
    """Operational knobs (see docs/SERVICE.md for guidance).

    Attributes:
        workers: pool processes (``None`` = CPU count).
        queue_limit: admission bound — queued-but-undispatched requests
            beyond this are refused with ``overloaded``.
        batch_max: most requests per pool submission.
        batch_window_s: how long dispatch lingers for batch companions.
        request_timeout_s: default per-request deadline.
        retries: attempts after a worker crash (0 = fail immediately).
        retry_backoff_s: first backoff; doubles per attempt.
        slow_request_s: computed requests slower than this (queue wait
            plus compute) are logged at WARNING with their latency
            breakdown; ``None`` disables the slow-request log.
    """

    workers: int | None = None
    queue_limit: int = 64
    batch_max: int = 8
    batch_window_s: float = 0.002
    request_timeout_s: float = 120.0
    retries: int = 2
    retry_backoff_s: float = 0.05
    slow_request_s: float | None = None


@dataclass
class _Entry:
    op: str
    params: dict
    key: str | None
    future: asyncio.Future
    attempts: int = 0
    #: serialized span context captured at submit; pool workers re-root
    #: their spans under it (runtime-only, never part of the cache key)
    obs: dict | None = None
    #: loop time the entry entered the queue (slow-request accounting)
    enqueued: float = 0.0


class Scheduler:
    """Async request scheduler over a :class:`ProcessPoolExecutor`."""

    def __init__(self, config: SchedulerConfig | None = None):
        self.config = config or SchedulerConfig()
        self._queue: asyncio.Queue[_Entry] = asyncio.Queue()
        self._inflight: dict[str, asyncio.Future] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._draining = False
        self._pending = 0  # queued or running entries (admission gauge)
        self._metrics = metrics_registry()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Create the worker pool and the dispatch task."""
        self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-service-dispatch")
        _log.info("scheduler started (%s workers, queue limit %d)",
                  self.config.workers or "auto", self.config.queue_limit)

    async def drain(self, timeout: float | None = 30.0) -> None:
        """Stop accepting work, wait for in-flight requests, shut down."""
        self._draining = True
        waiters = [f for f in self._inflight.values() if not f.done()]
        if waiters:
            _log.info("draining %d in-flight request(s)", len(waiters))
            await asyncio.wait(waiters, timeout=timeout)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    @property
    def draining(self) -> bool:
        return self._draining

    # -- the front door ------------------------------------------------

    async def submit(self, op: str, params: dict,
                     timeout: float | None = None) -> tuple[dict, dict]:
        """Evaluate one request; returns ``(payload, meta)``.

        Raises :class:`ProtocolError` (bad request), :class:`Overloaded`,
        :class:`EvalTimeout` or :class:`EvalFailed`.
        """
        if self._draining:
            raise EvalFailed(ErrorCode.SHUTTING_DOWN, "server is draining")
        loop = asyncio.get_running_loop()
        start = loop.time()
        self._metrics.counter("service.requests").inc()
        self._metrics.counter(f"service.requests.{op}").inc()
        normalized = evaluations.normalize_params(op, params)
        key = evaluations.request_key(op, normalized)

        meta = {"attempts": 0}
        if key is not None:
            served = self._serve_from_cache(key)
            if served is not None:
                self._finish(start, meta, "cache")
                return served, meta
            shared = self._inflight.get(key)
            if shared is not None:
                self._metrics.counter("service.dedup_inflight").inc()
                payload = await self._await_entry(shared, timeout)
                self._finish(start, meta, "inflight")
                return payload, meta

        if self._pending >= self.config.queue_limit:
            self._metrics.counter("service.overloaded").inc()
            raise Overloaded(
                f"admission queue is full ({self.config.queue_limit} "
                "requests); retry later"
            )
        entry = _Entry(op=op, params=normalized, key=key,
                       future=loop.create_future(),
                       obs=_spans.current_context(), enqueued=start)
        self._pending += 1
        self._metrics.gauge("service.queue_depth").set(self._pending)
        if key is not None:
            self._inflight[key] = entry.future
        self._queue.put_nowait(entry)
        try:
            payload = await self._await_entry(entry.future, timeout)
        finally:
            meta["attempts"] = entry.attempts
        self._finish(start, meta, "computed")
        return payload, meta

    def _serve_from_cache(self, key: str) -> dict | None:
        from repro.runner import artifacts

        found, payload = artifacts.probe_artifact("response", key)
        if not found:
            return None
        self._metrics.counter("service.cache_served").inc()
        return payload

    async def _await_entry(self, future: asyncio.Future,
                           timeout: float | None) -> dict:
        deadline = timeout or self.config.request_timeout_s
        try:
            # shield: a timed-out waiter must not cancel the shared
            # future other coalesced waiters are attached to
            return await asyncio.wait_for(asyncio.shield(future), deadline)
        except asyncio.TimeoutError:
            self._metrics.counter("service.timeouts").inc()
            raise EvalTimeout(
                f"no result within {deadline:.1f}s (the computation "
                "continues and will warm the cache)"
            ) from None

    def _finish(self, start: float, meta: dict, served_from: str) -> None:
        elapsed = asyncio.get_running_loop().time() - start
        meta["served_from"] = served_from
        meta["seconds"] = round(elapsed, 6)
        self._metrics.counter(f"service.served.{served_from}").inc()
        self._metrics.histogram("service.latency_seconds").observe(elapsed)

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            entry = await self._queue.get()
            batch = [entry]
            deadline = (asyncio.get_running_loop().time()
                        + self.config.batch_window_s)
            stash: list[_Entry] = []
            while len(batch) < self.config.batch_max:
                linger = deadline - asyncio.get_running_loop().time()
                if linger <= 0:
                    break
                try:
                    nxt = await asyncio.wait_for(self._queue.get(), linger)
                except asyncio.TimeoutError:
                    break
                if nxt.op == entry.op:
                    batch.append(nxt)
                else:  # incompatible: runs in the next batch
                    stash.append(nxt)
            for item in stash:
                self._queue.put_nowait(item)
            self._metrics.histogram("service.batch_size").observe(len(batch))
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Entry]) -> None:
        items = [(e.op, e.params, e.key, e.obs) for e in batch]
        started = asyncio.get_running_loop().time()
        backoff = self.config.retry_backoff_s
        outcomes = None
        for attempt in range(self.config.retries + 1):
            for e in batch:
                e.attempts += 1
            try:
                assert self._pool is not None
                outcomes = await asyncio.wrap_future(
                    self._pool.submit(evaluations.run_batch, items))
                break
            except BrokenProcessPool:
                self._metrics.counter("service.worker_restarts").inc()
                _log.warning(
                    "worker pool died running a %d-request batch "
                    "(attempt %d/%d); rebuilding",
                    len(batch), attempt + 1, self.config.retries + 1)
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.config.workers)
                if attempt < self.config.retries:
                    self._metrics.counter("service.retries").inc()
                    await asyncio.sleep(backoff)
                    backoff *= 2
        finished = asyncio.get_running_loop().time()
        for entry, outcome in zip(
                batch,
                outcomes if outcomes is not None else [None] * len(batch)):
            self._pending -= 1
            if entry.key is not None:
                self._inflight.pop(entry.key, None)
            if outcome is not None:
                # spans the worker collected while re-rooted under this
                # entry's trace context come home with the outcome
                _spans.add_spans(outcome.pop("spans", None) or [])
            self._log_if_slow(entry, started, finished)
            if entry.future.done():  # e.g. loop shutdown cancelled it
                continue
            if outcome is None:
                self._metrics.counter("service.failures").inc()
                entry.future.set_exception(EvalFailed(
                    ErrorCode.INTERNAL,
                    f"worker crashed {self.config.retries + 1} times "
                    "running this request",
                ))
            elif outcome["ok"]:
                entry.future.set_result(outcome["result"])
            else:
                self._metrics.counter("service.failures").inc()
                entry.future.set_exception(
                    EvalFailed(outcome["code"], outcome["message"]))
        self._metrics.gauge("service.queue_depth").set(self._pending)

    def _log_if_slow(self, entry: _Entry, started: float,
                     finished: float) -> None:
        """Surface computed requests that blew the latency budget."""
        threshold = self.config.slow_request_s
        if threshold is None:
            return
        total = finished - entry.enqueued
        if total < threshold:
            return
        self._metrics.counter("service.slow_requests").inc()
        _log.warning(
            "slow request: op=%s key=%s total=%.3fs "
            "(queue_wait=%.3fs compute=%.3fs, threshold %.3fs)",
            entry.op, entry.key or "-", total,
            max(0.0, started - entry.enqueued), finished - started,
            threshold)


__all__ = [
    "EvalFailed",
    "EvalTimeout",
    "Overloaded",
    "ProtocolError",
    "Scheduler",
    "SchedulerConfig",
]
