"""Persistent content-addressed cache for expensive experiment artifacts.

Traces, miss-event annotations and simulation results are all pure
functions of a small recipe (benchmark profile, trace length, RNG seed,
machine configuration).  This module stores them on disk under a key that
hashes the *complete* recipe, so

* repeated experiment invocations — and every worker of the parallel
  runner — reuse earlier work instead of regenerating it, and
* a changed configuration can never be served a stale artifact: any
  change to the recipe changes the key.

Layout and integrity
--------------------
Artifacts live under ``<root>/<kind>/<key[:2]>/<key>.pkl`` where ``root``
defaults to ``$XDG_CACHE_HOME/repro-firstorder`` (or
``~/.cache/repro-firstorder``).  Traces are the exception: they are not
pickled, and their one disk form is the chunk store, content-addressed
``<root>/chunks/<key[:2]>/<key>.rtc`` payloads plus a pickled
``trace_chunks`` manifest per workload.  Writes go to a temporary file
in the same directory and are published with :func:`os.replace`, so
readers never observe a partial artifact.  A corrupt or unreadable
entry is treated as a miss and recomputed (then overwritten); the cache
is purely an accelerator and can be deleted at any time.

Environment
-----------
``REPRO_CACHE_DIR``
    overrides the cache root (the test suite points this at a tmpdir).
``REPRO_CACHE_DISABLE``
    any non-empty value bypasses the cache entirely.

Both are read at call time, not import time, through the
:mod:`repro.spec.env` registry.

Keys embed a schema version: bump :data:`SCHEMA_VERSION` whenever the
pickled payload layout changes and old entries simply stop matching.

Key discipline
--------------
Recipe seeds are *resolved* before keying (``seed=None`` hashes as the
benchmark profile's default seed, via
:class:`repro.spec.WorkloadSpec`), so the two spellings of the default
share one entry.

The in-process trace layer
--------------------------
:func:`trace_artifact` fronts the disk store with one in-process layer
(:class:`TraceLayer`), so every caller in a process gets the *same*
:class:`~repro.trace.trace.Trace` object for the same workload — and
with it the same :meth:`~repro.trace.trace.Trace.memo` (dependences, IW
curve, functional profile).  The layer never outlives the store: it
serves an entry only while that trace's chunk manifest still exists
under the current cache root (or while the cache is disabled, or when
the store could not write it), and it empties itself when the cache
root changes.
It is bounded by the instructions it holds, not by an entry count.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import spans as _spans
from repro.spec import env as _env

_log = logging.getLogger(__name__)

#: bump when the pickled layout of any artifact kind changes; old cache
#: entries become unreachable rather than unreadable
SCHEMA_VERSION = 1

#: pickle protocol for stored artifacts (5 handles numpy buffers well)
_PICKLE_PROTOCOL = 5


class UncacheableError(TypeError):
    """A recipe contains a value with no stable canonical form (e.g. a
    closure); the computation must run uncached."""


def cache_enabled() -> bool:
    """Whether the on-disk cache is active (``REPRO_CACHE_DISABLE``)."""
    return not _env.cache_disabled()


def cache_root() -> Path:
    """Resolve the cache directory (``REPRO_CACHE_DIR`` wins)."""
    return _env.cache_dir()


# -- canonical recipe form --------------------------------------------------


def canonicalize(value):
    """Reduce ``value`` to plain JSON-serializable data, deterministically.

    Recipes are plain data — specs enter as their ``to_dict()`` /
    ``canonical()`` form — so anything else (a dataclass, a callable)
    raises :class:`UncacheableError`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    raise UncacheableError(
        f"cannot derive a stable cache key for {type(value).__name__!r}"
    )


def artifact_key(kind: str, recipe: dict) -> str:
    """Content hash of ``(schema, kind, recipe)`` — the artifact's name."""
    payload = json.dumps(
        [SCHEMA_VERSION, kind, canonicalize(recipe)],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# -- hit/miss accounting ----------------------------------------------------


@dataclass
class CacheStats:
    """Per-process cache effectiveness counters, by artifact kind."""

    hits: dict = field(default_factory=dict)
    misses: dict = field(default_factory=dict)
    stores: dict = field(default_factory=dict)
    errors: int = 0        #: unreadable entries treated as misses
    uncacheable: int = 0   #: recipes that could not be keyed

    def _bump(self, counter: dict, kind: str) -> None:
        counter[kind] = counter.get(kind, 0) + 1

    def total_hits(self) -> int:
        return sum(self.hits.values())

    def total_misses(self) -> int:
        return sum(self.misses.values())

    def merge(self, other: "CacheStats") -> None:
        for mine, theirs in (
            (self.hits, other.hits),
            (self.misses, other.misses),
            (self.stores, other.stores),
        ):
            for kind, count in theirs.items():
                mine[kind] = mine.get(kind, 0) + count
        self.errors += other.errors
        self.uncacheable += other.uncacheable

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=dict(self.hits), misses=dict(self.misses),
            stores=dict(self.stores), errors=self.errors,
            uncacheable=self.uncacheable,
        )


_STATS = CacheStats()


def cache_stats() -> CacheStats:
    """This process's cumulative cache counters (live object)."""
    return _STATS


def reset_cache_stats() -> CacheStats:
    """Zero the counters; returns the stats object for convenience."""
    _STATS.hits.clear()
    _STATS.misses.clear()
    _STATS.stores.clear()
    _STATS.errors = 0
    _STATS.uncacheable = 0
    return _STATS


# -- storage ----------------------------------------------------------------


def _artifact_path(kind: str, key: str) -> Path:
    return cache_root() / kind / key[:2] / f"{key}.pkl"


_MISS = object()


def _load(kind: str, key: str):
    path = _artifact_path(kind, key)
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return _MISS
    except Exception as exc:
        # truncated/corrupt/incompatible entry: recompute and overwrite
        _log.warning("unreadable cache entry %s (%s); recomputing", path, exc)
        _STATS.errors += 1
        return _MISS


def _store(kind: str, key: str, obj) -> None:
    path = _artifact_path(kind, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(obj, fh, protocol=_PICKLE_PROTOCOL)
            os.replace(tmp, path)  # atomic publish
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # a read-only or full cache never fails the computation
        _log.warning("could not store %s artifact %s: %s", kind, key, exc)
        _STATS.errors += 1
        return
    _STATS._bump(_STATS.stores, kind)
    _log.debug("stored %s artifact %s", kind, key)


#: when set, a local probe miss consults this ``(kind, key) ->
#: (found, obj)`` hook — e.g. a fleet sibling's cache over the wire
_REMOTE_PROBE = None


def set_remote_probe(hook):
    """Install a cross-process cache-peek hook; returns the previous one.

    The hook is consulted by :func:`probe_artifact` after a local miss
    (unless the caller passes ``remote=False``).  A remote hit is
    replicated into the local store, so the next probe answers from
    disk.  Hooks must never raise — a failing peer is a miss.  Pass
    ``None`` to uninstall.
    """
    global _REMOTE_PROBE
    previous = _REMOTE_PROBE
    _REMOTE_PROBE = hook
    return previous


def probe_artifact(kind: str, key: str,
                   remote: bool = True) -> tuple[bool, object]:
    """Look a stored artifact up by key without computing anything.

    Returns ``(True, value)`` and counts a hit when the entry exists and
    loads; ``(False, None)`` otherwise — a probe miss is *not* counted
    as a cache miss, because nothing was (re)computed.  This is the
    service's fast path: answer a repeat query straight from disk.

    With a remote hook installed (:func:`set_remote_probe`), a local
    miss asks the hook and replicates any remote hit into the local
    store.  ``remote=False`` keeps the probe strictly local — the
    fleet's ``peek`` op uses it so two peers never probe each other in
    a loop.
    """
    if not cache_enabled():
        return False, None
    with _spans.span("cache.probe", kind=kind, content_key=key) as sp:
        obj = _load(kind, key)
        if obj is not _MISS:
            _STATS._bump(_STATS.hits, kind)
            sp.set(hit=True)
            return True, obj
        if remote and _REMOTE_PROBE is not None:
            found, value = _REMOTE_PROBE(kind, key)
            if found:
                _store(kind, key, value)  # replicate forward
                _STATS._bump(_STATS.hits, f"{kind}@peer")
                sp.set(hit=True, peer=True)
                return True, value
        sp.set(hit=False)
        return False, None


def store_artifact(kind: str, key: str, obj) -> None:
    """Publish ``obj`` under a key from :func:`artifact_key` (atomic).

    The public face of the internal store: pool workers and the service
    use it to share computed payloads across processes.  Failures are
    logged and counted, never raised — the cache stays an accelerator.
    """
    _store(kind, key, obj)


def cached_artifact(kind: str, recipe: dict, compute):
    """Return the artifact for ``recipe``, computing and storing on miss.

    ``compute`` is a zero-argument callable producing the artifact.  With
    the cache disabled, or when the recipe has no stable key (it contains
    e.g. a closure), the computation simply runs uncached.
    """
    if not cache_enabled():
        return compute()
    try:
        key = artifact_key(kind, recipe)
    except UncacheableError:
        _STATS.uncacheable += 1
        return compute()
    with _spans.span("artifact." + kind, content_key=key) as sp:
        obj = _load(kind, key)
        if obj is not _MISS:
            _STATS._bump(_STATS.hits, kind)
            sp.set(hit=True)
            return obj
        _STATS._bump(_STATS.misses, kind)
        sp.set(hit=False)
        obj = compute()
        _store(kind, key, obj)
        return obj


# -- the concrete artifact kinds --------------------------------------------


class TraceLayer:
    """The in-process trace layer: LRU over at most ``budget``
    instructions of traces, keyed by trace artifact key.

    An entry put with the path of its stored chunk manifest, while that
    manifest existed, is served only while the manifest still exists
    under the current cache root; one put while the cache was disabled,
    or whose store failed (a read-only or full root), is served as is.
    A change of cache root empties the layer.  A trace longer than the
    budget is never held.  All methods are thread-safe.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        #: key -> (trace, its manifest's path if stored when put, else None)
        self._traces: OrderedDict[str, tuple] = OrderedDict()
        self._held = 0
        self._root: Path | None = None

    def get(self, key: str):
        """The held trace for ``key``, or ``None``."""
        with self._lock:
            self._follow_root()
            entry = self._traces.get(key)
            if entry is None:
                return None
            trace, manifest = entry
            if (manifest is not None and cache_enabled()
                    and not manifest.exists()):
                del self._traces[key]
                self._held -= len(trace)
                return None
            self._traces.move_to_end(key)
            return trace

    def put(self, key: str, trace, manifest: Path | None = None):
        """Hold ``trace`` (evicting the least recently used); returns the
        trace now held for ``key``, so racing callers converge on one.
        ``manifest`` is where the trace's chunk manifest is stored."""
        size = len(trace)
        if size > self.budget:
            return trace
        with self._lock:
            self._follow_root()
            held = self._traces.get(key)
            if held is not None:
                return held[0]
            if not (manifest is not None and cache_enabled()
                    and manifest.exists()):
                manifest = None
            while self._held + size > self.budget:
                _, (old, _) = self._traces.popitem(last=False)
                self._held -= len(old)
            self._traces[key] = (trace, manifest)
            self._held += size
            return trace

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._held = 0

    def _follow_root(self) -> None:
        root = cache_root()
        if root != self._root:
            self._traces.clear()
            self._held = 0
            self._root = root

    def _after_fork(self) -> None:
        # a pool worker forked while another thread held the lock must
        # not inherit it held
        self._lock = threading.Lock()


#: the process's one trace layer: 2^21 instructions is 64 traces of 30k
_TRACES = TraceLayer(budget=1 << 21)
os.register_at_fork(after_in_child=_TRACES._after_fork)


def trace_artifact(benchmark: str, length: int, seed: int | None = None):
    """The trace for ``(benchmark, length, seed)``, cached in process and
    on disk.

    ``benchmark`` is any source-tagged workload reference the
    :mod:`repro.trace.sources` registry accepts: a synthetic profile
    name (``seed=None`` uses the profile's own default seed — the
    deterministic baseline every experiment shares) or an
    ``ingest:<key>`` foreign trace.  Keys carry the *resolved* seed
    (via :class:`repro.spec.WorkloadSpec`), so the two spellings of the
    default share one cache entry.

    Traces are not pickled: their disk form is the chunk store.  A miss
    materializes :func:`trace_chunk_stream`, which reads the stored
    chunks when the workload's manifest exists and otherwise generates
    the trace, publishing its content-addressed payloads and manifest
    (so a later streaming run of the same workload mmaps them).  A
    stored manifest counts as a ``trace`` cache hit, a generation as a
    miss.  Synthetic generation is the vectorized chunked generator,
    byte-identical to the original scalar generator (an equivalence the
    test suite enforces per profile); ingested traces are served from
    their stored chunks.

    In front of the disk sits the in-process :class:`TraceLayer`: a
    repeat returns the very same ``Trace`` object (and so its memo),
    counted as a ``trace`` cache hit.
    """
    from repro.spec.specs import WorkloadSpec
    from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

    workload = WorkloadSpec(benchmark, length, seed)
    key = artifact_key("trace", workload.canonical())
    trace = _TRACES.get(key)
    if trace is not None:
        with _spans.span("artifact.trace", content_key=key, hit=True,
                         layer="memory"):
            _STATS._bump(_STATS.hits, "trace")
            return trace
    _, chunked, _, manifest_key = _chunk_recipe(
        workload.benchmark, workload.length, workload.seed)
    manifest = _artifact_path(
        "ingest" if chunked is None else "trace_chunks", manifest_key)
    with _spans.span("artifact.trace", content_key=key) as sp:
        stored = cache_enabled() and manifest.exists()
        if cache_enabled():
            _STATS._bump(_STATS.hits if stored else _STATS.misses, "trace")
        sp.set(hit=stored)
        # one chunk is read into memory, so a held trace keeps no file
        # mapped (a mapping holds a descriptor open); more are mapped,
        # as joining them copies anyway
        trace = trace_chunk_stream(
            workload.benchmark, workload.length, workload.seed,
            mmap=workload.length > DEFAULT_CHUNK_SIZE).materialize()
    return _TRACES.put(key, trace, manifest)


# -- the chunk store ---------------------------------------------------------
#
# Traces are stored *chunk-wise*: each chunk is one mmap-able ``.rtc``
# container stored under its own content hash, and a tiny manifest (a
# normal pickled artifact of kind ``trace_chunks``) maps a workload
# recipe to its ordered chunk keys.  Because payloads are
# content-addressed, byte-identical chunks deduplicate across recipes
# (e.g. the same workload requested under two chunk-compatible recipes).
# Note that *different lengths do not share prefix chunks*: the seed
# generator sizes its address pools from the total length, so the
# instruction stream itself differs from the first chunk on — see
# docs/TRACE.md.


def chunk_payload_path(key: str) -> Path:
    """On-disk location of a content-addressed chunk payload."""
    return cache_root() / "chunks" / key[:2] / f"{key}.rtc"


def _chunk_recipe(benchmark: str, length: int | None = None,
                  seed: int | None = None, chunk_size: int | None = None):
    """``(ref, workload, chunk_size, manifest_key)`` for a workload
    reference, with a profile's defaults filled in.  An ``ingest:<key>``
    reference has no workload (``None``) and keeps the requested chunk
    size; its manifest is its ``ingest`` artifact."""
    from repro.spec.specs import WorkloadSpec
    from repro.trace.profiles import get_profile
    from repro.trace.sources import parse_benchmark
    from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

    scheme, ref = parse_benchmark(benchmark)
    if scheme == "ingest":
        return ref, None, chunk_size, ref
    profile = get_profile(ref)
    n = profile.default_length if length is None else int(length)
    cs = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    workload = WorkloadSpec(ref, n, seed)
    return ref, workload, cs, artifact_key(
        "trace_chunks", workload.canonical() | {"chunk_size": cs})


def trace_chunk_manifest(benchmark: str, length: int | None = None,
                         seed: int | None = None,
                         chunk_size: int | None = None):
    """The stored chunk manifest for a workload, or ``None``.

    The manifest is a dict with ``name``, ``length``, ``chunk_size``,
    ``keys`` (ordered content keys) and ``sizes`` (instructions per
    chunk); it never contains trace bytes.  For an ``ingest:<key>``
    workload this is the stored ingest manifest (which additionally
    carries a ``provenance`` section).
    """
    ref, workload, _, key = _chunk_recipe(benchmark, length, seed,
                                          chunk_size)
    if workload is None:
        from repro import ingest as _ingest

        return _ingest.ingest_manifest(ref)
    found, manifest = probe_artifact("trace_chunks", key)
    return manifest if found else None


def trace_chunk_stream(benchmark: str, length: int | None = None,
                       seed: int | None = None,
                       chunk_size: int | None = None,
                       mmap: bool = True):
    """A cached :class:`~repro.trace.chunks.TraceChunkStream`.

    ``benchmark`` dispatches through the :mod:`repro.trace.sources`
    registry.  An ``ingest:<key-or-path>`` workload serves the stored
    foreign-trace chunks (re-sliced to the requested ``chunk_size`` and
    ``length``); the ``seed`` argument is ignored for it — ingested
    traces carry no RNG.

    For synthetic workloads, first use generates the trace
    chunk-by-chunk (O(chunk) peak memory), publishing each chunk as a
    content-addressed container plus one manifest.  Later uses mmap the
    stored chunks — no generation and no materialized copy.  A corrupted
    or torn chunk is detected on read; the stream transparently
    regenerates from the start of the stream, re-publishes the damaged
    payloads, and keeps yielding — consumers never observe the
    corruption.
    """
    from repro.trace.chunks import TraceChunkStream
    from repro.trace.profiles import get_profile

    ref, workload, cs, manifest_key = _chunk_recipe(
        benchmark, length, seed, chunk_size)
    if workload is None:
        from repro import ingest as _ingest

        return _ingest.ingest_chunk_stream(
            ref, length=length, chunk_size=chunk_size, mmap=mmap)
    n = workload.length
    if cs <= 0:
        raise ValueError("chunk_size must be positive")
    resolved = workload.resolved_seed()

    def generate():
        from repro.trace.vectorgen import ChunkedTraceGenerator

        gen = ChunkedTraceGenerator(get_profile(ref))
        chunks = gen.chunks(length=n, seed=resolved, chunk_size=cs)
        if not _spans.enabled():
            return chunks
        return _spanned_generation(chunks, benchmark)

    def source():
        if not cache_enabled():
            yield from generate()
            return
        manifest = _load("trace_chunks", manifest_key)
        if manifest is not _MISS:
            _STATS._bump(_STATS.hits, "trace_chunks")
            yield from _serve_chunks(manifest, benchmark, generate, mmap)
            return
        _STATS._bump(_STATS.misses, "trace_chunks")
        keys: list[str] = []
        sizes: list[int] = []
        for chunk in generate():
            keys.append(_publish_chunk(chunk))
            sizes.append(len(chunk))
            yield chunk
        _store("trace_chunks", manifest_key, {
            "name": benchmark, "length": n, "chunk_size": cs,
            "keys": keys, "sizes": sizes,
        })

    return TraceChunkStream(source, name=benchmark, length=n, chunk_size=cs)


def _spanned_generation(chunks, benchmark: str):
    """Wrap a chunk generator so each chunk's generation is one span."""
    idx = 0
    while True:
        with _spans.span("trace.generate", benchmark=benchmark,
                         chunk=idx):
            chunk = next(chunks, None)
        if chunk is None:
            return
        yield chunk
        idx += 1


def _publish_chunk(chunk, force: bool = False) -> str:
    """Store one chunk container under its content key (idempotent).

    ``force`` overwrites an existing payload — used when recovering
    from a corrupt container, whose path is its (stale) content key.
    """
    from repro.trace.chunks import chunk_content_key, write_chunk

    key = chunk_content_key(chunk)
    path = chunk_payload_path(key)
    if force or not path.exists():
        with _spans.span("chunk.store", content_key=key):
            try:
                write_chunk(path, chunk)
            except OSError as exc:
                _log.warning("could not store chunk %s: %s", key, exc)
                _STATS.errors += 1
    return key


def publish_chunk(chunk, force: bool = False) -> str:
    """Store one chunk payload under its content key (public face).

    The ingest layer publishes normalized foreign-trace chunks through
    this, so ingested and synthetic workloads share one content-
    addressed chunk store (and byte-identical chunks deduplicate across
    them).
    """
    return _publish_chunk(chunk, force)


def _serve_chunks(manifest: dict, name: str, generate, mmap: bool):
    """Yield a manifest's chunks from disk, regenerating through any
    corrupted/torn payload."""
    from repro.trace.chunks import ChunkCorruptError, read_chunk

    keys = manifest["keys"]
    failed_at: int | None = None
    for idx, key in enumerate(keys):
        try:
            with _spans.span("chunk.read", content_key=key, chunk=idx,
                             hit=True):
                chunk = read_chunk(chunk_payload_path(key), name=name,
                                   mmap=mmap)
                if len(chunk) != manifest["sizes"][idx]:
                    raise ChunkCorruptError(
                        f"chunk {key}: {len(chunk)} != "
                        f"{manifest['sizes'][idx]}"
                    )
        except ChunkCorruptError as exc:
            _log.warning("chunk cache: %s; regenerating stream", exc)
            _STATS.errors += 1
            failed_at = idx
            break
        yield chunk
    if failed_at is None:
        return
    # replay the generator from the top (sequential state), discard the
    # chunks already served, republish and serve the rest
    for idx, chunk in enumerate(generate()):
        if idx < failed_at:
            continue
        _publish_chunk(chunk, force=True)
        yield chunk


def annotations_artifact(
    trace,
    machine,
    benchmark: str,
    length: int,
    seed: int | None = None,
    warmup_passes: int = 1,
):
    """Functional-pass miss-event annotations for ``trace``, disk-cached.

    The key covers the trace recipe plus everything the functional pass
    depends on: the machine's cache hierarchy, predictor name and
    ideal-predictor flag, and the warm-up count.  The simulation engine
    is deliberately *not* part of the key — the fast and reference
    passes are bit-identical (an equivalence the test suite enforces),
    so either may serve both.
    """
    from repro.frontend.collector import CollectorConfig, MissEventCollector
    from repro.spec.specs import WorkloadSpec

    def compute():
        collector = MissEventCollector(
            CollectorConfig.of(machine, warmup_passes))
        with _spans.span("sim.functional", benchmark=benchmark,
                         length=length):
            profile = collector.collect(trace, annotate=True)
        return profile.annotations

    machine_part = {
        "hierarchy": machine.hierarchy.to_dict(),
        "predictor": machine.predictor,
        "ideal_predictor": machine.ideal_predictor,
        "warmup_passes": warmup_passes,
    }
    workload = WorkloadSpec(benchmark, length, seed)
    return cached_artifact(
        "annotations",
        workload.canonical() | machine_part,
        compute,
    )
