"""Chunk-streaming functional miss-event collection.

:class:`StreamingCollector` is the chunk-at-a-time twin of
:class:`repro.frontend.collector.MissEventCollector`: it consumes a
re-iterable chunk stream (:class:`repro.trace.chunks.TraceChunkStream`)
instead of a materialized trace, holding only one chunk's precomputed
index arrays at a time.  Peak memory is O(chunk) regardless of trace
length, which is what makes 10^7-instruction workloads routine.

Equivalence: the per-chunk sweeps are the *same* fast-pass kernels the
in-memory collector runs (:mod:`repro.frontend.fastpass`), with two
pieces of carry state threaded across chunk boundaries — the previous
chunk's last fetch line (so boundary fetch-line transitions match the
reference pass) and the predictor/cache state, which lives in the
hierarchy and predictor objects and persists naturally.  The streaming
profile is bit-identical to the in-memory one for every chunk size; the
test suite enforces this.  (The fast kernels themselves are bit-identical
to the reference pass, so no separate streaming reference loop exists.)
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import BASELINE
from repro.frontend.collector import CollectorConfig
from repro.frontend.events import EventAnnotations, MissEventProfile
from repro.frontend.fastpass import FastPassPlan, run_fast_pass
from repro.obs import spans as _spans
from repro.memory.hierarchy import CacheHierarchy
from repro.trace.analysis import StreamingTraceAnalyzer
from repro.trace.trace import Trace


class StreamingCollector:
    """Runs the functional pass chunk-at-a-time over a trace stream.

    After :meth:`collect` (or after an :meth:`iter_annotated` iteration
    has been fully drained) the resulting profile is available as
    :attr:`profile`.
    """

    def __init__(self, config: CollectorConfig | None = None):
        self.config = config or CollectorConfig.of(BASELINE)
        #: the profile of the most recent completed pass
        self.profile: MissEventProfile | None = None

    def collect(self, stream) -> MissEventProfile:
        """Measure ``stream`` and return its miss-event profile.

        The profile carries no annotations — per-instruction annotations
        for a stream are inherently chunked; consume them through
        :meth:`iter_annotated` instead.
        """
        for _ in self.iter_annotated(stream, annotate=False):
            pass
        assert self.profile is not None
        return self.profile

    def iter_annotated(
        self, stream, annotate: bool = True
    ) -> Iterator[tuple[int, Trace, EventAnnotations | None]]:
        """Warm up, then yield ``(base, chunk, annotations)`` per chunk.

        The warm-up passes run first (iterating the stream once per
        pass, statistics discarded exactly like the in-memory
        collector); the recording pass then yields each chunk with its
        global base index and, when ``annotate``, its per-instruction
        :class:`EventAnnotations` — the chunk-wise feed the streaming
        detailed engine consumes.  When the iteration completes,
        :attr:`profile` holds the aggregated
        :class:`~repro.frontend.events.MissEventProfile`.
        """
        if len(stream) == 0:
            raise ValueError("cannot collect events from an empty stream")
        cfg = self.config
        hierarchy = CacheHierarchy(cfg.hierarchy)
        predictor = cfg.predictor_factory()

        for warmup in range(max(0, cfg.warmup_passes)):
            with _spans.span("frontend.warmup", workload=stream.name,
                             warmup_pass=warmup):
                last_line: int | None = None
                for chunk in stream:
                    plan = FastPassPlan(chunk, cfg, prev_line=last_line)
                    run_fast_pass(plan, chunk, cfg, hierarchy, predictor,
                                  record=False)
                    last_line = plan.last_line

        analyzer = StreamingTraceAnalyzer()
        branch_count = 0
        misp_count = 0
        misp_indices: list[int] = []
        fetch_accesses = 0
        icache_short = icache_long = 0
        load_count = 0
        d_short = d_long = 0
        long_indices: list[int] = []

        base = 0
        last_line = None
        for chunk in stream:
            plan = FastPassPlan(chunk, cfg, prev_line=last_line)
            tallies = run_fast_pass(plan, chunk, cfg, hierarchy, predictor,
                                    record=True, annotate=annotate)
            assert tallies is not None
            branch_count += tallies.branch_count
            misp_count += tallies.misprediction_count
            misp_indices.extend(base + k for k in tallies.misprediction_indices)
            fetch_accesses += tallies.fetch_line_accesses
            icache_short += tallies.icache_short_count
            icache_long += tallies.icache_long_count
            load_count += tallies.load_count
            d_short += tallies.dcache_short_count
            d_long += tallies.dcache_long_count
            long_indices.extend(base + k for k in tallies.long_miss_indices)
            analyzer.update(chunk)
            yield base, chunk, tallies.annotations
            base += len(chunk)
            last_line = plan.last_line

        self.profile = MissEventProfile(
            name=stream.name,
            length=base,
            branch_count=branch_count,
            misprediction_count=misp_count,
            misprediction_indices=np.array(misp_indices, dtype=np.int64),
            fetch_line_accesses=fetch_accesses,
            icache_short_count=icache_short,
            icache_long_count=icache_long,
            load_count=load_count,
            dcache_short_count=d_short,
            dcache_long_count=d_long,
            long_miss_indices=np.array(long_indices, dtype=np.int64),
            trace_stats=analyzer.finalize(),
            annotations=None,
        )


def collect_stream(stream, config: CollectorConfig | None = None
                   ) -> MissEventProfile:
    """Convenience wrapper around :class:`StreamingCollector`."""
    return StreamingCollector(config).collect(stream)
