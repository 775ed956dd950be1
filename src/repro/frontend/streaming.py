"""Chunk-streaming functional miss-event collection.

:class:`StreamingCollector` is the chunk-at-a-time twin of
:class:`repro.frontend.collector.MissEventCollector`: it consumes a
re-iterable chunk stream (:class:`repro.trace.chunks.TraceChunkStream`)
instead of a materialized trace, holding only one chunk's precomputed
index arrays at a time.  Peak memory is O(chunk) regardless of trace
length, which is what makes 10^7-instruction workloads routine.

Equivalence: both collectors run their passes through the one chunk
driver, :class:`repro.frontend.fastpass.PassDriver`.  It threads two
pieces of carry state across chunk boundaries — the previous chunk's
last fetch line (so boundary fetch-line transitions match the reference
pass) and the predictor/cache state, which lives in the hierarchy and
predictor objects and persists naturally.  The streamed annotations are
bit-identical to the in-memory ones for every chunk size; the test
suite enforces this.  (The fast kernels themselves are bit-identical to
the reference pass, so no separate streaming reference loop exists.)
"""

from __future__ import annotations

from typing import Iterator

from repro.config import BASELINE
from repro.frontend.collector import CollectorConfig
from repro.frontend.events import EventAnnotations
from repro.frontend.fastpass import PassDriver
from repro.memory.hierarchy import CacheHierarchy
from repro.trace.trace import Trace


class StreamingCollector:
    """Runs the functional pass chunk-at-a-time over a trace stream."""

    def __init__(self, config: CollectorConfig | None = None):
        self.config = config or CollectorConfig.of(BASELINE)

    def iter_annotated(
        self, stream, annotate: bool = True
    ) -> Iterator[tuple[int, Trace, EventAnnotations | None]]:
        """Warm up, then yield ``(base, chunk, annotations)`` per chunk.

        The warm-up passes run first (iterating the stream once per
        pass, statistics discarded exactly like the in-memory
        collector); the recording pass then yields each chunk with its
        global base index and, when ``annotate``, its per-instruction
        :class:`EventAnnotations` — the chunk-wise feed the streaming
        detailed engine consumes.
        """
        if len(stream) == 0:
            raise ValueError("cannot collect events from an empty stream")
        cfg = self.config
        driver = PassDriver(lambda: iter(stream), cfg,
                            CacheHierarchy(cfg.hierarchy),
                            cfg.predictor_factory(), length=len(stream),
                            name=stream.name)
        for base, chunk, tallies in driver.run(annotate):
            yield base, chunk, tallies.annotations
