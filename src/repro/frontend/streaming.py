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

Warm-up checkpoints: after its warm-up passes the collector's state is
a :class:`WarmState`, a pure function of the trace and the memory side
of the machine, and O(cache geometry) in size.
:meth:`StreamingCollector.warm_up` computes it;
:meth:`StreamingCollector.iter_annotated` accepts one and goes straight
to the recording pass, so a stored checkpoint
(:func:`repro.runner.artifacts.warm_artifact`) saves every warm-up read
of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.branch.predictor import BranchPredictor
from repro.config import BASELINE
from repro.frontend.collector import CollectorConfig
from repro.frontend.events import EventAnnotations
from repro.frontend.fastpass import PassDriver
from repro.memory.hierarchy import CacheHierarchy
from repro.trace.trace import Trace


@dataclass
class WarmState:
    """The cache hierarchy and predictor after ``warmup_passes`` warm-up
    passes.

    Mutable: the recording pass steps it, so each run needs its own
    copy (a stored checkpoint unpickles a fresh one per fetch).
    """

    hierarchy: CacheHierarchy
    predictor: BranchPredictor
    warmup_passes: int


class StreamingCollector:
    """Runs the functional pass chunk-at-a-time over a trace stream."""

    def __init__(self, config: CollectorConfig | None = None):
        self.config = config or CollectorConfig.of(BASELINE)

    def _driver(self, stream, warm: WarmState | None) -> PassDriver:
        if len(stream) == 0:
            raise ValueError("cannot collect events from an empty stream")
        cfg = self.config
        if warm is None:
            hierarchy = CacheHierarchy(cfg.hierarchy)
            predictor = cfg.predictor_factory()
        else:
            if warm.warmup_passes != cfg.warmup_passes:
                raise ValueError(
                    f"warm state is from {warm.warmup_passes} warm-up "
                    f"passes, the collector runs {cfg.warmup_passes}")
            hierarchy, predictor = warm.hierarchy, warm.predictor
            cfg = replace(cfg, warmup_passes=0)  # already done
        return PassDriver(lambda: iter(stream), cfg, hierarchy, predictor,
                          length=len(stream), name=stream.name)

    def warm_up(self, stream) -> WarmState:
        """Fresh state taken through the warm-up passes over ``stream``
        (one read of the stream per pass)."""
        driver = self._driver(stream, None)
        driver.warm_up()
        return WarmState(driver.hierarchy, driver.predictor,
                         self.config.warmup_passes)

    def iter_annotated(
        self, stream, annotate: bool = True, warm: WarmState | None = None
    ) -> Iterator[tuple[int, Trace, EventAnnotations | None]]:
        """Warm up, then yield ``(base, chunk, annotations)`` per chunk.

        The warm-up passes run first (iterating the stream once per
        pass, statistics discarded exactly like the in-memory
        collector), unless ``warm`` gives the state they leave, from
        :meth:`warm_up` over the same trace and configuration (a state
        from another warm-up count is a :class:`ValueError`); that state
        is then stepped in place.  The recording pass yields each
        chunk with its global base index and, when ``annotate``, its
        per-instruction :class:`EventAnnotations` — the chunk-wise feed
        the streaming detailed engine consumes.
        """
        driver = self._driver(stream, warm)
        for base, chunk, tallies in driver.run(annotate):
            yield base, chunk, tallies.annotations
