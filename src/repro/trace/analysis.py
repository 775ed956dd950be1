"""Trace-level statistics.

The paper's model parameters come from "simple trace-driven simulations"
and "instruction trace analysis" (§1.2, §4).  This module provides the
pure trace-analysis half: instruction mix, mix-weighted mean latency,
dependence-distance distributions, and inter-event distance utilities
reused by the miss-event collector (e.g. the long-miss group-size
distribution f_LDM of Eq. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.isa.latency import LatencyTable
from repro.isa.opclass import OpClass
from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Summary statistics of one trace.

    Attributes:
        length: dynamic instruction count.
        mix: dynamic opclass frequencies.
        mean_latency: mix-weighted mean functional-unit latency (the
            "Avg. Lat." column of paper Table 1, before any short-miss
            adjustment).
        branch_fraction: fraction of conditional branches.
        load_fraction / store_fraction: memory-op fractions.
        mean_dependence_distance: mean producer->consumer distance over
            present register source operands.
        dependence_distance_histogram: counts of distances 1..len(hist);
            distances beyond the histogram length are clamped into the
            last bucket.
    """

    length: int
    mix: Mapping[OpClass, float]
    mean_latency: float
    branch_fraction: float
    load_fraction: float
    store_fraction: float
    mean_dependence_distance: float
    dependence_distance_histogram: np.ndarray

    @property
    def instructions_per_branch(self) -> float:
        """Mean number of instructions between conditional branches."""
        if self.branch_fraction == 0:
            return float("inf")
        return 1.0 / self.branch_fraction


def analyze_trace(
    trace: Trace,
    latency_table: LatencyTable | None = None,
    histogram_bins: int = 64,
) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``trace``.

    With the default arguments — what every functional pass attaches to
    its profile — the result is memoized on the trace under
    ``"statistics"``.
    """
    if latency_table is None and histogram_bins == 64:
        return trace.memo("statistics", lambda: _analyze(trace, None, 64))
    return _analyze(trace, latency_table, histogram_bins)


def _analyze(trace: Trace, latency_table: LatencyTable | None,
             histogram_bins: int) -> TraceStatistics:
    if len(trace) == 0:
        raise ValueError("cannot analyze an empty trace")
    table = latency_table or LatencyTable()
    mix = trace.instruction_mix()
    deps = trace.dependences()
    distances = deps.distances()
    if distances.size:
        mean_dist = float(distances.mean())
        clipped = np.minimum(distances, histogram_bins)
        hist = np.bincount(clipped, minlength=histogram_bins + 1)[1:]
    else:
        mean_dist = float("inf")
        hist = np.zeros(histogram_bins, dtype=np.int64)
    return TraceStatistics(
        length=len(trace),
        mix=mix,
        mean_latency=table.mean_latency(mix),
        branch_fraction=float(trace.branches.mean()),
        load_fraction=float(trace.loads.mean()),
        store_fraction=float(trace.stores.mean()),
        mean_dependence_distance=mean_dist,
        dependence_distance_histogram=hist,
    )


class StreamingTraceAnalyzer:
    """Chunk-at-a-time :func:`analyze_trace` with O(chunk) peak memory.

    Feed every chunk of a stream (in order) through :meth:`update`, then
    :meth:`finalize`.  Produces exactly the statistics
    :func:`analyze_trace` computes on the concatenated trace: the
    internal :class:`~repro.trace.trace.StreamingRenamer` carries the
    register producer map across chunk boundaries, so dependence
    distances that span chunks are counted identically.
    """

    def __init__(self, latency_table: LatencyTable | None = None,
                 histogram_bins: int = 64) -> None:
        from repro.trace.trace import StreamingRenamer

        self._table = latency_table or LatencyTable()
        self._bins = histogram_bins
        self._renamer = StreamingRenamer()
        self._n = 0
        self._class_counts = np.zeros(len(OpClass), dtype=np.int64)
        self._dist_sum = 0
        self._dist_count = 0
        self._hist = np.zeros(histogram_bins + 1, dtype=np.int64)

    def update(self, chunk: Trace) -> None:
        """Fold one chunk into the running statistics."""
        base = self._n
        deps = self._renamer.rename_chunk(chunk)
        idx = np.arange(base, base + len(chunk), dtype=np.int64)
        for dep in (deps.dep1, deps.dep2):
            present = dep >= 0
            d = idx[present] - dep[present]
            self._dist_sum += int(d.sum())
            self._dist_count += int(d.size)
            self._hist += np.bincount(
                np.minimum(d, self._bins), minlength=self._bins + 1
            )
        self._class_counts += np.bincount(
            chunk.opclass.astype(np.int64), minlength=len(OpClass)
        )
        self._n += len(chunk)

    def finalize(self) -> TraceStatistics:
        """The statistics of everything folded in so far."""
        n = self._n
        if n == 0:
            raise ValueError("cannot analyze an empty stream")
        counts = self._class_counts
        mix = {
            OpClass(c): counts[c] / n
            for c in range(len(OpClass)) if counts[c]
        }
        if self._dist_count:
            mean_dist = self._dist_sum / self._dist_count
        else:
            mean_dist = float("inf")
        return TraceStatistics(
            length=n,
            mix=mix,
            mean_latency=self._table.mean_latency(mix),
            branch_fraction=float(counts[int(OpClass.BRANCH)] / n),
            load_fraction=float(counts[int(OpClass.LOAD)] / n),
            store_fraction=float(counts[int(OpClass.STORE)] / n),
            mean_dependence_distance=mean_dist,
            dependence_distance_histogram=self._hist[1:].copy(),
        )


@dataclass(frozen=True)
class ModelInputs:
    """Everything the first-order model needs, measured from one trace.

    This is the bridge that makes *ingested* foreign traces first-class
    model workloads: where a synthetic profile carries its parameters by
    construction, :func:`extract_model_inputs` measures the same
    quantities from any chunk stream — the dependence-distance power law
    (paper §3), the instruction mix and mean latency (Table 1), branch
    predictability under the baseline gShare, and code/data footprints
    for locality context.

    Attributes:
        statistics: the full :class:`TraceStatistics` of the trace.
        alpha / beta / r_squared: the fitted ``I = alpha * W**beta``
            IW characteristic (Figure 5); NaN when the trace is too
            short or degenerate to fit.
        mispredict_rate: baseline gShare(8K) misprediction rate over the
            trace's conditional branches (0 when there are none).
        taken_rate: fraction of conditional branches taken.
        code_footprint: distinct instruction pcs.
        data_footprint_lines: distinct 64-byte lines touched by memory
            ops.
        fit_length: instructions the IW fit actually used (the fit
            simulates scheduling, so it runs on a bounded prefix).
        window_sizes: window sizes the IW curve was measured at.
    """

    statistics: TraceStatistics
    alpha: float
    beta: float
    r_squared: float
    mispredict_rate: float
    taken_rate: float
    code_footprint: int
    data_footprint_lines: int
    fit_length: int
    window_sizes: tuple[int, ...]

    def to_dict(self) -> dict:
        """JSON-friendly form (used by ``repro trace-info --extract``)."""
        s = self.statistics
        return {
            "length": s.length,
            "mix": {cls.name.lower(): frac for cls, frac in s.mix.items()},
            "mean_latency": s.mean_latency,
            "branch_fraction": s.branch_fraction,
            "load_fraction": s.load_fraction,
            "store_fraction": s.store_fraction,
            "mean_dependence_distance": s.mean_dependence_distance,
            "alpha": self.alpha,
            "beta": self.beta,
            "r_squared": self.r_squared,
            "mispredict_rate": self.mispredict_rate,
            "taken_rate": self.taken_rate,
            "code_footprint": self.code_footprint,
            "data_footprint_lines": self.data_footprint_lines,
            "fit_length": self.fit_length,
            "window_sizes": list(self.window_sizes),
        }


def extract_model_inputs(
    source,
    latency_table: LatencyTable | None = None,
    *,
    histogram_bins: int = 64,
    max_fit_length: int = 30_000,
    window_sizes: tuple[int, ...] | None = None,
) -> ModelInputs:
    """Measure first-order model inputs from a trace or chunk stream.

    ``source`` is a :class:`~repro.trace.trace.Trace` or any iterable of
    trace chunks (e.g. a :class:`~repro.trace.chunks.TraceChunkStream`,
    synthetic or ingested).  One pass over the chunks feeds the
    streaming statistics, a baseline gShare predictor, and the footprint
    sets; the IW power-law fit additionally materializes a prefix of at
    most ``max_fit_length`` instructions (window scheduling is not
    streamable).  Works identically for ``synthetic:`` and ``ingest:``
    workloads — this is tentpole glue that lets ``repro report`` and the
    figure experiments consume foreign traces unchanged.
    """
    from repro.branch.gshare import GShare
    from repro.window.iw_simulator import DEFAULT_WINDOW_SIZES, measure_iw_curve
    from repro.window.powerlaw import fit_curve

    if window_sizes is None:
        window_sizes = DEFAULT_WINDOW_SIZES
    chunks = [source] if isinstance(source, Trace) else source
    analyzer = StreamingTraceAnalyzer(latency_table, histogram_bins)
    predictor = GShare()
    branch_code = int(OpClass.BRANCH)
    taken_count = 0
    branch_count = 0
    pcs: set[int] = set()
    lines: set[int] = set()
    prefix: list[Trace] = []
    prefix_len = 0
    for chunk in chunks:
        analyzer.update(chunk)
        pcs.update(np.unique(chunk.pc).tolist())
        mem = chunk.loads | chunk.stores
        if np.any(mem):
            lines.update(np.unique(chunk.addr[mem] >> 6).tolist())
        is_branch = chunk.opclass == branch_code
        predictor.observe_batch(chunk.pc[is_branch], chunk.taken[is_branch])
        branch_count += int(is_branch.sum())
        taken_count += int(chunk.taken[is_branch].sum())
        if prefix_len < max_fit_length:
            prefix.append(chunk[: max_fit_length - prefix_len])
            prefix_len += len(prefix[-1])
    stats = analyzer.finalize()
    if len(prefix) == 1:
        fit_trace = prefix[0]
    else:
        from repro.trace.vectorgen import concat_traces

        fit_trace = concat_traces(prefix, name="fit-prefix")
    try:
        fit = fit_curve(measure_iw_curve(fit_trace, window_sizes,
                                         latency_table))
        alpha, beta, r2 = fit.alpha, fit.beta, fit.r_squared
    except ValueError:
        alpha = beta = r2 = float("nan")
    if branch_count:
        mispredict = float(predictor.stats.misprediction_rate)
        taken_rate = taken_count / branch_count
    else:
        mispredict = 0.0
        taken_rate = 0.0
    return ModelInputs(
        statistics=stats,
        alpha=alpha,
        beta=beta,
        r_squared=r2,
        mispredict_rate=mispredict,
        taken_rate=taken_rate,
        code_footprint=len(pcs),
        data_footprint_lines=len(lines),
        fit_length=prefix_len,
        window_sizes=tuple(int(w) for w in window_sizes),
    )


def event_distances(event_indices: np.ndarray) -> np.ndarray:
    """Distances (in dynamic instructions) between consecutive events.

    ``event_indices`` are sorted trace indices at which some event (e.g.
    a long data-cache miss) occurred.  The result has one entry per
    consecutive pair.  The paper measures exactly this for long misses:
    "We measure the distances between long data cache misses" (§4.3).
    """
    idx = np.asarray(event_indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("event indices must be one-dimensional")
    if np.any(np.diff(idx) < 0):
        raise ValueError("event indices must be sorted")
    return np.diff(idx)


def group_size_distribution(
    event_indices: np.ndarray, window: int
) -> np.ndarray:
    """The f_LDM(i) distribution of paper Eq. 8.

    Events are greedily grouped: an event joins the current group when it
    falls within ``window`` dynamic instructions of the *first* event of
    the group (the ROB-anchored view of §4.3 — overlap happens when a
    second miss occurs within ``rob_size`` instructions of the first).
    Returns an array ``f`` where ``f[i-1]`` is the probability that an
    event belongs to a group of size ``i``; ``sum(i * count_i) == len(events)``.
    """
    idx = np.asarray(event_indices, dtype=np.int64)
    if window <= 0:
        raise ValueError("window must be positive")
    if idx.size == 0:
        return np.zeros(0, dtype=float)
    sizes: list[int] = []
    anchor = idx[0]
    current = 1
    for k in idx[1:]:
        if k - anchor < window:
            current += 1
        else:
            sizes.append(current)
            anchor = k
            current = 1
    sizes.append(current)
    max_size = max(sizes)
    counts = np.bincount(np.array(sizes), minlength=max_size + 1)[1:]
    weighted = counts * np.arange(1, max_size + 1)
    return weighted / weighted.sum()
