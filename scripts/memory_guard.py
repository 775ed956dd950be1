#!/usr/bin/env python
"""CI guard: streaming pipeline peak memory is O(chunk), not O(trace).

Runs the functional frontend and the detailed engine over a long trace
through the chunked streaming substrate (``docs/TRACE.md``) and asserts,
via :mod:`tracemalloc`, that peak Python allocation stays a small
multiple of one chunk's payload footprint — orders of magnitude below
what materializing the whole trace would cost.  This is the property
that makes 10^7-instruction workloads routine; the guard fails loudly
if anyone reintroduces a whole-trace materialization on the streaming
path.

The same run with stall telemetry on (interval timeline, no event
trace) is held to the same budget and growth limit: the engine derives
the stall classes and the timeline block by block, so that state is
O(chunk) too.

A walk-only case generates a profile the fast span decoder declines
(three data streams, not a power of two), so the generator's walk over
the PCG64 tape emits every instruction, and requires the same flat peak
at 50k and 200k instructions: the walk's tape window must not grow with
the trace.

The last case runs the shared-L2 co-run pass
(:func:`repro.corun.contention.run_contended_pass`) over two streamed
workloads at 50k and 200k instructions each.  That pass is not O(chunk):
its documented bound is one pass's L1-miss references plus the
O(length) annotations of the recording pass.  The guard measures both
terms from each run (the recording pass's L2 references and the
annotation arrays' bytes) and holds the peak to a budget built from
them, and the peak's growth between the runs to the growth of the two
terms.

Usage::

    PYTHONPATH=src python scripts/memory_guard.py [--length N]
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from dataclasses import replace

from repro.config import BASELINE
from repro.corun.contention import run_contended_pass
from repro.corun.interleave import interleave_order
from repro.frontend.collector import CollectorConfig
from repro.simulator.streaming import simulate_stream
from repro.telemetry.session import Telemetry
from repro.trace._fastcore import _FastCore
from repro.trace.chunks import TraceChunkStream, chunk_layout
from repro.trace.profiles import get_profile
from repro.trace.synthetic import _Session
from repro.trace.vectorgen import (
    DEFAULT_CHUNK_SIZE,
    ChunkedTraceGenerator,
    stream_chunks,
)

#: the walk-only case: trace lengths and chunk size (two chunks at least
#: in the short run, so both runs hold a full chunk at their peak)
WALK_LENGTHS = (50_000, 200_000)
WALK_CHUNK = 1 << 14

#: the co-run case: workloads, per-workload lengths and chunk size
#: (many chunks, so the references and annotations dominate the peak)
CORUN_WORKLOADS = ("gzip", "mcf")
CORUN_LENGTHS = (50_000, 200_000)
CORUN_CHUNK = 1 << 11
#: allowed bytes per L1-miss reference held by a co-run pass: four list
#: entries and their int objects in the private sweep, then the int64
#: merge columns and the re-listed L2 sets and tags (about 175 measured)
REF_BYTES = 256


def traced_peak(fn):
    """``fn()``'s result and its peak traced Python allocation (bytes)."""
    tracemalloc.start()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak


def walk_guard(benchmark: str, budget_chunks: float,
               growth_limit: float) -> bool:
    """Generation on the walk alone is O(chunk) too."""
    profile = replace(get_profile(benchmark), num_streams=3)
    short, full = WALK_LENGTHS
    if _FastCore.supports(_Session(profile, 64, full, None)):
        print("FAIL: the walk-only case reached the fast decoder",
              file=sys.stderr)
        return False
    gen = ChunkedTraceGenerator(profile)
    probe = next(iter(gen.chunks(WALK_CHUNK, chunk_size=WALK_CHUNK)))
    budget = budget_chunks * chunk_layout(probe)["payload_bytes"]

    def drain(length):
        return lambda: sum(1 for _ in gen.chunks(length,
                                                 chunk_size=WALK_CHUNK))

    _, short_peak = traced_peak(drain(short))
    _, peak = traced_peak(drain(full))
    growth = peak / short_peak
    print(f"walk-only peak   {peak / 2**20:.2f} MiB at {full:,} "
          f"instructions, {short_peak / 2**20:.2f} MiB at {short:,} "
          f"({growth:.2f}x; {benchmark} with 3 streams, "
          f"{WALK_CHUNK:,}-instruction chunks)")
    if peak > budget:
        print("FAIL: walk-only generation exceeds the O(chunk) budget",
              file=sys.stderr)
        return False
    if growth > growth_limit:
        print("FAIL: walk-only generation grows with trace length — the "
              "tape window is no longer bounded", file=sys.stderr)
        return False
    return True


def corun_guard(budget_chunks: float) -> bool:
    """The streamed co-run pass holds one pass's L1-miss references
    plus its annotations, and O(chunk) besides."""
    probe = next(iter(ChunkedTraceGenerator(get_profile("gzip"))
                      .chunks(CORUN_CHUNK, chunk_size=CORUN_CHUNK)))
    allowance = budget_chunks * chunk_layout(probe)["payload_bytes"]
    config = CollectorConfig.of(BASELINE)

    def run(length):
        sources = [lambda b=b: stream_chunks(b, length,
                                             chunk_size=CORUN_CHUNK)
                   for b in CORUN_WORKLOADS]
        lengths = [length] * len(sources)
        result, peak = traced_peak(lambda: run_contended_pass(
            sources, lengths, interleave_order(lengths), config))
        refs = result.shared_l2_accesses
        annotations = sum(
            column.nbytes for w in result.workloads
            for column in vars(w.tallies.annotations).values())
        return peak, refs, annotations

    (short_peak, short_refs, short_ann), (peak, refs, ann) = (
        run(n) for n in CORUN_LENGTHS)
    budget = allowance + refs * REF_BYTES + ann
    growth = peak - short_peak
    growth_limit = (refs - short_refs) * REF_BYTES + ann - short_ann
    mib = 2 ** 20
    print(f"co-run peak      {peak / mib:.2f} MiB at {CORUN_LENGTHS[1]:,} "
          f"instructions each, {short_peak / mib:.2f} MiB at "
          f"{CORUN_LENGTHS[0]:,} ({' + '.join(CORUN_WORKLOADS)}, "
          f"{CORUN_CHUNK:,}-instruction chunks)")
    print(f"  L1-miss refs   {refs:,} (short run {short_refs:,}); "
          f"annotations {ann / mib:.2f} MiB (short run "
          f"{short_ann / mib:.2f} MiB)")
    print(f"  budget         {budget / mib:.2f} MiB = "
          f"{allowance / mib:.2f} MiB O(chunk) + {refs:,} refs x "
          f"{REF_BYTES} B + annotations")
    print(f"  peak growth    {growth / mib:.2f} MiB "
          f"(limit {growth_limit / mib:.2f} MiB from the two terms)")
    if peak > budget:
        print("FAIL: the co-run pass exceeds its references-plus-"
              "annotations budget", file=sys.stderr)
        return False
    if growth > growth_limit:
        print("FAIL: the co-run pass grows faster than its references and "
              "annotations — an O(trace) allocation is back",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=1_000_000)
    parser.add_argument("--benchmark", default="gzip")
    parser.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    parser.add_argument(
        "--budget-chunks", type=float, default=40.0,
        help="allowed peak allocation, in chunk-payload multiples "
             "(the engine stages each chunk as Python lists, so the "
             "constant is well above the compact payload bytes)",
    )
    parser.add_argument(
        "--growth-limit", type=float, default=1.25,
        help="allowed peak growth between the short and the full run; "
             "an O(trace) allocation would grow ~4x",
    )
    args = parser.parse_args(argv)

    # one chunk's payload footprint, measured rather than assumed
    probe = next(iter(
        ChunkedTraceGenerator(get_profile(args.benchmark))
        .chunks(args.chunk_size, chunk_size=args.chunk_size)
    ))
    chunk_bytes = chunk_layout(probe)["payload_bytes"]

    def run(length, telemetry):
        # a cache-independent stream: every pass regenerates, so the
        # guard exercises generation + functional pass + detailed
        # engine — the full streaming pipeline, nothing served from mmap
        stream = TraceChunkStream(
            lambda: stream_chunks(args.benchmark, length,
                                  chunk_size=args.chunk_size),
            name=args.benchmark, length=length, chunk_size=args.chunk_size,
        )
        return traced_peak(lambda: simulate_stream(
            stream, BASELINE, instrument=False,
            telemetry=Telemetry() if telemetry else False))

    budget = args.budget_chunks * chunk_bytes
    # O(chunk) means peak is flat in trace length: measure at a quarter
    # of the target length and at the full length, and require both an
    # absolute ceiling and (the sharper check) near-zero growth
    short_length = max(args.length // 4, 2 * args.chunk_size)
    print(f"instructions     {args.length:,} "
          f"(short run: {short_length:,})")
    print(f"chunk payload    {chunk_bytes / 2**20:.2f} MiB "
          f"({args.chunk_size:,} instructions)")
    print(f"budget           {budget / 2**20:.2f} MiB "
          f"({args.budget_chunks:g} chunks)")
    for telemetry in (False, True):
        _, short_peak = run(short_length, telemetry)
        result, peak = run(args.length, telemetry)
        growth = peak / short_peak
        label = "telemetry on" if telemetry else "telemetry off"
        print(f"{label}:")
        print(f"  peak allocation  {peak / 2**20:.2f} MiB "
              f"({peak / chunk_bytes:.1f} chunk footprints); "
              f"short run {short_peak / 2**20:.2f} MiB")
        print(f"  peak growth      {growth:.2f}x over a "
              f"{args.length / short_length:.1f}x longer trace "
              f"(limit {args.growth_limit:g}x)")
        print(f"  cycles           {result.cycles:,}  "
              f"CPI {result.cycles / args.length:.3f}")
        if peak > budget:
            print(f"FAIL: streaming peak ({label}) exceeds the O(chunk) "
                  "budget", file=sys.stderr)
            return 1
        if growth > args.growth_limit:
            print(f"FAIL: peak ({label}) grows with trace length — an "
                  "O(trace) allocation is back on the streaming path",
                  file=sys.stderr)
            return 1
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"process max RSS  {rss_kib / 2**10:.1f} MiB")
    if not walk_guard(args.benchmark, args.budget_chunks, args.growth_limit):
        return 1
    if not corun_guard(args.budget_chunks):
        return 1
    print("OK: peak memory is O(chunk); the co-run pass holds its "
          "references and annotations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
