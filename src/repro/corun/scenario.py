"""Co-run orchestration: solo baselines, contended pass, model agreement.

:func:`run_corun` is the one entry point behind the ``repro corun`` CLI,
the ``corun`` service op and the ``val_corun`` experiment.  For each
workload of a :class:`~repro.spec.CoRunSpec` it produces three numbers —
solo CPI (private L2), co-run CPI (shared L2, detailed simulation on the
contention-elevated miss-events) and the first-order model's prediction
from the *contended* miss-event profile — plus the per-workload CPI
stack, interference deltas and the shared-L2 reconciliation.

The result is a plain JSON-safe dict, cached in the artifact store under
``CoRunSpec.content_key()`` — the same key whether the spec is evaluated
in-process, via the CLI, or submitted through the service, so co-runs
coalesce and shard exactly like single-workload runs.

Memory: the contended functional pass reads each workload's trace one
chunk at a time, but holds one pass's L1-miss references of every
workload plus the O(length) annotations.  The per-workload *timing*
simulations and the IW-curve fit operate on one materialized workload
trace at a time (never on the merged co-run).
"""

from __future__ import annotations

from repro.corun.contention import run_contended_pass
from repro.corun.interleave import interleave_order
from repro.spec.corun import CoRunSpec
from repro.telemetry.accountant import STALL_CLASSES

__all__ = ["corun_payload_checks", "format_corun", "run_corun"]


def run_corun(spec: CoRunSpec, reuse: bool = True,
              stream: bool = False, chunk_size: int | None = None) -> dict:
    """Evaluate a co-run spec end to end (artifact-cached).

    ``reuse=True`` serves a stored result for the identical spec and
    stores fresh computes; ``reuse=False`` recomputes unconditionally.
    ``stream=True`` feeds the contended pass from the chunk store
    instead of materialized traces — the result is bit-identical either
    way, an equivalence the test suite enforces.
    """
    from repro.runner import artifacts

    if reuse and artifacts.cache_enabled():
        return artifacts.cached_artifact(
            "corun", spec.result_recipe(),
            lambda: _compute_corun(spec, stream, chunk_size))
    return _compute_corun(spec, stream, chunk_size)


def _compute_corun(spec: CoRunSpec, stream: bool,
                   chunk_size: int | None) -> dict:
    import numpy as np

    from repro.core.model import FirstOrderModel
    from repro.core.steady_state import build_characteristic
    from repro.frontend.collector import CollectorConfig
    from repro.runner.artifacts import trace_artifact, trace_chunk_stream
    from repro.runner.pool import execute_spec
    from repro.simulator.processor import DetailedSimulator
    from repro.trace.analysis import analyze_trace

    machine = spec.machine
    workloads = spec.workloads
    n_work = len(workloads)

    # solo baselines (private L2) — cached single-workload runs; their
    # CPIs double as the cycle-proportional interleave weights
    solo = [execute_spec(spec.solo_spec(i), reuse_result=True)
            for i in range(n_work)]
    weights = [r.cpi for r in solo]

    order = interleave_order([w.length for w in workloads], spec.interleave,
                             weights=weights)

    if stream:
        def source_for(w):
            return lambda: iter(trace_chunk_stream(
                w.benchmark, w.length, w.resolved_seed(),
                chunk_size=chunk_size))
        sources = [source_for(w) for w in workloads]
        served = [trace_chunk_stream(w.benchmark, w.length,
                                     w.resolved_seed(),
                                     chunk_size=chunk_size).length
                  for w in workloads]
    else:
        traces = [trace_artifact(w.benchmark, w.length, w.resolved_seed())
                  for w in workloads]
        sources = [(lambda t=t: iter((t,))) for t in traces]
        served = [len(t) for t in traces]
    for w, n in zip(workloads, served):
        # an ingest workload can serve fewer records than requested (the
        # stored trace is finite); the merge needs exact lengths
        if n != w.length:
            from repro.spec import SpecError

            raise SpecError(
                f"co-run workload {w.benchmark!r} serves {n} instructions "
                f"but the spec requests {w.length}; set its length to "
                f"{n} or less")

    contention = run_contended_pass(
        sources, [w.length for w in workloads], order,
        CollectorConfig.of(machine),
    )

    model = FirstOrderModel(machine)
    rows: list[dict] = []
    for i, (workload, counts) in enumerate(
            zip(workloads, contention.workloads)):
        trace = trace_artifact(workload.benchmark, workload.length,
                               workload.resolved_seed())
        profile = counts.tallies.profile(trace.name, len(trace),
                                         analyze_trace(trace))

        # detailed co-run timing: the workload's own trace driven by its
        # contention-elevated annotations, with the telemetry accountant
        sim = DetailedSimulator(machine, instrument=False, telemetry=True)
        result = sim.run(trace, profile.annotations)
        assert sim.last_telemetry is not None
        stack = sim.last_telemetry.report.stack

        report = model.evaluate(
            profile, build_characteristic(trace, machine, profile))

        solo_result = solo[i]
        solo_rate = (solo_result.dcache_long_count / profile.load_count
                     if profile.load_count else 0.0)
        corun_rate = profile.long_miss_rate_per_load
        rows.append({
            "benchmark": workload.benchmark,
            "length": workload.length,
            "seed": workload.resolved_seed(),
            "solo": {
                "cpi": solo_result.cpi,
                "cycles": solo_result.cycles,
                "dcache_long_count": solo_result.dcache_long_count,
                "long_miss_rate": solo_rate,
            },
            "corun": {
                "cpi": result.cpi,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "dcache_long_count": profile.dcache_long_count,
                "icache_long_count": profile.icache_long_count,
                "load_count": profile.load_count,
                "long_miss_rate": corun_rate,
                "stack": {key: stack.component(key)
                          for key in STALL_CLASSES},
                "stack_total": stack.total,
            },
            "model": {
                "cpi": report.cpi,
                "cpi_steady": report.cpi_steady,
                "cpi_branch": report.cpi_branch,
                "cpi_icache_l1": report.cpi_icache_l1,
                "cpi_icache_l2": report.cpi_icache_l2,
                "cpi_dcache": report.cpi_dcache,
                "error": report.cpi - result.cpi,
            },
            "interference": {
                "cpi_degradation": result.cpi - solo_result.cpi,
                "long_miss_elevation": corun_rate - solo_rate,
                "extra_long_misses": (
                    profile.dcache_long_count
                    - solo_result.dcache_long_count),
            },
        })

    workload_accesses = int(np.sum(
        [c.l2_accesses for c in contention.workloads]))
    workload_misses = int(np.sum(
        [c.l2_misses for c in contention.workloads]))
    return {
        "content_key": spec.content_key(),
        "spec": spec.to_dict(),
        "interleave": spec.interleave.to_dict() | {"weights": weights},
        "workloads": rows,
        "shared_l2": {
            "accesses": contention.shared_l2_accesses,
            "misses": contention.shared_l2_misses,
            "workload_accesses": workload_accesses,
            "workload_misses": workload_misses,
            "reconciled": (
                contention.shared_l2_accesses == workload_accesses
                and contention.shared_l2_misses == workload_misses),
        },
    }


def format_corun(payload: dict) -> str:
    """Human-readable table for a :func:`run_corun` payload (shared by
    the ``repro corun`` CLI and ``repro submit corun``)."""
    lines: list[str] = []
    interleave = payload["interleave"]
    lines.append(
        f"co-run of {len(payload['workloads'])} workloads over a shared L2 "
        f"(policy={interleave['policy']}, quantum={interleave['quantum']})")
    lines.append(f"content key: {payload['content_key']}")
    lines.append("")
    header = (f"{'workload':<22} {'solo CPI':>9} {'corun CPI':>10} "
              f"{'model CPI':>10} {'err':>7} {'ΔCPI':>7} {'Δlong/ld':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in payload["workloads"]:
        name = row["benchmark"]
        if len(name) > 22:
            name = name[:19] + "..."
        lines.append(
            f"{name:<22} {row['solo']['cpi']:>9.4f} "
            f"{row['corun']['cpi']:>10.4f} {row['model']['cpi']:>10.4f} "
            f"{row['model']['error']:>+7.3f} "
            f"{row['interference']['cpi_degradation']:>+7.3f} "
            f"{row['interference']['long_miss_elevation']:>+9.4f}")
    shared = payload["shared_l2"]
    lines.append("")
    lines.append(
        f"shared L2: {shared['accesses']} accesses, {shared['misses']} "
        f"misses ({'reconciled' if shared['reconciled'] else 'MISMATCH'} "
        f"with per-workload counters)")
    return "\n".join(lines)


def corun_payload_checks(payload: dict) -> list[tuple[str, bool, str]]:
    """The co-run invariants as ``(description, holds, detail)`` rows.

    Used by the smoke tests and CI: long-miss monotonicity, CPI
    degradation being non-negative, and shared-L2 reconciliation.
    """
    checks: list[tuple[str, bool, str]] = []
    for row in payload["workloads"]:
        name = row["benchmark"]
        checks.append((
            f"{name}: co-run long-miss rate >= solo",
            row["corun"]["long_miss_rate"] >= row["solo"]["long_miss_rate"],
            f"{row['corun']['long_miss_rate']:.5f} vs "
            f"{row['solo']['long_miss_rate']:.5f}",
        ))
        checks.append((
            f"{name}: co-run CPI >= solo CPI",
            row["corun"]["cpi"] >= row["solo"]["cpi"],
            f"{row['corun']['cpi']:.4f} vs {row['solo']['cpi']:.4f}",
        ))
    shared = payload["shared_l2"]
    checks.append((
        "shared-L2 counters reconcile with per-workload sums",
        bool(shared["reconciled"]),
        f"{shared['accesses']}/{shared['misses']} vs "
        f"{shared['workload_accesses']}/{shared['workload_misses']}",
    ))
    return checks
