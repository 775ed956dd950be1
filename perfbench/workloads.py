"""The four benchmark workloads: inputs, operations and output checks.

Each workload builds its inputs from the benchmark seed in :meth:`setup`
and then exposes a fixed list of :class:`Op` s — one closed-loop request
each — that the harness in ``run.py`` times.  An op returns the
simulated statistics it produced (for the digest and the determinism
check) and the problems it found in its own output.  After the timed
phase, :meth:`verify` runs the slower cross-checks and :meth:`accuracy`
pairs every model CPI with the detailed simulator's CPI for the same
trace and machine.

Model error is measured on two fixed seeds, not on ``--seed``: the
default seed (the data the model was tuned on) and a held-out seed.
Across seeds the worst error moves by a fifth of its value, more than
any regression bound could allow, while on a fixed seed it is exact.
The detailed simulator is itself unvalidated against hardware: model
error here is measured against this repository's simulator, and the
paper's 5.8% mean error is a reference point only.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.core.model import FirstOrderModel
from repro.corun import scenario
from repro.corun.scenario import corun_payload_checks
from repro.explore.surrogate import Surrogate
from repro.runner import artifacts, pool
from repro.simulator.processor import DetailedSimulator
from repro.simulator.streaming import simulate_stream
from repro.spec.corun import CoRunSpec, InterleaveSpec
from repro.spec.specs import (
    CacheSpec,
    EngineSpec,
    HierarchySpec,
    MachineSpec,
    RunSpec,
    WorkloadSpec,
)
from repro.telemetry.accountant import STALL_CLASSES
from repro.trace.profiles import BENCHMARK_ORDER, get_profile
from repro.trace.vectorgen import ChunkedTraceGenerator

#: ``--seed`` value whose traces use each profile's own default seed —
#: the data every experiment, and so the model's tuning, was run on
DEFAULT_SEED = 0
#: a ``--seed`` the model was never tuned on; report accuracy on both
HELD_OUT_SEED = 1

BASELINE = MachineSpec()
#: variants that change only the core: they share the baseline's
#: traces and functional passes
CORE_VARIANTS = {
    "deep": MachineSpec(pipeline_depth=10),
    "narrow": MachineSpec(width=2),
    "big_window": MachineSpec(window_size=96),
}
#: variants that change the memory side: own functional passes
MEMORY_VARIANTS = {
    "small_l2": MachineSpec(
        hierarchy=HierarchySpec(l2=CacheSpec(256 * 1024))),
    "bimodal": MachineSpec(predictor="bimodal"),
}

#: the co-run pair shipped with the repository (gzip+mcf, ``cpi`` policy)
CORUN_EXAMPLE = Path("examples") / "corun_spec.json"
#: the second co-run pair: a long-miss and a high-IPC profile taking
#: fixed round-robin turns
ROUND_ROBIN_PAIR = ("twolf", "eon")


def trace_seed(seed: int, benchmark: str) -> int | None:
    """The trace seed of ``benchmark`` under benchmark seed ``seed``.

    :data:`DEFAULT_SEED` maps to ``None``, the profile's own seed.
    """
    if seed == DEFAULT_SEED:
        return None
    return (abs(seed) % 2**31) * 1000 + BENCHMARK_ORDER.index(benchmark) + 1


def scaled(length: int, scale: float) -> int:
    return max(500, int(length * scale))


@dataclass
class Op:
    """One timed operation.

    ``run`` returns ``(stats, problems)``: the simulated statistics for
    the digest, and a description of every failed output check.
    ``reset`` runs untimed before ``run`` to restore the cache state the
    operation is defined on.
    """

    label: str
    instructions: int
    run: Callable[[], tuple[dict, list[str]]]
    reset: Callable[[], None] | None = None


def cpi_problems(label: str, cpi: float) -> list[str]:
    """The "every model CPI is finite and positive" check."""
    if math.isfinite(cpi) and cpi > 0:
        return []
    return [f"{label}: model CPI {cpi!r} is not finite and positive"]


def sim_stats(result) -> dict:
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "mispredictions": result.misprediction_count,
        "icache_short": result.icache_short_count,
        "icache_long": result.icache_long_count,
        "dcache_long": result.dcache_long_count,
    }


def clear_cache(cache_dir: Path, *kinds: str) -> None:
    for kind in kinds:
        shutil.rmtree(cache_dir / kind, ignore_errors=True)


def generate(workload: WorkloadSpec):
    return ChunkedTraceGenerator(get_profile(workload.benchmark)).generate(
        workload.length, seed=workload.resolved_seed())


def execute_op(spec: RunSpec):
    def run():
        return sim_stats(pool.execute_spec(spec)), []
    return run


class Workload:
    name = ""

    def __init__(self, seed: int, scale: float, cache_dir: Path):
        self.seed = seed
        self.scale = scale
        self.cache_dir = cache_dir
        self.ops: list[Op] = []

    def specs(self, seed: int) -> dict[str, RunSpec]:
        """The workload's runs under benchmark seed ``seed``, by label."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def verify(self) -> list[tuple[str, bool]]:
        """Post-run cross-checks as ``(description, holds)`` rows."""
        return []

    def accuracy(self, seed: int) -> list[tuple[str, float, float]]:
        """``(label, model CPI, simulated CPI)`` for each run at ``seed``.

        The model side shares one functional pass per memory side and
        one IW fit per trace, which gives the same CPI as
        ``evaluate_trace``.
        """
        surrogate = Surrogate()
        return [(label, 1.0 / surrogate.ipc(spec),
                 pool.execute_spec(replace(spec, engine=EngineSpec())).cpi)
                for label, spec in self.specs(seed).items()]


def sweep_specs(seed: int, length: int, machines: dict) -> dict:
    return {
        f"{b}/{m}": RunSpec(workload=WorkloadSpec(b, length,
                                                  trace_seed(seed, b)),
                            machine=machine)
        for b in BENCHMARK_ORDER for m, machine in machines.items()
    }


class ModelSweep(Workload):
    """The model path: ``evaluate_trace`` over profiles x machines."""

    name = "model_sweep"
    length = 15_000
    machines = {"baseline": BASELINE, **CORE_VARIANTS, **MEMORY_VARIANTS}

    def specs(self, seed):
        return sweep_specs(seed, scaled(self.length, self.scale),
                           self.machines)

    def setup(self) -> None:
        specs = self.specs(self.seed)
        # every machine shares the profile's one trace
        traces = {w: generate(w) for w in {s.workload for s in specs.values()}}
        self.ops = [
            Op(label, spec.workload.length,
               self._op(label, traces[spec.workload],
                        spec.machine.to_config()))
            for label, spec in specs.items()
        ]

    @staticmethod
    def _op(label, trace, config):
        def run():
            report = FirstOrderModel(config).evaluate_trace(trace)
            stats = {
                "instructions": len(trace),
                "model_cpi": report.cpi,
                "cpi_steady": report.cpi_steady,
                "cpi_branch": report.cpi_branch,
                "cpi_icache_l1": report.cpi_icache_l1,
                "cpi_icache_l2": report.cpi_icache_l2,
                "cpi_dcache": report.cpi_dcache,
            }
            return stats, cpi_problems(label, report.cpi)
        return run


class SimSweep(Workload):
    """The validation sweep: ``execute_spec`` over profiles x machines."""

    name = "sim_sweep"
    length = 30_000
    #: instructions of the fast-vs-reference engine cross-check
    prefix = 2_000
    machines = {"baseline": BASELINE, **CORE_VARIANTS}

    def specs(self, seed):
        return sweep_specs(seed, scaled(self.length, self.scale),
                           self.machines)

    def setup(self) -> None:
        specs = self.specs(self.seed)
        for spec in specs.values():
            w = spec.workload
            artifacts.trace_artifact(w.benchmark, w.length, w.seed)
        self.ops = [Op(label, spec.workload.length, execute_op(spec))
                    for label, spec in specs.items()]
        # every pass starts from a cache holding only the traces, so the
        # functional pass runs once per profile in each pass
        self.ops[0].reset = lambda: clear_cache(
            self.cache_dir, "annotations", "result")

    def verify(self):
        rows = []
        by_trace: dict = {}
        for label, spec in self.specs(self.seed).items():
            by_trace.setdefault(spec.workload, []).append((label, spec))
        for w, runs in by_trace.items():
            trace = artifacts.trace_artifact(w.benchmark, w.length, w.seed)
            prefix = trace[:min(self.prefix, len(trace))]
            annotations = None  # no machine here changes the memory side
            for label, spec in runs:
                config = spec.machine.to_config()
                fast = DetailedSimulator(config, instrument=False,
                                         engine="fast")
                if annotations is None:
                    annotations = fast.annotate(prefix)
                reference = DetailedSimulator(config, instrument=False,
                                              engine="reference")
                rows.append((
                    f"{label}: fast engine cycles == reference on a "
                    f"{len(prefix)}-instruction prefix",
                    fast.run(prefix, annotations).cycles
                    == reference.run(prefix, annotations).cycles,
                ))
        return rows


class StreamLong(Workload):
    """Chunk-streamed detailed simulation of two long traces."""

    name = "stream_long"
    length = 400_000
    chunk_size = 16_384
    #: length and chunk size of the streamed-vs-in-memory cross-check
    short = (20_000, 4_096)
    benchmarks = ("crafty", "mcf")

    def specs(self, seed):
        n = scaled(self.length, self.scale)
        return {
            b: RunSpec(
                workload=WorkloadSpec(b, n, trace_seed(seed, b)),
                machine=BASELINE,
                engine=EngineSpec(stream=True, chunk_size=self.chunk_size))
            for b in self.benchmarks
        }

    def setup(self) -> None:
        specs = self.specs(self.seed)
        for spec in specs.values():
            w = spec.workload
            for _ in artifacts.trace_chunk_stream(
                    w.benchmark, w.length, w.seed,
                    chunk_size=self.chunk_size):
                pass
        self.ops = [Op(label, spec.workload.length, execute_op(spec))
                    for label, spec in specs.items()]

    def verify(self):
        config = BASELINE.to_config()
        length, chunk = self.short
        length = min(length, scaled(self.length, self.scale))
        rows = []
        for b in self.benchmarks:
            seed = trace_seed(self.seed, b)
            streamed = simulate_stream(
                artifacts.trace_chunk_stream(b, length, seed,
                                             chunk_size=chunk),
                config, instrument=False)
            in_memory = DetailedSimulator(config, instrument=False).run(
                artifacts.trace_artifact(b, length, seed))
            rows.append((
                f"{b}: streamed result == in-memory result at {length} "
                f"instructions, {chunk}-instruction chunks",
                sim_stats(streamed) == sim_stats(in_memory),
            ))
        return rows


class CorunPair(Workload):
    """Shared-L2 co-runs of two workload pairs, solo results uncached."""

    name = "corun_pair"

    def specs(self, seed):
        """The co-run specs (not run specs) under ``seed``, by label."""
        example = CoRunSpec.from_dict(json.loads(CORUN_EXAMPLE.read_text()))
        round_robin = replace(
            example,
            workloads=tuple(replace(example.workloads[0], benchmark=b)
                            for b in ROUND_ROBIN_PAIR),
            interleave=InterleaveSpec(policy="round_robin"))
        out = {}
        for spec in (example, round_robin):
            spec = replace(spec, workloads=tuple(
                replace(w, length=scaled(w.length, self.scale),
                        seed=trace_seed(seed, w.benchmark))
                for w in spec.workloads))
            label = ("+".join(w.benchmark for w in spec.workloads)
                     + "/" + spec.interleave.policy)
            out[label] = spec
        return out

    def setup(self) -> None:
        specs = self.specs(self.seed)
        for spec in specs.values():
            for w in spec.workloads:
                artifacts.trace_artifact(w.benchmark, w.length, w.seed)
        self.ops = [
            Op(label, sum(w.length for w in spec.workloads),
               self._op(label, spec), self._reset)
            for label, spec in specs.items()
        ]

    def _reset(self):
        # only traces stay cached between co-runs: solo results and
        # functional passes are recomputed every time
        clear_cache(self.cache_dir, "annotations", "result", "corun")

    @staticmethod
    def _op(label, spec):
        def run():
            payload = scenario.run_corun(spec, reuse=False)
            problems = [f"{label}: {name} ({detail})"
                        for name, holds, detail in
                        corun_payload_checks(payload) if not holds]
            rows = []
            for row in payload["workloads"]:
                corun = row["corun"]
                name = f"{label}:{row['benchmark']}"
                stack = sum(corun["stack"][k] for k in STALL_CLASSES)
                if abs(stack - corun["cpi"]) > 1e-9:
                    problems.append(
                        f"{name}: telemetry stack {stack!r} != CPI "
                        f"{corun['cpi']!r}")
                problems += cpi_problems(name, row["model"]["cpi"])
                rows.append({
                    "benchmark": row["benchmark"],
                    "instructions": corun["instructions"],
                    "solo_cycles": row["solo"]["cycles"],
                    "cycles": corun["cycles"],
                    "dcache_long": corun["dcache_long_count"],
                    "icache_long": corun["icache_long_count"],
                    "loads": corun["load_count"],
                    "model_cpi": float(row["model"]["cpi"]),
                })
            shared = payload["shared_l2"]
            stats = {"workloads": rows,
                     "l2_accesses": shared["accesses"],
                     "l2_misses": shared["misses"]}
            return stats, problems
        return run

    def accuracy(self, seed):
        pairs = []
        for label, spec in self.specs(seed).items():
            self._reset()
            for row in scenario.run_corun(spec, reuse=False)["workloads"]:
                pairs.append((f"{label}:{row['benchmark']}",
                              float(row["model"]["cpi"]),
                              row["corun"]["cpi"]))
        return pairs


WORKLOADS = {w.name: w for w in (ModelSweep, SimSweep, StreamLong,
                                 CorunPair)}
