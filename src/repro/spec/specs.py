"""Typed, frozen run specifications with canonical JSON and stable keys.

The paper's methodology lives or dies on like-for-like comparison: the
analytical model and the detailed simulator must be driven by the *same*
machine description.  A :class:`RunSpec` makes that guarantee structural:
one validated, serializable object names the machine
(:class:`MachineSpec`), the workload (:class:`WorkloadSpec`), how to
execute (:class:`EngineSpec`) and what to measure
(:class:`TelemetrySpec`).  Its :meth:`RunSpec.content_key` is *the*
artifact-cache key for the simulation result and the service's
request-coalescing key, so an identical question asked in-process,
through the parallel runner, or over the wire is answered — and cached —
identically.

Keying rules
------------
``content_key()`` covers exactly what can change the simulation result:
the machine, the fully-resolved workload (``seed=None`` resolves to the
benchmark profile's deterministic default *before* keying — the seed
never aliases), and the ``instrument`` flag (it changes the payload).
The engine is deliberately excluded — the fast and reference kernels are
bit-identical (enforced by the equivalence suite) — and telemetry is
excluded because it only observes (disabled telemetry is bit-identical,
also enforced).

:class:`SweepSpec` turns a parameter sweep into data: a base spec, a
benchmark axis and dotted-path value axes expand deterministically into
the grid of ``RunSpec``s that ``run_units`` (or a future sharded
backend) executes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.config import (
    PREDICTORS,
    CacheSpec,
    HierarchySpec,
    MachineSpec,
    SpecError,
    _check_fields,
    _construct,
    _require_mapping,
)

__all__ = [
    "PREDICTORS",
    "SPEC_SCHEMA",
    "CacheSpec",
    "EngineSpec",
    "HierarchySpec",
    "MachineSpec",
    "ObsSpec",
    "RunSpec",
    "SpecError",
    "SweepSpec",
    "TelemetrySpec",
    "WorkloadSpec",
    "canonical_json",
]

#: bump when the canonical spec layout changes; part of every content key
SPEC_SCHEMA = 1


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# -- workload ----------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload trace: source-tagged benchmark, length, RNG seed.

    ``benchmark`` names a trace through the :mod:`repro.trace.sources`
    registry: a bare profile name (``"gzip"``, the canonical synthetic
    spelling), ``synthetic:<name>`` (normalized to the bare name at
    construction), or ``ingest:<key-or-path>`` for a foreign trace
    normalized into the chunk store by :mod:`repro.ingest` (a path
    spelling ingests the file and normalizes to its content key).

    ``seed=None`` means the source's own deterministic default (the
    profile seed for synthetic workloads; 0 for ingested traces, which
    carry no RNG and reject explicit seeds); :meth:`resolved_seed` makes
    that explicit, and the canonical form always carries the resolved
    seed so ``seed=None`` and the spelled-out default can never alias to
    different cache entries.
    """

    benchmark: str
    length: int = 30_000
    seed: int | None = None

    def __post_init__(self) -> None:
        from repro.trace.sources import get_source, parse_benchmark

        if not isinstance(self.benchmark, str):
            raise SpecError("workload benchmark must be a string")
        if (not isinstance(self.length, int)
                or isinstance(self.length, bool) or self.length < 1):
            raise SpecError("workload length must be a positive integer")
        if self.seed is not None and (
                not isinstance(self.seed, int) or isinstance(self.seed, bool)):
            raise SpecError("workload seed must be an integer or null")
        scheme, ref = parse_benchmark(self.benchmark)
        benchmark, length = get_source(scheme).normalize(
            ref, self.length, self.seed)
        if benchmark != self.benchmark:
            object.__setattr__(self, "benchmark", benchmark)
        if length != self.length:
            object.__setattr__(self, "length", length)

    def source(self) -> tuple[str, str]:
        """This workload's ``(scheme, reference)`` pair."""
        from repro.trace.sources import parse_benchmark

        return parse_benchmark(self.benchmark)

    def resolved_seed(self) -> int:
        """The effective RNG seed (source default when ``seed=None``)."""
        if self.seed is not None:
            return self.seed
        from repro.trace.sources import get_source, parse_benchmark

        scheme, ref = parse_benchmark(self.benchmark)
        return get_source(scheme).default_seed(ref)

    def with_benchmark(self, benchmark: str) -> "WorkloadSpec":
        """This workload shape applied to another benchmark."""
        return replace(self, benchmark=benchmark)

    @classmethod
    def from_dict(cls, data: Any) -> "WorkloadSpec":
        return _construct(
            cls,
            _check_fields(_require_mapping(data, "workload"), cls, "workload"),
            "workload")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical(self) -> dict:
        """The keying form — seed resolved, never ``None``."""
        return {"benchmark": self.benchmark, "length": self.length,
                "seed": self.resolved_seed()}


# -- engine ------------------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """How to execute: kernel choice and runner knobs.

    Nothing here may change a simulation's *result* (the equivalence
    suite enforces engine bit-identity), which is why no field of this
    spec except ``instrument`` — which changes the payload shape —
    participates in :meth:`RunSpec.content_key`.
    """

    engine: str = "fast"
    instrument: bool = False
    jobs: int | None = None
    reuse_results: bool = False
    #: run the O(chunk)-memory streaming pipeline (chunked trace
    #: delivery -> streaming functional pass -> streaming detailed
    #: engine); bit-identical to the in-memory path for every chunk size
    stream: bool = False
    #: chunk granularity for ``stream`` runs (``None`` = the substrate
    #: default, :data:`repro.trace.vectorgen.DEFAULT_CHUNK_SIZE`)
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        from repro.fastpath import ENGINES

        if self.engine not in ENGINES:
            raise SpecError(
                f"unknown engine {self.engine!r}; one of {ENGINES}")
        if self.jobs is not None and (
                not isinstance(self.jobs, int) or self.jobs < 1):
            raise SpecError("jobs must be a positive integer or null")
        if self.stream and self.engine != "fast":
            raise SpecError(
                "the streaming pipeline is built on the fast kernels; "
                "engine must be 'fast' when stream is set")
        if self.chunk_size is not None and (
                not isinstance(self.chunk_size, int) or self.chunk_size < 1):
            raise SpecError("chunk_size must be a positive integer or null")

    @classmethod
    def from_dict(cls, data: Any) -> "EngineSpec":
        return _construct(
            cls,
            _check_fields(_require_mapping(data, "engine"), cls, "engine"),
            "engine")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# -- telemetry ---------------------------------------------------------------


@dataclass(frozen=True)
class TelemetrySpec:
    """What a run should measure, mirroring
    :class:`repro.telemetry.session.TelemetryConfig`.

    Telemetry only observes — disabled telemetry is zero-cost and
    enabled telemetry is bit-identical (both enforced by tests) — so no
    field participates in :meth:`RunSpec.content_key`.
    """

    enabled: bool = False
    interval: int = 1000
    timeline: bool = True
    events: bool = False
    trace_path: str | None = None
    chrome_path: str | None = None
    sample_rate: float = 1.0
    seed: int = 0
    event_limit: int | None = None
    #: cap timeline storage with the hierarchical rollup recorder
    #: (``None`` keeps the unbounded in-memory timeline)
    max_timeline_rows: int | None = None

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise SpecError("telemetry interval must be >= 1 cycle")
        if not (0.0 < self.sample_rate <= 1.0):
            raise SpecError("telemetry sample_rate must be in (0, 1]")
        if self.max_timeline_rows is not None and (
                not isinstance(self.max_timeline_rows, int)
                or isinstance(self.max_timeline_rows, bool)
                or self.max_timeline_rows < 2):
            raise SpecError("max_timeline_rows must be an integer >= 2 "
                            "or null")

    def to_config(self):
        """A :class:`TelemetryConfig` when enabled, else ``None``."""
        if not self.enabled:
            return None
        from repro.telemetry.session import TelemetryConfig

        return TelemetryConfig(
            interval=self.interval,
            timeline=self.timeline,
            events=self.events or bool(self.trace_path or self.chrome_path),
            trace_path=self.trace_path,
            chrome_path=self.chrome_path,
            sample_rate=self.sample_rate,
            seed=self.seed,
            event_limit=self.event_limit,
            max_timeline_rows=self.max_timeline_rows,
        )

    @classmethod
    def from_dict(cls, data: Any) -> "TelemetrySpec":
        return _construct(
            cls,
            _check_fields(
                _require_mapping(data, "telemetry"), cls, "telemetry"),
            "telemetry")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# -- observability -----------------------------------------------------------


@dataclass(frozen=True)
class ObsSpec:
    """Wall-clock span collection knobs, mirroring :mod:`repro.obs`.

    Spans time the host machine, never the simulated one, and the
    collection sites never touch simulation state — obs off is
    zero-overhead and obs on is bit-identical (both enforced by the
    equivalence suite) — so no field participates in
    :meth:`RunSpec.content_key`.
    """

    enabled: bool = False
    #: write drained spans as JSONL here after the run
    trace_path: str | None = None
    #: write drained spans as a Chrome ``trace_event`` document here
    chrome_path: str | None = None

    @classmethod
    def from_dict(cls, data: Any) -> "ObsSpec":
        return _construct(
            cls,
            _check_fields(_require_mapping(data, "obs"), cls, "obs"),
            "obs")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# -- the run spec ------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One fully-described run: machine + workload + engine + telemetry."""

    workload: WorkloadSpec
    machine: MachineSpec = field(default_factory=MachineSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    obs: ObsSpec = field(default_factory=ObsSpec)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec_schema": SPEC_SCHEMA,
            "machine": self.machine.to_dict(),
            "workload": self.workload.to_dict(),
            "engine": self.engine.to_dict(),
            "telemetry": self.telemetry.to_dict(),
            "obs": self.obs.to_dict(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Any) -> "RunSpec":
        out = _require_mapping(data, "spec")
        schema = out.pop("spec_schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise SpecError(
                f"unsupported spec_schema {schema!r} (this release reads "
                f"{SPEC_SCHEMA})"
            )
        unknown = set(out) - {
            "machine", "workload", "engine", "telemetry", "obs"}
        if unknown:
            raise SpecError(f"unknown spec section(s): {sorted(unknown)}")
        if "workload" not in out:
            raise SpecError("a spec requires a 'workload' section")
        return cls(
            workload=WorkloadSpec.from_dict(out["workload"]),
            machine=MachineSpec.from_dict(out.get("machine", {})),
            engine=EngineSpec.from_dict(out.get("engine", {})),
            telemetry=TelemetrySpec.from_dict(out.get("telemetry", {})),
            obs=ObsSpec.from_dict(out.get("obs", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- keying ----------------------------------------------------------

    def canonical(self) -> dict:
        """Fully-resolved canonical form (workload seed resolved)."""
        out = self.to_dict()
        out["workload"] = self.workload.canonical()
        return out

    def result_recipe(self) -> dict:
        """What the simulation *result* is a pure function of.

        The machine, the resolved workload, and the ``instrument`` flag
        (it changes the stored payload).  Engine and telemetry are
        excluded — see the class docstrings for why that exclusion is
        sound, and the equivalence suite for the tests that keep it so.
        """
        return {
            "spec_schema": SPEC_SCHEMA,
            "machine": self.machine.canonical(),
            "workload": self.workload.canonical(),
            "instrument": self.engine.instrument,
        }

    def content_key(self) -> str:
        """The artifact-cache key of this run's simulation result.

        This single key is shared by in-process execution
        (``execute_spec``), the parallel runner, and the evaluation
        service — one spec, one key, wherever it is evaluated.
        """
        from repro.runner.artifacts import artifact_key

        return artifact_key("result", self.result_recipe())


# -- sweeps ------------------------------------------------------------------


def _set_dotted(spec: RunSpec, path: str, value: Any) -> RunSpec:
    """Replace a dotted-path field, e.g. ``machine.window_size``."""
    parts = path.split(".")
    if len(parts) < 2 or parts[0] not in (
            "machine", "workload", "engine", "telemetry", "obs"):
        raise SpecError(
            f"sweep axis {path!r} must start with a spec section "
            "(machine/workload/engine/telemetry/obs)"
        )
    # walk to the owner of the leaf field, then rebuild outward
    objs = [spec]
    for name in parts[:-1]:
        obj = objs[-1]
        if not hasattr(obj, name):
            raise SpecError(f"sweep axis {path!r}: no field {name!r}")
        objs.append(getattr(obj, name))
    leaf = parts[-1]
    if not dataclasses.is_dataclass(objs[-1]) or not hasattr(objs[-1], leaf):
        raise SpecError(f"sweep axis {path!r}: no field {leaf!r}")
    try:
        rebuilt = replace(objs[-1], **{leaf: value})
        for obj, name in zip(reversed(objs[:-1]), reversed(parts[:-1])):
            rebuilt = replace(obj, **{name: rebuilt})
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"sweep axis {path!r}={value!r}: {exc}") from exc
    return rebuilt


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid over a base :class:`RunSpec`.

    ``benchmarks`` (outermost axis) swaps the workload benchmark;
    ``axes`` maps dotted field paths (``"machine.window_size"``) to the
    values to sweep.  :meth:`expand` yields the full cross product in
    deterministic order: benchmarks first, then axes in insertion
    order, each axis's values in the given order.
    """

    base: RunSpec
    benchmarks: tuple = ()
    axes: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(
            self, "axes", {k: tuple(v) for k, v in dict(self.axes).items()})
        for path, values in self.axes.items():
            if not values:
                raise SpecError(f"sweep axis {path!r} has no values")
            _set_dotted(self.base, path, values[0])  # validate the path

    def expand(self) -> list[RunSpec]:
        """The grid of :class:`RunSpec` points, in deterministic order."""
        points = [self.base]
        if self.benchmarks:
            points = [
                replace(p, workload=p.workload.with_benchmark(b))
                for b in self.benchmarks
                for p in points
            ]
        for path, values in self.axes.items():
            points = [
                _set_dotted(p, path, v) for p in points for v in values
            ]
        return points

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "benchmarks": list(self.benchmarks),
            "axes": {k: list(v) for k, v in self.axes.items()},
        }

    @classmethod
    def from_dict(cls, data: Any) -> "SweepSpec":
        out = _check_fields(_require_mapping(data, "sweep"), cls, "sweep")
        if "base" not in out:
            raise SpecError("a sweep requires a 'base' spec")
        out["base"] = RunSpec.from_dict(out["base"])
        return _construct(cls, out, "sweep")
