"""The modeled machine: one typed, frozen, serializable description.

A :class:`MachineSpec` describes the first-order superscalar machine of
paper §1: front-end depth ΔP; a single parameter *i* for
fetch/dispatch/issue/retire width; an issue window separate from the ROB;
unbounded functional units with per-class latencies; two-level caches
(:class:`HierarchySpec` of :class:`CacheSpec` geometries) and a named
direction predictor.  The analytical model, the detailed simulators, the
functional pass, the runner, the service and the content keys all take
this same object, so comparisons are always like-for-like.

Defaults reproduce the paper's baseline (§1.1): 4 KB 4-way L1
instruction and data caches with 128-byte lines, a unified 512 KB 4-way
L2 with 128-byte lines, an 8-cycle L2 access delay (the paper's ΔI for
L1 misses), a 200-cycle memory delay (the paper's ΔD for long misses)
and an 8K gShare.

Every constructor validates: integer fields must be non-bool ``int``,
``ideal_*`` flags must be ``bool``, and any violation raises
:class:`SpecError` — so a malformed spec file fails at load time, never
deep inside an engine, and one result can never be cached under two
spellings of the same machine.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from repro.branch import (
    Bimodal,
    GShare,
    IdealPredictor,
    LocalHistory,
    PessimalPredictor,
    StaticPredictor,
    Tournament,
)
from repro.isa.latency import DEFAULT_LATENCIES, LatencyTable
from repro.isa.opclass import OpClass

#: named direction predictors a machine can select
PREDICTORS: dict[str, Callable] = {
    "gshare": GShare,
    "bimodal": Bimodal,
    "static": StaticPredictor,
    "ideal": IdealPredictor,
    "pessimal": PessimalPredictor,
    "local": LocalHistory,
    "tournament": Tournament,
}


class SpecError(ValueError):
    """A spec could not be validated, parsed, or derived."""


def _require_mapping(data: Any, what: str) -> dict:
    if not isinstance(data, Mapping):
        raise SpecError(f"{what} must be a JSON object, got "
                        f"{type(data).__name__}")
    return dict(data)


def _check_fields(data: dict, cls: type, what: str) -> dict:
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise SpecError(f"unknown {what} field(s): {sorted(unknown)}; "
                        f"expected a subset of {sorted(allowed)}")
    return data


def _construct(cls, data: dict, what: str):
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"invalid {what}: {exc}") from exc


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_types(obj, what: str, ints: tuple[str, ...],
                 flags: tuple[str, ...] = ()) -> None:
    for name in ints:
        value = getattr(obj, name)
        if not _is_int(value):
            raise SpecError(f"invalid {what}: {name} must be an integer, "
                            f"got {value!r}")
    for name in flags:
        value = getattr(obj, name)
        if not isinstance(value, bool):
            raise SpecError(f"invalid {what}: {name} must be a boolean, "
                            f"got {value!r}")


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


# -- caches ------------------------------------------------------------------


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of one set-associative cache."""

    size_bytes: int
    associativity: int = 4
    line_bytes: int = 128

    def __post_init__(self) -> None:
        names = ("size_bytes", "associativity", "line_bytes")
        _check_types(self, "cache geometry", names)
        for name in names:
            v = getattr(self, name)
            if not _is_pow2(v):
                raise SpecError(f"invalid cache geometry: {name} must be a "
                                f"positive power of two, got {v}")
        if self.size_bytes < self.associativity * self.line_bytes:
            raise SpecError(
                "invalid cache geometry: cache smaller than one set "
                f"({self.size_bytes} < {self.associativity * self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def set_index(self, addr: int) -> int:
        return (addr // self.line_bytes) % self.num_sets

    def tag(self, addr: int) -> int:
        return addr // (self.line_bytes * self.num_sets)

    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    @classmethod
    def from_dict(cls, data: Any) -> "CacheSpec":
        return _construct(
            cls, _check_fields(_require_mapping(data, "cache"), cls, "cache"),
            "cache geometry")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class HierarchySpec:
    """Two-level hierarchy: split L1s over a unified L2.

    Attributes:
        l2_latency: extra cycles to fetch from L2 on an L1 miss — the
            paper's ΔI and the short-miss load latency.
        memory_latency: extra cycles to fetch from memory on an L2 miss —
            the paper's ΔD (long-miss delay).
        ideal_icache / ideal_dcache: when True, the corresponding L1
            always hits (the paper's "everything ideal except ..."
            simulation configurations).
    """

    l1i: CacheSpec = field(default_factory=lambda: CacheSpec(4 * 1024))
    l1d: CacheSpec = field(default_factory=lambda: CacheSpec(4 * 1024))
    l2: CacheSpec = field(default_factory=lambda: CacheSpec(512 * 1024))
    l2_latency: int = 8
    memory_latency: int = 200
    ideal_icache: bool = False
    ideal_dcache: bool = False

    def __post_init__(self) -> None:
        for name in ("l1i", "l1d", "l2"):
            if not isinstance(getattr(self, name), CacheSpec):
                raise SpecError(f"invalid hierarchy: {name} must be a "
                                "cache geometry")
        _check_types(self, "hierarchy", ("l2_latency", "memory_latency"),
                     ("ideal_icache", "ideal_dcache"))
        if self.l2_latency < 1 or self.memory_latency < 1:
            raise SpecError("invalid hierarchy: latencies must be >= 1 cycle")
        if self.memory_latency <= self.l2_latency:
            raise SpecError(
                "invalid hierarchy: memory latency must exceed L2 latency")

    def ideal(self) -> "HierarchySpec":
        """Copy with both L1s made ideal."""
        return replace(self, ideal_icache=True, ideal_dcache=True)

    def with_ideal(self, icache: bool | None = None,
                   dcache: bool | None = None) -> "HierarchySpec":
        """Copy with the given ideal flags overridden."""
        return replace(
            self,
            ideal_icache=self.ideal_icache if icache is None else icache,
            ideal_dcache=self.ideal_dcache if dcache is None else dcache,
        )

    @classmethod
    def from_dict(cls, data: Any) -> "HierarchySpec":
        out = _check_fields(
            _require_mapping(data, "hierarchy"), cls, "hierarchy")
        for name in ("l1i", "l1d", "l2"):
            if name in out:
                out[name] = CacheSpec.from_dict(out[name])
        return _construct(cls, out, "hierarchy")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# -- the machine -------------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """The modeled machine.

    Attributes:
        pipeline_depth: front-end depth ΔP in cycles (fetch to dispatch).
        width: the paper's *i* — fetch, dispatch, maximum issue and
            retire width.
        window_size: issue-window entries (baseline 48).
        rob_size: reorder-buffer entries (baseline 128).
        predictor: names an entry of :data:`PREDICTORS` (paper baseline
            8K gShare).
        ideal_predictor: when True no branch mispredicts.
        hierarchy: cache geometry/latencies and ideal flags.
        latencies: lower-case opclass names to cycle counts, defaulting
            to the package's SimpleScalar-flavoured table.
    """

    pipeline_depth: int = 5
    width: int = 4
    window_size: int = 48
    rob_size: int = 128
    predictor: str = "gshare"
    ideal_predictor: bool = False
    hierarchy: HierarchySpec = field(default_factory=HierarchySpec)
    latencies: Mapping[str, int] = field(
        default_factory=lambda: {
            c.name.lower(): l for c, l in DEFAULT_LATENCIES.items()
        }
    )

    def __post_init__(self) -> None:
        _check_types(self, "machine",
                     ("pipeline_depth", "width", "window_size", "rob_size"),
                     ("ideal_predictor",))
        if not isinstance(self.predictor, str) or (
                self.predictor not in PREDICTORS):
            raise SpecError(
                f"unknown predictor {self.predictor!r}; one of "
                + ", ".join(sorted(PREDICTORS))
            )
        if not isinstance(self.hierarchy, HierarchySpec):
            raise SpecError("invalid machine: hierarchy must be a "
                            "cache hierarchy")
        for name in ("pipeline_depth", "width", "window_size"):
            if getattr(self, name) < 1:
                raise SpecError(f"invalid machine: {name} must be >= 1")
        if self.rob_size < self.window_size:
            raise SpecError(
                "invalid machine: rob_size must be >= window_size "
                "(the ROB backs the window)"
            )
        object.__setattr__(self, "latencies", dict(self.latencies))
        for name, lat in self.latencies.items():
            if not _is_int(lat):
                raise SpecError(f"invalid latencies: {name} must be an "
                                f"integer, got {lat!r}")
        self.latency_table  # build (and validate) the table once

    @functools.cached_property
    def latency_table(self) -> LatencyTable:
        """The functional-unit :class:`LatencyTable` of ``latencies``."""
        try:
            return LatencyTable({
                OpClass[name.upper()]: lat
                for name, lat in self.latencies.items()
            })
        except KeyError as exc:
            raise SpecError(f"unknown opclass in latencies: {exc}") from exc
        except ValueError as exc:
            raise SpecError(f"invalid latencies: {exc}") from exc

    @property
    def predictor_factory(self) -> Callable:
        """Builds a fresh direction predictor of this machine."""
        return PREDICTORS[self.predictor]

    def to_config(self) -> "MachineSpec":
        """This machine (the spec is the engine input).

        Kept only because the benchmark harness in ``perfbench/`` calls
        it; nothing in the package does.
        """
        return self

    # -- the paper's five Figure-2 configurations -----------------------

    def all_ideal(self) -> "MachineSpec":
        """Ideal caches and ideal predictor (simulation 1 of §1.1)."""
        return replace(
            self, hierarchy=self.hierarchy.ideal(), ideal_predictor=True
        )

    def all_real(self) -> "MachineSpec":
        """Real caches and predictor (simulation 2)."""
        return replace(
            self,
            hierarchy=self.hierarchy.with_ideal(icache=False, dcache=False),
            ideal_predictor=False,
        )

    def only_real_predictor(self) -> "MachineSpec":
        """Ideal caches, real predictor (simulation 3)."""
        return replace(
            self, hierarchy=self.hierarchy.ideal(), ideal_predictor=False
        )

    def only_real_icache(self) -> "MachineSpec":
        """Real I-cache, ideal D-cache and predictor (simulation 4)."""
        return replace(
            self,
            hierarchy=self.hierarchy.with_ideal(icache=False, dcache=True),
            ideal_predictor=True,
        )

    def only_real_dcache(self) -> "MachineSpec":
        """Real D-cache, ideal I-cache and predictor (simulation 5)."""
        return replace(
            self,
            hierarchy=self.hierarchy.with_ideal(icache=True, dcache=False),
            ideal_predictor=True,
        )

    def with_depth(self, pipeline_depth: int) -> "MachineSpec":
        return replace(self, pipeline_depth=pipeline_depth)

    def with_width(self, width: int) -> "MachineSpec":
        return replace(self, width=width)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: Any) -> "MachineSpec":
        out = _check_fields(_require_mapping(data, "machine"), cls, "machine")
        if "hierarchy" in out:
            out["hierarchy"] = HierarchySpec.from_dict(out["hierarchy"])
        return _construct(cls, out, "machine")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["latencies"] = dict(sorted(self.latencies.items()))
        return out

    def canonical(self) -> dict:
        """The keying form: plain data, fully sorted."""
        return self.to_dict()


#: the paper's baseline machine (§1.1)
BASELINE = MachineSpec()
