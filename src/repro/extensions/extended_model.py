"""The extended first-order model: all §7 features behind one API.

Composes the base Eq. 1 model with the implemented future-work features:

* burst-aware branch misprediction charging (secondary statistics),
* fetch-buffer hiding of I-cache miss delay,
* a TLB miss-event class modeled like long data-cache misses,
* functional-unit-pool saturation of the IW characteristic.

Every feature is optional; with all disabled the result equals the base
:class:`~repro.core.model.FirstOrderModel` exactly, which the tests
assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BASELINE, MachineSpec
from repro.core.branch_penalty import BurstPolicy
from repro.core.model import FirstOrderModel, ModelReport
from repro.core.steady_state import build_characteristic
from repro.extensions.branch_bursts import burst_aware_branch_cpi
from repro.extensions.fetch_buffer import FetchBuffer, icache_cpi_with_buffer
from repro.extensions.limited_fu import (
    FunctionalUnitPool,
    saturation_with_limited_units,
)
from repro.extensions.tlb import TLBConfig, collect_tlb_misses, tlb_cpi
from repro.frontend.events import MissEventProfile
from repro.trace.trace import Trace
from repro.window.characteristic import IWCharacteristic


@dataclass(frozen=True)
class ExtendedReport:
    """Base report plus the extension adders/substitutions."""

    base: ModelReport
    cpi_branch: float
    cpi_icache: float
    cpi_tlb: float

    @property
    def cpi(self) -> float:
        return (
            self.base.cpi_steady
            + self.cpi_branch
            + self.cpi_icache
            + self.base.cpi_dcache
            + self.cpi_tlb
        )

    @property
    def ipc(self) -> float:
        return 1.0 / self.cpi


@dataclass
class ExtendedFirstOrderModel:
    """Eq. 1 with the §7 extensions toggled individually.

    Attributes:
        config: the machine.
        burst_aware_branches: replace the fixed burst policy with
            measured secondary misprediction statistics.
        fetch_buffer: when set, hides part of every I-miss delay.
        tlb: when set, adds a TLB miss-event class.
        fu_pool: when set, clamps the IW characteristic at the pool's
            sustainable issue rate.
    """

    config: MachineSpec = BASELINE
    branch_policy: BurstPolicy = BurstPolicy.MIDPOINT
    burst_aware_branches: bool = False
    fetch_buffer: FetchBuffer | None = None
    tlb: TLBConfig | None = None
    fu_pool: FunctionalUnitPool | None = None

    def evaluate_trace(self, trace: Trace) -> ExtendedReport:
        profile = FirstOrderModel(self.config).profile(trace)
        characteristic = build_characteristic(trace, self.config, profile)
        return self.evaluate(trace, profile, characteristic)

    def evaluate(
        self,
        trace: Trace,
        profile: MissEventProfile,
        characteristic: IWCharacteristic,
    ) -> ExtendedReport:
        if self.fu_pool is not None:
            characteristic = saturation_with_limited_units(
                characteristic, profile.trace_stats.mix, self.fu_pool,
                self.config.latency_table,
            )
        base_model = FirstOrderModel(self.config, self.branch_policy)
        base = base_model.evaluate(profile, characteristic)

        cpi_branch = base.cpi_branch
        if self.burst_aware_branches:
            cpi_branch = burst_aware_branch_cpi(
                profile, base_model.branch_model(characteristic)
            )

        cpi_icache = base.cpi_icache
        if self.fetch_buffer is not None:
            cpi_icache = icache_cpi_with_buffer(
                profile,
                self.fetch_buffer,
                self.config.hierarchy.l2_latency,
                self.config.hierarchy.memory_latency,
                base.steady_state_ipc,
            )

        cpi_tlb = 0.0
        if self.tlb is not None:
            tlb_profile = collect_tlb_misses(trace, self.tlb)
            cpi_tlb = tlb_cpi(tlb_profile, self.config.rob_size, self.tlb)

        return ExtendedReport(
            base=base,
            cpi_branch=cpi_branch,
            cpi_icache=cpi_icache,
            cpi_tlb=cpi_tlb,
        )
