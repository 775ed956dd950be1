"""The first-order superscalar processor model (paper Eq. 1, §5).

``CPI = CPI_steadystate + CPI_brmisp + CPI_icachemiss + CPI_dcachemiss``

The model's evaluation recipe follows §5 exactly:

1. steady-state IPC from the IW characteristic, mean latency and
   Little's law;
2. branch misprediction penalty from the drain/refill/ramp transient,
   taken as the midpoint between the isolated and fully-clustered
   extremes;
3. L1 instruction-miss penalty = ΔI, L2 instruction-miss penalty = ΔD;
4. long data-cache miss penalty = ΔD × the Eq. 8 overlap factor;
5. miss-event counts from functional trace-driven simulation;
6. the CPI adders summed per Eq. 1, with no compensation for branch /
   I-miss events overlapped by data misses (a second-order effect).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BASELINE, MachineSpec
from repro.core.branch_penalty import BranchPenaltyModel, BurstPolicy
from repro.core.dcache_penalty import DCachePenaltyModel
from repro.core.icache_penalty import ICachePenaltyModel
from repro.core.stack import CPIStack
from repro.core.steady_state import build_characteristic
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.frontend.events import MissEventProfile
from repro.trace.trace import Trace
from repro.window.characteristic import IWCharacteristic


@dataclass(frozen=True)
class ModelReport:
    """Model output for one workload on one machine.

    CPI components follow Eq. 1, with the instruction-cache term split by
    missing level (as in the Figure 16 stack).
    """

    name: str
    config: MachineSpec
    characteristic: IWCharacteristic
    cpi_steady: float
    cpi_branch: float
    cpi_icache_l1: float
    cpi_icache_l2: float
    cpi_dcache: float
    branch_penalty_per_event: float
    dcache_penalty_per_miss: float
    overlap_factor: float

    @property
    def cpi_icache(self) -> float:
        """CPI_icachemiss of Eq. 1 (both miss levels)."""
        return self.cpi_icache_l1 + self.cpi_icache_l2

    @property
    def cpi(self) -> float:
        """Eq. 1 total."""
        return (
            self.cpi_steady + self.cpi_branch + self.cpi_icache
            + self.cpi_dcache
        )

    @property
    def ipc(self) -> float:
        return 1.0 / self.cpi

    @property
    def steady_state_ipc(self) -> float:
        return 1.0 / self.cpi_steady

    def stack(self) -> CPIStack:
        """Figure-16 style additive decomposition."""
        return CPIStack(
            name=self.name,
            ideal=self.cpi_steady,
            l1_icache=self.cpi_icache_l1,
            l2_icache=self.cpi_icache_l2,
            l2_dcache=self.cpi_dcache,
            branch=self.cpi_branch,
        )


class FirstOrderModel:
    """Evaluates Eq. 1 for miss-event profiles on a configured machine."""

    def __init__(
        self,
        config: MachineSpec | None = None,
        branch_policy: BurstPolicy = BurstPolicy.MIDPOINT,
    ):
        self.config = config or BASELINE
        self.branch_policy = branch_policy

    # -- sub-models --------------------------------------------------------

    def branch_model(
        self, characteristic: IWCharacteristic
    ) -> BranchPenaltyModel:
        cfg = self.config
        return BranchPenaltyModel.build(
            characteristic, cfg.pipeline_depth, cfg.width, cfg.window_size
        )

    def icache_model(
        self, characteristic: IWCharacteristic, miss_delay: float
    ) -> ICachePenaltyModel:
        cfg = self.config
        return ICachePenaltyModel.build(
            characteristic, miss_delay, cfg.pipeline_depth, cfg.width,
            cfg.window_size,
        )

    def dcache_model(self) -> DCachePenaltyModel:
        cfg = self.config
        return DCachePenaltyModel(
            miss_delay=cfg.hierarchy.memory_latency, rob_size=cfg.rob_size
        )

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        profile: MissEventProfile,
        characteristic: IWCharacteristic,
    ) -> ModelReport:
        """Combine a measured miss-event profile with an IW characteristic
        into the Eq. 1 CPI estimate."""
        cfg = self.config
        n = profile.length

        cpi_steady = characteristic.steady_state_cpi(cfg.window_size)

        branch = self.branch_model(characteristic)
        branch_penalty = branch.penalty(self.branch_policy)
        cpi_branch = branch.cpi_contribution(
            profile.mispredictions_per_instruction, self.branch_policy
        )

        cpi_icache_l1 = (
            profile.icache_short_per_instruction * cfg.hierarchy.l2_latency
        )
        cpi_icache_l2 = (
            profile.icache_long_per_instruction * cfg.hierarchy.memory_latency
        )

        dcache = self.dcache_model()
        overlap = profile.overlap_factor(cfg.rob_size)
        dcache_penalty = dcache.penalty_from_profile(profile)
        cpi_dcache = dcache.cpi_contribution(profile)

        return ModelReport(
            name=profile.name,
            config=cfg,
            characteristic=characteristic,
            cpi_steady=cpi_steady,
            cpi_branch=cpi_branch,
            cpi_icache_l1=cpi_icache_l1,
            cpi_icache_l2=cpi_icache_l2,
            cpi_dcache=cpi_dcache,
            branch_penalty_per_event=branch_penalty,
            dcache_penalty_per_miss=dcache_penalty,
            overlap_factor=overlap,
        )

    def evaluate_trace(self, trace: Trace) -> ModelReport:
        """End-to-end: functional collection, IW fit, then Eq. 1."""
        profile = MissEventCollector(
            CollectorConfig.of(self.config)).collect(trace)
        characteristic = build_characteristic(trace, self.config, profile)
        return self.evaluate(profile, characteristic)
