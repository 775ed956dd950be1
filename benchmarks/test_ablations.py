"""Ablation benchmarks for the model's design choices.

Each ablation varies one modeling decision and reports the headline
model-vs-simulation CPI error across the suite, so the contribution of
each choice is visible:

* **Branch burst policy** — isolated (Eq. 2), clustered (ΔP only), the
  paper's midpoint, and the §7 burst-aware extension.
* **Overlap window** — Eq. 8 groups long misses within ``rob_size``
  instructions; the ablation sweeps the window to show the sensitivity
  (the paper calls overlap handling its "weak link").
* **Functional warming** — model inputs with and without the warm-up
  pass, showing why cold-start statistics are unusable on short traces.
"""

import pytest

from repro.config import BASELINE
from repro.core.branch_penalty import BurstPolicy
from repro.core.model import FirstOrderModel
from repro.core.steady_state import build_characteristic
from repro.extensions.branch_bursts import burst_aware_branch_cpi
from repro.frontend.collector import CollectorConfig, MissEventCollector
from repro.simulator.processor import DetailedSimulator
from repro.trace.profiles import BENCHMARK_ORDER
from repro.trace.synthetic import generate_trace

LENGTH = 30_000


@pytest.fixture(scope="module")
def suite():
    """(trace, profile, characteristic, simulated CPI) per benchmark."""
    rows = {}
    collector = MissEventCollector(CollectorConfig.of(BASELINE))
    for name in BENCHMARK_ORDER:
        trace = generate_trace(name, LENGTH)
        profile = collector.collect(trace)
        characteristic = build_characteristic(trace, BASELINE, profile)
        sim = DetailedSimulator(BASELINE.all_real(),
                                instrument=False).run(trace)
        rows[name] = (trace, profile, characteristic, sim.cpi)
    return rows


def mean_abs_error(estimates, references):
    return sum(
        abs(e - r) / r for e, r in zip(estimates, references)
    ) / len(estimates)


def test_ablation_branch_burst_policy(suite, benchmark):
    def run():
        errors = {}
        model = FirstOrderModel(BASELINE)
        for policy in BurstPolicy:
            ests, refs = [], []
            for trace, profile, ch, sim_cpi in suite.values():
                m = FirstOrderModel(BASELINE, branch_policy=policy)
                ests.append(m.evaluate(profile, ch).cpi)
                refs.append(sim_cpi)
            errors[policy.value] = mean_abs_error(ests, refs)
        # the burst-aware extension, substituted for the branch term
        ests, refs = [], []
        for trace, profile, ch, sim_cpi in suite.values():
            report = model.evaluate(profile, ch)
            bm = model.branch_model(ch)
            aware = (
                report.cpi - report.cpi_branch
                + burst_aware_branch_cpi(profile, bm)
            )
            ests.append(aware)
            refs.append(sim_cpi)
        errors["burst_aware"] = mean_abs_error(ests, refs)
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for variant, err in sorted(errors.items(), key=lambda kv: kv[1]):
        print(f"  branch policy {variant:12s}: mean |CPI error| {err:.1%}")
    # every reasonable policy stays first-order; the extremes bracket
    assert errors["midpoint"] < 0.15
    assert errors["burst_aware"] < 0.15


def test_ablation_overlap_window(suite, benchmark):
    def run():
        errors = {}
        for window in (16, 64, 128, 256, 512):
            ests, refs = [], []
            for trace, profile, ch, sim_cpi in suite.values():
                report = FirstOrderModel(BASELINE).evaluate(profile, ch)
                dm = FirstOrderModel(BASELINE).dcache_model()
                cpi_d = (
                    profile.dcache_long_per_instruction
                    * dm.isolated_penalty
                    * profile.overlap_factor(window)
                )
                ests.append(report.cpi - report.cpi_dcache + cpi_d)
                refs.append(sim_cpi)
            errors[window] = mean_abs_error(ests, refs)
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for window, err in errors.items():
        marker = " (paper: rob_size)" if window == BASELINE.rob_size else ""
        print(f"  overlap window {window:4d}: mean |CPI error| "
              f"{err:.1%}{marker}")
    assert errors[BASELINE.rob_size] < 0.15


def test_ablation_functional_warming(suite, benchmark):
    def run():
        errors = {}
        for passes in (0, 1):
            collector = MissEventCollector(
                CollectorConfig.of(BASELINE, warmup_passes=passes))
            ests, refs = [], []
            for name, (trace, _, ch, sim_cpi) in suite.items():
                profile = collector.collect(trace)
                ests.append(
                    FirstOrderModel(BASELINE).evaluate(profile, ch).cpi
                )
                refs.append(sim_cpi)
            errors[passes] = mean_abs_error(ests, refs)
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for passes, err in errors.items():
        print(f"  warmup passes {passes}: mean |CPI error| {err:.1%}")
    # cold statistics overcharge every miss class on short traces
    assert errors[1] < errors[0]
