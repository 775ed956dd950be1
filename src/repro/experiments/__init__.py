"""Paper-reproduction experiments, one module per figure/table.

Every module exposes ``run(...) -> <Result>`` where the result offers
``format()`` (the paper-style rows) and ``checks()`` (the paper's
qualitative claims evaluated on the measured data).  Run one with
``python -m repro experiment fig15_overall``.

| module                | paper artifact |
|-----------------------|----------------|
| fig02_independence    | Figure 2  — miss-event independence |
| tab01_powerlaw        | Table 1   — power-law parameters |
| fig04_iw_curves       | Figure 4  — IW curves, all benchmarks |
| fig05_fit             | Figure 5  — log-log fit quality |
| fig06_limited_width   | Figure 6  — issue-width saturation |
| fig08_transient       | Figure 8  — misprediction transient |
| fig09_brpenalty       | Figure 9  — branch penalty, 5 vs 9 stages |
| fig11_icache          | Figure 11 — I-miss penalty ≈ ΔI |
| fig14_dcache          | Figure 14 — long-miss penalty vs Eq. 8 |
| fig15_overall         | Figure 15 — model vs simulation CPI |
| fig16_stack           | Figure 16 — CPI stacks |
| fig17_pipeline_depth  | Figure 17 — pipeline-depth trends |
| fig18_issue_width     | Figure 18 — prediction vs issue width |
| fig19_ramp            | Figure 19 — inter-misprediction ramp |
| val_assumptions       | §4.1/§4.3 in-text assumption checks |
| val_additivity        | Eq. 1 — measured vs modeled CPI stack |
| val_corun             | shared-L2 co-runs — model accuracy under contention |
| cmp_statsim           | §1.2 — model vs statistical simulation |
| sens_config           | robustness across machine configurations |
| sens_predictor        | robustness across predictor quality |
| sens_length           | stability of inputs/accuracy vs trace length |
"""

from repro.experiments import (
    cmp_statsim,
    sens_config,
    sens_length,
    sens_predictor,
    fig02_independence,
    tab01_powerlaw,
    fig04_iw_curves,
    fig05_fit,
    fig06_limited_width,
    fig08_transient,
    fig09_brpenalty,
    fig11_icache,
    fig14_dcache,
    fig15_overall,
    fig16_stack,
    fig17_pipeline_depth,
    fig18_issue_width,
    fig19_ramp,
    val_additivity,
    val_assumptions,
    val_corun,
)
from repro.experiments.common import Claim, cached_trace, format_table
from repro.experiments.runner import Report, run_all

#: all experiment modules in paper order
ALL_EXPERIMENTS = (
    fig02_independence,
    tab01_powerlaw,
    fig04_iw_curves,
    fig05_fit,
    fig06_limited_width,
    fig08_transient,
    fig09_brpenalty,
    fig11_icache,
    fig14_dcache,
    fig15_overall,
    fig16_stack,
    fig17_pipeline_depth,
    fig18_issue_width,
    fig19_ramp,
    val_assumptions,
    val_additivity,
    val_corun,
    cmp_statsim,
    sens_config,
    sens_length,
    sens_predictor,
)


def experiment_registry() -> dict:
    """Name → module map accepting both short and full experiment names.

    ``fig15`` and ``fig15_overall`` resolve to the same module; the CLI
    and the evaluation service share this single entry point.
    """
    return {
        m.__name__.split(".")[-1].split("_")[0]: m for m in ALL_EXPERIMENTS
    } | {
        m.__name__.split(".")[-1]: m for m in ALL_EXPERIMENTS
    }


__all__ = [
    "ALL_EXPERIMENTS",
    "Report",
    "experiment_registry",
    "run_all",
    "Claim",
    "cached_trace",
    "format_table",
] + [m.__name__.split(".")[-1] for m in ALL_EXPERIMENTS]
