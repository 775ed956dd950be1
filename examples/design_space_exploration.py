#!/usr/bin/env python3
"""Design-space exploration with the analytical model.

The model's headline advantage over detailed simulation is speed: a CPI
estimate costs one functional trace pass plus closed-form math, so large
design spaces become tractable.  This example sweeps window size, ROB
size, pipeline depth and issue width for one workload, prints the CPI
surface, and demonstrates the speed gap by timing the model against the
detailed simulator on the same configurations.

This is the use case the paper's §6 studies are built on: "Analytical
models have clear speed advantages, but also, if well-constructed, they
can provide valuable insight."

Run:  python examples/design_space_exploration.py [benchmark]
"""

import dataclasses
import itertools
import sys
import time

from repro import (
    BASELINE,
    FirstOrderModel,
    IWCharacteristic,
    collect_events,
    fit_curve,
    generate_trace,
    measure_iw_curve,
    simulate,
)

WINDOW_SIZES = (16, 32, 48, 64)
DEPTHS = (5, 9, 15)
WIDTHS = (2, 4, 8)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gzip"
    trace = generate_trace(benchmark, 30_000)

    # one functional pass and one IW fit amortise over the whole sweep:
    # the unit-latency power law is implementation-independent (paper §3),
    # so the per-configuration model cost is pure arithmetic
    profile = collect_events(trace)
    fit = fit_curve(measure_iw_curve(trace))
    latency = profile.effective_mean_latency(
        BASELINE.latency_table, BASELINE.hierarchy.l2_latency
    )

    t0 = time.perf_counter()
    rows = []
    for width, depth, window in itertools.product(
        WIDTHS, DEPTHS, WINDOW_SIZES
    ):
        cfg = dataclasses.replace(
            BASELINE, width=width, pipeline_depth=depth,
            window_size=window, rob_size=max(128, 2 * window),
        )
        characteristic = IWCharacteristic.from_fit(
            fit, latency=latency, issue_width=width
        )
        report = FirstOrderModel(cfg).evaluate(profile, characteristic)
        rows.append((width, depth, window, report.cpi))
    model_time = time.perf_counter() - t0

    print(f"{benchmark}: {len(rows)} configurations, model time "
          f"{model_time:.2f}s")
    print(f"{'width':>5} {'depth':>5} {'window':>6} {'CPI':>7}")
    best = min(rows, key=lambda r: r[3])
    for width, depth, window, cpi in rows:
        marker = "  <= best" if (width, depth, window, cpi) == best else ""
        print(f"{width:5d} {depth:5d} {window:6d} {cpi:7.3f}{marker}")

    # the detailed simulator on just three of those points, for scale
    t0 = time.perf_counter()
    for width, depth, window, _ in rows[:3]:
        cfg = dataclasses.replace(
            BASELINE, width=width, pipeline_depth=depth,
            window_size=window, rob_size=max(128, 2 * window),
        )
        simulate(trace, cfg, instrument=False)
    sim_time = (time.perf_counter() - t0) / 3 * len(rows)
    print(f"\nprojected detailed-simulation time for the same sweep: "
          f"{sim_time:.1f}s ({sim_time / max(model_time, 1e-9):.0f}x the "
          "model)")


if __name__ == "__main__":
    main()
