"""Tests for the full first-order model (Eq. 1) and the CPI stack."""

import pickle

import pytest

from repro.config import BASELINE, CacheSpec, HierarchySpec, MachineSpec
from repro.core.branch_penalty import BurstPolicy
from repro.core.model import FirstOrderModel
from repro.core.stack import CPIStack, STACK_ORDER, render_stacks
from repro.core.steady_state import (
    build_characteristic,
    steady_state_cpi,
    steady_state_ipc,
    unit_iw_fit,
)
from repro.frontend.collector import collect_events
from repro.window.powerlaw import fit_curve


class TestSteadyState:
    def test_characteristic_matches_idealized_sim(self, gzip_trace,
                                                  baseline):
        """The fitted steady state tracks an actual idealized simulation
        at the machine's window size."""
        from repro.window.iw_simulator import LimitedWidthIWSimulator

        profile = collect_events(gzip_trace)
        ch = build_characteristic(gzip_trace, baseline, profile)
        model_ipc = steady_state_ipc(ch, baseline)
        # unit-latency idealized sim with width clamp, scaled by latency
        sim = LimitedWidthIWSimulator(
            baseline.window_size, baseline.width
        ).run(gzip_trace)
        assert model_ipc <= baseline.width
        assert model_ipc == pytest.approx(
            min(sim.ipc, baseline.width) / 1.0, rel=0.6
        )

    def test_cpi_is_reciprocal(self, gzip_trace, baseline):
        ch = build_characteristic(gzip_trace, baseline)
        assert steady_state_cpi(ch, baseline) == pytest.approx(
            1.0 / steady_state_ipc(ch, baseline)
        )

    def test_without_profile_uses_static_latency(self, gzip_trace,
                                                 baseline):
        bare = build_characteristic(gzip_trace, baseline)
        profile = collect_events(gzip_trace)
        full = build_characteristic(gzip_trace, baseline, profile)
        # short misses can only lengthen the effective latency
        assert full.latency >= bare.latency


class TestModelReport:
    @pytest.fixture(scope="class")
    def report(self, gzip_trace):
        return FirstOrderModel(BASELINE).evaluate_trace(gzip_trace)

    def test_eq1_composition(self, report):
        assert report.cpi == pytest.approx(
            report.cpi_steady + report.cpi_branch + report.cpi_icache
            + report.cpi_dcache
        )

    def test_icache_split(self, report):
        assert report.cpi_icache == pytest.approx(
            report.cpi_icache_l1 + report.cpi_icache_l2
        )

    def test_components_nonnegative(self, report):
        for c in (report.cpi_steady, report.cpi_branch,
                  report.cpi_icache_l1, report.cpi_icache_l2,
                  report.cpi_dcache):
            assert c >= 0

    def test_ipc_reciprocal(self, report):
        assert report.ipc == pytest.approx(1.0 / report.cpi)

    def test_steady_state_bounded_by_width(self, report):
        assert report.steady_state_ipc <= BASELINE.width + 1e-9

    def test_overlap_factor_bounds(self, report):
        assert 0 < report.overlap_factor <= 1.0

    def test_branch_penalty_in_paper_band(self, report):
        assert 5 <= report.branch_penalty_per_event <= 12

    def test_stack_matches_report(self, report):
        stack = report.stack()
        assert stack.total == pytest.approx(report.cpi)
        assert stack.ideal == report.cpi_steady
        assert stack.branch == report.cpi_branch


class TestBurstPolicies:
    def test_policy_ordering(self, gzip_trace):
        """clustered <= midpoint <= isolated CPI estimates."""
        cpis = {}
        for policy in BurstPolicy:
            model = FirstOrderModel(BASELINE, branch_policy=policy)
            cpis[policy] = model.evaluate_trace(gzip_trace).cpi
        assert (
            cpis[BurstPolicy.CLUSTERED]
            <= cpis[BurstPolicy.MIDPOINT]
            <= cpis[BurstPolicy.ISOLATED]
        )


class TestConfigSensitivity:
    def test_deeper_pipe_raises_cpi(self, gzip_trace):
        shallow = FirstOrderModel(BASELINE.with_depth(5))
        deep = FirstOrderModel(BASELINE.with_depth(20))
        assert (
            deep.evaluate_trace(gzip_trace).cpi
            > shallow.evaluate_trace(gzip_trace).cpi
        )

    def test_narrow_machine_raises_steady_cpi(self, gzip_trace):
        wide = FirstOrderModel(BASELINE.with_width(4))
        narrow = FirstOrderModel(BASELINE.with_width(1))
        assert (
            narrow.evaluate_trace(gzip_trace).cpi_steady
            > wide.evaluate_trace(gzip_trace).cpi_steady
        )

    def test_ideal_predictor_removes_branch_term(self, gzip_trace):
        import dataclasses

        cfg = dataclasses.replace(BASELINE, ideal_predictor=True)
        report = FirstOrderModel(cfg).evaluate_trace(gzip_trace)
        assert report.cpi_branch == 0.0


#: the benchmark's model sweep: three machines change only the core, two
#: the memory side
SWEEP_MACHINES = (
    BASELINE,
    MachineSpec(pipeline_depth=10),
    MachineSpec(width=2),
    MachineSpec(window_size=96),
    MachineSpec(hierarchy=HierarchySpec(l2=CacheSpec(256 * 1024))),
    MachineSpec(predictor="bimodal"),
)

#: machines whose memo keys must all be told apart
KEYED_MACHINES = SWEEP_MACHINES + (
    BASELINE.all_ideal(),
    BASELINE.all_real(),
    BASELINE.only_real_predictor(),
    BASELINE.only_real_icache(),
    BASELINE.only_real_dcache(),
    BASELINE.with_width(8),
)


class TestPerTraceMemo:
    def test_machine_sweep_measures_each_trace_once(self, gzip_trace,
                                                    counted):
        trace = gzip_trace[:]  # a copy with an empty memo
        for machine in SWEEP_MACHINES:
            FirstOrderModel(machine).evaluate_trace(trace)
        # one unit-latency curve; one pass each for the shared baseline
        # view, the 256 KiB L2 and bimodal
        assert counted == {"iw": 1, "collect": 3}
        for machine in SWEEP_MACHINES:
            FirstOrderModel(machine).evaluate_trace(trace)
        assert counted == {"iw": 1, "collect": 3}

    def test_machine_sweep_fits_each_trace_once(self, gzip_trace,
                                                monkeypatch):
        from repro.core import steady_state

        fits = []

        def counting(curve, *args, **kwargs):
            fits.append(tuple(curve.window_sizes))
            return fit_curve(curve, *args, **kwargs)

        monkeypatch.setattr(steady_state, "fit_curve", counting)
        trace = gzip_trace[:]  # a copy with an empty memo
        for _ in range(2):
            for machine in SWEEP_MACHINES:
                FirstOrderModel(machine).evaluate_trace(trace)
        assert len(fits) == 1
        # the window sizes key the fit: another set is a second fit
        narrow = unit_iw_fit(trace, (2, 4, 8))
        assert fits[1:] == [(2, 4, 8)]
        assert unit_iw_fit(trace, [2, 4, 8]) is narrow
        assert unit_iw_fit(trace) is not narrow
        assert len(fits) == 2

    def test_memoized_reports_equal_fresh_ones(self, gzip_trace):
        shared = gzip_trace[:]
        for machine in KEYED_MACHINES:
            memoized = FirstOrderModel(machine).evaluate_trace(shared)
            fresh = FirstOrderModel(machine).evaluate_trace(gzip_trace[:])
            assert memoized == fresh

    def test_window_sizes_key_the_curve(self, gzip_trace):
        shared = gzip_trace[:]
        build_characteristic(shared, BASELINE)
        narrow = build_characteristic(shared, BASELINE,
                                      window_sizes=(2, 4, 8))
        assert narrow == build_characteristic(gzip_trace[:], BASELINE,
                                              window_sizes=(2, 4, 8))
        assert narrow != build_characteristic(shared, BASELINE)

    def test_profile_is_the_unannotated_pass(self, gzip_trace):
        trace = gzip_trace[:]
        profile = FirstOrderModel().profile(trace)
        assert FirstOrderModel().profile(trace) is profile
        assert profile.annotations is None
        assert pickle.dumps(profile) == pickle.dumps(
            collect_events(gzip_trace[:]))

    def test_slices_start_with_an_empty_memo(self, gzip_trace, counted):
        trace = gzip_trace[:]
        FirstOrderModel().evaluate_trace(trace)
        part = trace[500:2_500]
        assert part._memo == {}
        assert FirstOrderModel().evaluate_trace(part) == (
            FirstOrderModel().evaluate_trace(gzip_trace[500:2_500]))
        assert counted == {"iw": 3, "collect": 3}


class TestCPIStack:
    def make(self):
        return CPIStack(name="x", ideal=0.25, l1_icache=0.1,
                        l2_icache=0.05, l2_dcache=0.4, branch=0.2)

    def test_total(self):
        assert self.make().total == pytest.approx(1.0)

    def test_fraction(self):
        assert self.make().fraction("l2_dcache") == pytest.approx(0.4)

    def test_component_lookup(self):
        assert self.make().component("ideal") == 0.25
        with pytest.raises(KeyError):
            self.make().component("bogus")

    def test_rows_order(self):
        labels = [label for label, _ in self.make().as_rows()]
        assert labels[0] == "Ideal"
        assert len(labels) == len(STACK_ORDER)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            CPIStack(name="x", ideal=-0.1, l1_icache=0, l2_icache=0,
                     l2_dcache=0, branch=0)

    def test_render_contains_name_and_total(self):
        text = self.make().render()
        assert "x" in text and "1.000" in text

    def test_render_stacks_joins(self):
        text = render_stacks([self.make(), self.make()])
        assert text.count("CPI") == 2
