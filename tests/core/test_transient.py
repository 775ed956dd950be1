"""Tests for the drain/ramp transient machinery (paper Figure 8)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transient
from repro.core.transient import (
    DrainResult,
    RampResult,
    branch_transient,
    drain_transient,
    ramp_transient,
    steady_state_occupancy,
)
from repro.window.characteristic import IWCharacteristic


def square(width=4, latency=1.0):
    return IWCharacteristic.square_law(latency=latency, issue_width=width)


class TestSteadyStateOccupancy:
    def test_saturated_machine(self):
        # width 4 square law saturates at W = 16 < window 48
        assert steady_state_occupancy(square(), 48) == pytest.approx(16.0)

    def test_unsaturated_machine_uses_whole_window(self):
        ch = IWCharacteristic.square_law()  # unbounded width
        assert steady_state_occupancy(ch, 48) == 48.0

    def test_validation(self):
        with pytest.raises(ValueError):
            steady_state_occupancy(square(), 0)


class TestDrain:
    def test_paper_figure8_drain(self):
        """alpha=1, beta=0.5, width 4: drain ≈ 2.1 cycles over ~6 cycles."""
        d = drain_transient(square(), 16.0)
        assert d.penalty == pytest.approx(2.1, abs=0.3)
        assert d.cycles == 6
        assert d.instructions == pytest.approx(16.0, abs=0.5)

    def test_rates_decrease(self):
        d = drain_transient(square(), 16.0)
        assert all(a >= b for a, b in zip(d.rates, d.rates[1:]))

    def test_first_cycle_issues_at_steady_rate(self):
        d = drain_transient(square(), 16.0)
        assert d.rates[0] == pytest.approx(4.0)

    def test_penalty_nonnegative(self):
        for w0 in (2.0, 7.5, 16.0, 48.0):
            assert drain_transient(square(), w0).penalty >= -1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            drain_transient(square(), 0.0)


class TestRamp:
    def test_paper_figure8_ramp(self):
        """Ramp ≈ 2.7–3 cycles for the square law at width 4."""
        r = ramp_transient(square(), dispatch_width=4, window_size=48)
        assert r.penalty == pytest.approx(2.9, abs=0.5)

    def test_rates_increase(self):
        r = ramp_transient(square(), 4, 48)
        assert all(a <= b + 1e-9 for a, b in zip(r.rates, r.rates[1:]))

    def test_deficit_identity(self):
        """On the saturated curve (steady rate == dispatch width) the
        deficit each cycle equals the occupancy gained, so the ramp
        penalty is exactly (W_final − W_start)/i."""
        r = ramp_transient(square(), 4, 48)
        assert r.penalty == pytest.approx(r.final_window / 4.0, rel=1e-9)
        # and the full-convergence limit (W_ss − W_start)/i bounds it
        assert r.penalty <= (16.0 - 0.0) / 4.0 + 1e-9

    def test_warm_start_shrinks_penalty(self):
        cold = ramp_transient(square(), 4, 48, start_window=0.0)
        warm = ramp_transient(square(), 4, 48, start_window=8.0)
        assert warm.penalty < cold.penalty

    def test_validation(self):
        with pytest.raises(ValueError):
            ramp_transient(square(), 0, 48)

    def test_dispatch_below_the_steady_rate_raises(self):
        """Dispatching 2 per cycle into a width-4 machine stalls the
        issue rate near 2: no steady state, so no cap-sized answer."""
        with pytest.raises(ValueError, match="never completes"):
            ramp_transient(square(), 2, 48)

    def test_branch_penalty_model_rejects_a_stalled_ramp(self):
        from repro.core.branch_penalty import BranchPenaltyModel

        with pytest.raises(ValueError, match="never completes"):
            BranchPenaltyModel.build(square(), 5, 2, 48)


class TestBranchTransient:
    def test_paper_figure8_total(self):
        """Total isolated penalty ≈ 9.7–10 cycles for ΔP = 5."""
        bt = branch_transient(square(), 5, 4, 48)
        assert bt.total_penalty == pytest.approx(10.0, abs=0.7)

    def test_total_is_sum_of_parts(self):
        bt = branch_transient(square(), 5, 4, 48)
        assert bt.total_penalty == pytest.approx(
            bt.drain.penalty + 5 + bt.ramp.penalty
        )

    def test_timeline_shape(self):
        bt = branch_transient(square(), 5, 4, 48)
        timeline = bt.issue_rate_timeline()
        d = bt.drain.cycles
        assert timeline[:d] == bt.drain.rates
        assert timeline[d:d + 5] == (0.0,) * 5
        assert timeline[d + 5:] == bt.ramp.rates

    def test_deeper_pipe_costs_one_cycle_per_stage(self):
        p5 = branch_transient(square(), 5, 4, 48).total_penalty
        p9 = branch_transient(square(), 9, 4, 48).total_penalty
        assert p9 - p5 == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            branch_transient(square(), 0, 4, 48)


class TestTransientProperties:
    @given(
        st.floats(0.5, 2.5),
        st.floats(0.2, 0.8),
        st.integers(2, 8),
        st.floats(1.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_drain_conserves_instructions(self, alpha, beta, width, latency):
        ch = IWCharacteristic(alpha=alpha, beta=beta, latency=latency,
                              issue_width=width)
        w0 = steady_state_occupancy(ch, 64)
        d = drain_transient(ch, w0)
        assert d.instructions + d.final_window == pytest.approx(w0)

    @given(
        st.floats(0.5, 2.5),
        st.floats(0.2, 0.8),
        st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_ramp_reaches_steady_state(self, alpha, beta, width):
        ch = IWCharacteristic(alpha=alpha, beta=beta, issue_width=width)
        r = ramp_transient(ch, width, 256)
        steady = ch.issue_rate(steady_state_occupancy(ch, 256))
        assert r.rates[-1] >= 0.95 * steady

    @given(st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_penalty_components_nonnegative(self, depth):
        bt = branch_transient(square(), depth, 4, 48)
        assert bt.drain.penalty >= -1e-9
        assert bt.ramp.penalty >= -1e-9
        assert bt.total_penalty >= depth


def reference_drain(ch, start_window):
    """The drain walk spelled through ``issue_rate`` and ``min``."""
    steady_rate = ch.issue_rate(start_window)
    w = float(start_window)
    rates, issued, cycles = [], 0.0, 0
    while w >= 1.0 and cycles < transient._MAX_CYCLES:
        rate = min(ch.issue_rate(w), w)
        rates.append(rate)
        issued += rate
        w -= rate
        cycles += 1
    return DrainResult(cycles=cycles, instructions=issued,
                       penalty=cycles - issued / steady_rate,
                       rates=tuple(rates), final_window=w)


def reference_ramp(ch, dispatch_width, window_size, start_window=0.0):
    """The ramp walk spelled through ``issue_rate`` and ``min``; ``None``
    when it ends at the cycle cap without completing."""
    steady_rate = ch.issue_rate(steady_state_occupancy(ch, window_size))
    target = 0.99 * steady_rate
    w = float(start_window)
    rates, deficit, cycles = [], 0.0, 0
    while cycles < transient._MAX_CYCLES:
        w = min(w + dispatch_width, float(window_size))
        rate = min(ch.issue_rate(w), w)
        rates.append(rate)
        deficit += steady_rate - rate
        w -= rate
        cycles += 1
        if rate >= target or w >= window_size:
            break
    else:
        return None
    return RampResult(cycles=cycles, penalty=deficit / steady_rate,
                      rates=tuple(rates), final_window=w)


CONTRACT_GRID = list(itertools.product(
    (0.3, 1.0, 1.7),            # alpha
    (0.2, 0.5, 0.77, 1.0),      # beta
    (1.0, 1.3, 2.9),            # latency
    (None, 2, 4, 8),            # issue width
))


class TestFloatContract:
    """The walks inline ``issue_rate``; every float must still match the
    method's, bit for bit (``==`` on every field, the rates included).
    A short cycle cap keeps the ramps that never reach steady state
    (dispatch slower than the steady rate) cheap, and covers the cap:
    where the reference walk ends there without completing, the ramp
    must raise."""

    @pytest.mark.parametrize("alpha,beta,latency,width", CONTRACT_GRID)
    def test_walks_match_reference(self, alpha, beta, latency, width,
                                   monkeypatch):
        monkeypatch.setattr(transient, "_MAX_CYCLES", 400)
        ch = IWCharacteristic(alpha=alpha, beta=beta, latency=latency,
                              issue_width=width)
        for window in (1, 3, 16, 48, 200):
            start = steady_state_occupancy(ch, window)
            for drain_start in (start, 0.5, 7.25):
                assert drain_transient(ch, drain_start) == (
                    reference_drain(ch, drain_start))
            for dispatch in (1, 4):
                for ramp_start in (0.0, 0.5, 3.0, 11.7):
                    expected = reference_ramp(ch, dispatch, window,
                                              ramp_start)
                    if expected is None:
                        with pytest.raises(ValueError, match="never"):
                            ramp_transient(ch, dispatch, window, ramp_start)
                    else:
                        assert ramp_transient(
                            ch, dispatch, window, ramp_start) == expected
