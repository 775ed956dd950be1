"""Instrumentation edge cases and merge semantics."""

import dataclasses

import numpy as np
import pytest

from repro.simulator.results import Instrumentation


def make_instr(hist, **kwargs) -> Instrumentation:
    return Instrumentation(issued_histogram=np.array(hist), **kwargs)


class TestFractionOfCyclesAtIssue:
    def test_threshold_zero_and_negative_are_trivially_met(self):
        instr = make_instr([5, 3, 2])
        assert instr.fraction_of_cycles_at_issue(0) == 1.0
        # a negative threshold must not wrap into end-relative slicing
        assert instr.fraction_of_cycles_at_issue(-1) == 1.0

    def test_threshold_beyond_width_is_never_met(self):
        instr = make_instr([5, 3, 2])  # width 2
        assert instr.fraction_of_cycles_at_issue(3) == 0.0
        assert instr.fraction_of_cycles_at_issue(99) == 0.0

    def test_interior_threshold(self):
        instr = make_instr([5, 3, 2])
        assert instr.fraction_of_cycles_at_issue(1) == pytest.approx(0.5)
        assert instr.fraction_of_cycles_at_issue(2) == pytest.approx(0.2)

    def test_empty_histogram(self):
        instr = make_instr([0, 0, 0])
        assert instr.fraction_of_cycles_at_issue(1) == 0.0


#: one changed value per Instrumentation field
FIELD_CHANGES = [
    ("issued_histogram", np.array([1, 2, 4])),
    ("window_left_at_mispredict", [1]),
    ("rob_ahead_at_long_miss", [3, 3]),
    ("dispatch_stall_rob", 1),
    ("dispatch_stall_window", 1),
]


class TestEquality:
    def test_changes_cover_every_field(self):
        assert [name for name, _ in FIELD_CHANGES] == \
            [f.name for f in dataclasses.fields(Instrumentation)]

    def test_equal_runs_compare_equal(self):
        kwargs = dict(window_left_at_mispredict=[1, 2],
                      rob_ahead_at_long_miss=[3], dispatch_stall_rob=4,
                      dispatch_stall_window=5)
        assert make_instr([1, 2, 3], **kwargs) == make_instr([1, 2, 3],
                                                             **kwargs)

    @pytest.mark.parametrize("field, value", FIELD_CHANGES)
    def test_any_field_tells_runs_apart(self, field, value):
        base = make_instr([1, 2, 3], window_left_at_mispredict=[1, 2],
                          rob_ahead_at_long_miss=[3])
        other = make_instr([1, 2, 3], window_left_at_mispredict=[1, 2],
                           rob_ahead_at_long_miss=[3])
        setattr(other, field, value)
        assert base != other
        # a histogram of another issue width never compares equal
        assert base != make_instr([1, 2])


class TestMerge:
    def test_iadd_accumulates_all_fields(self):
        a = make_instr([1, 2, 3], window_left_at_mispredict=[1],
                       rob_ahead_at_long_miss=[4, 5],
                       dispatch_stall_rob=2, dispatch_stall_window=1)
        b = make_instr([10, 0, 1], window_left_at_mispredict=[2, 3],
                       rob_ahead_at_long_miss=[],
                       dispatch_stall_rob=1, dispatch_stall_window=4)
        a += b
        assert np.array_equal(a.issued_histogram, [11, 2, 4])
        assert a.window_left_at_mispredict == [1, 2, 3]
        assert a.rob_ahead_at_long_miss == [4, 5]
        assert a.dispatch_stall_rob == 3
        assert a.dispatch_stall_window == 5

    def test_iadd_rejects_width_mismatch(self):
        a = make_instr([1, 2, 3])
        b = make_instr([1, 2])
        with pytest.raises(ValueError, match="issue widths"):
            a += b

    def test_iadd_rejects_non_instrumentation(self):
        a = make_instr([1, 2])
        with pytest.raises(TypeError):
            a += 5

    def test_merged_fraction_matches_pooled_runs(self):
        a = make_instr([4, 4, 2])
        b = make_instr([6, 0, 4])
        a += b
        assert a.fraction_of_cycles_at_issue(2) == pytest.approx(6 / 20)
