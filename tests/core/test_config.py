"""Tests for the shared machine description, :class:`MachineSpec`."""

import pytest

from repro.config import BASELINE, MachineSpec, SpecError


class TestBaseline:
    def test_paper_baseline(self):
        assert BASELINE.pipeline_depth == 5
        assert BASELINE.width == 4
        assert BASELINE.window_size == 48
        assert BASELINE.rob_size == 128

    def test_baseline_caches(self):
        assert BASELINE.hierarchy.l1i.size_bytes == 4 * 1024
        assert BASELINE.hierarchy.l2.size_bytes == 512 * 1024
        assert BASELINE.hierarchy.memory_latency == 200


class TestValidation:
    def test_rob_must_back_window(self):
        with pytest.raises(SpecError, match="rob_size"):
            MachineSpec(window_size=64, rob_size=32)

    @pytest.mark.parametrize("field", ["pipeline_depth", "width",
                                       "window_size"])
    def test_positive_fields(self, field):
        with pytest.raises(SpecError):
            MachineSpec(**{field: 0})


class TestFigure2Configs:
    def test_all_ideal(self):
        cfg = BASELINE.all_ideal()
        assert cfg.ideal_predictor
        assert cfg.hierarchy.ideal_icache and cfg.hierarchy.ideal_dcache

    def test_all_real(self):
        cfg = BASELINE.all_ideal().all_real()
        assert not cfg.ideal_predictor
        assert not cfg.hierarchy.ideal_icache
        assert not cfg.hierarchy.ideal_dcache

    def test_only_real_predictor(self):
        cfg = BASELINE.only_real_predictor()
        assert not cfg.ideal_predictor
        assert cfg.hierarchy.ideal_icache and cfg.hierarchy.ideal_dcache

    def test_only_real_icache(self):
        cfg = BASELINE.only_real_icache()
        assert cfg.ideal_predictor
        assert not cfg.hierarchy.ideal_icache
        assert cfg.hierarchy.ideal_dcache

    def test_only_real_dcache(self):
        cfg = BASELINE.only_real_dcache()
        assert cfg.ideal_predictor
        assert cfg.hierarchy.ideal_icache
        assert not cfg.hierarchy.ideal_dcache

    def test_variants_preserve_structure(self):
        for cfg in (BASELINE.all_ideal(), BASELINE.only_real_dcache()):
            assert cfg.window_size == BASELINE.window_size
            assert cfg.pipeline_depth == BASELINE.pipeline_depth


class TestBuilders:
    def test_with_depth(self):
        assert BASELINE.with_depth(9).pipeline_depth == 9
        assert BASELINE.with_depth(9).width == BASELINE.width

    def test_with_width(self):
        assert BASELINE.with_width(8).width == 8

    def test_original_unchanged(self):
        BASELINE.with_depth(9)
        assert BASELINE.pipeline_depth == 5
