"""Tests for the columnar Trace container and the renaming pass."""

import pickle

import numpy as np
import pytest

from repro.isa.instruction import NO_REG, Instruction
from repro.isa.latency import LatencyTable
from repro.isa.opclass import OpClass
from repro.trace.trace import Trace


def make_trace(rows):
    return Trace.from_instructions(rows, name="t")


def alu(pc, dst, src1=NO_REG, src2=NO_REG):
    return Instruction(pc=pc, opclass=OpClass.IALU, dst=dst, src1=src1,
                       src2=src2)


@pytest.fixture
def chain_trace():
    """r1 = ...; r2 = f(r1); r3 = f(r2) — a pure dependence chain."""
    return make_trace([
        alu(0, dst=1),
        alu(4, dst=2, src1=1),
        alu(8, dst=3, src1=2),
    ])


class TestContainer:
    def test_length(self, chain_trace):
        assert len(chain_trace) == 3

    def test_getitem_roundtrip(self, chain_trace):
        i = chain_trace[1]
        assert i.opclass == OpClass.IALU
        assert i.dst == 2 and i.src1 == 1

    def test_iteration_yields_instructions(self, chain_trace):
        assert [i.dst for i in chain_trace] == [1, 2, 3]

    def test_slice_returns_trace(self, chain_trace):
        sub = chain_trace[1:]
        assert isinstance(sub, Trace)
        assert len(sub) == 2
        assert sub[0].dst == 2

    def test_columns_are_readonly(self, chain_trace):
        with pytest.raises(ValueError):
            chain_trace.pc[0] = 99

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            Trace(
                pc=np.zeros(2), opclass=np.zeros(3), dst=np.zeros(2),
                src1=np.zeros(2), src2=np.zeros(2), addr=np.zeros(2),
                taken=np.zeros(2), target=np.zeros(2),
            )

    def test_repr_mentions_name_and_size(self, chain_trace):
        assert "t" in repr(chain_trace) and "3" in repr(chain_trace)


class TestMasks:
    def test_class_masks(self):
        tr = make_trace([
            alu(0, dst=1),
            Instruction(pc=4, opclass=OpClass.LOAD, dst=2, src1=1, addr=64),
            Instruction(pc=8, opclass=OpClass.STORE, src1=2, addr=64),
            Instruction(pc=12, opclass=OpClass.BRANCH, src1=2, taken=True,
                        target=0),
        ])
        assert tr.loads.tolist() == [False, True, False, False]
        assert tr.stores.tolist() == [False, False, True, False]
        assert tr.branches.tolist() == [False, False, False, True]

    def test_multi_class_mask(self):
        tr = make_trace([
            alu(0, dst=1),
            Instruction(pc=4, opclass=OpClass.LOAD, dst=2, src1=1, addr=64),
        ])
        mask = tr.mask(OpClass.IALU, OpClass.LOAD)
        assert mask.all()


class TestDependences:
    def test_chain_producers(self, chain_trace):
        deps = chain_trace.dependences()
        assert deps.dep1.tolist() == [-1, 0, 1]

    def test_live_in_sources_have_no_producer(self):
        tr = make_trace([alu(0, dst=1, src1=5)])
        assert tr.dependences().dep1.tolist() == [-1]

    def test_producer_must_precede_consumer(self, gzip_trace):
        deps = gzip_trace.dependences()
        idx = np.arange(len(gzip_trace))
        assert (deps.dep1 < idx).all()
        assert (deps.dep2 < idx).all()

    def test_producer_dst_matches_source_register(self, gzip_trace):
        deps = gzip_trace.dependences()
        has = deps.dep1 >= 0
        producers = deps.dep1[has]
        consumers = np.flatnonzero(has)
        assert (
            gzip_trace.dst[producers]
            == gzip_trace.src1[consumers]
        ).all()

    def test_stores_do_not_produce(self):
        tr = make_trace([
            Instruction(pc=0, opclass=OpClass.STORE, src1=5, src2=6,
                        addr=64),
            alu(4, dst=1, src1=5),
        ])
        # the store reads r5 but produces nothing; the ALU's r5 is live-in
        assert tr.dependences().dep1.tolist() == [-1, -1]

    def test_dependences_cached(self, chain_trace):
        assert chain_trace.dependences() is chain_trace.dependences()

    def test_distances(self, chain_trace):
        assert sorted(chain_trace.dependences().distances().tolist()) == [1, 1]

    def test_write_after_write_uses_latest(self):
        tr = make_trace([
            alu(0, dst=1),
            alu(4, dst=1),
            alu(8, dst=2, src1=1),
        ])
        assert tr.dependences().dep1.tolist() == [-1, -1, 1]


class TestDerived:
    def test_latencies_column(self, chain_trace):
        lat = chain_trace.latencies(LatencyTable())
        assert lat.tolist() == [1, 1, 1]

    def test_instruction_mix_sums_to_one(self, gzip_trace):
        mix = gzip_trace.instruction_mix()
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_instruction_mix_counts(self):
        tr = make_trace([alu(0, dst=1), alu(4, dst=2),
                         Instruction(pc=8, opclass=OpClass.LOAD, dst=3,
                                     src1=1, addr=64)])
        mix = tr.instruction_mix()
        assert mix[OpClass.IALU] == pytest.approx(2 / 3)
        assert mix[OpClass.LOAD] == pytest.approx(1 / 3)


class TestSerialisation:
    def test_save_load_roundtrip(self, tmp_path, gzip_trace):
        path = tmp_path / "trace.npz"
        gzip_trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == gzip_trace.name
        assert len(loaded) == len(gzip_trace)
        assert (loaded.pc == gzip_trace.pc).all()
        assert (loaded.opclass == gzip_trace.opclass).all()
        assert (loaded.addr == gzip_trace.addr).all()
        assert (loaded.taken == gzip_trace.taken).all()

    def test_pickle_leaves_the_memo_behind(self):
        """A pickled trace is its columns and name only: evaluating a
        model on it, or memoizing a product keyed by an unpicklable
        predictor factory, changes no pickled byte."""
        from repro.branch.simple import Bimodal
        from repro.core.model import FirstOrderModel
        from repro.frontend.collector import (
            CollectorConfig,
            MissEventCollector,
        )
        from repro.trace.synthetic import generate_trace

        trace = generate_trace("gzip", 1_000)
        before = pickle.dumps(trace)
        FirstOrderModel().evaluate_trace(trace)
        assert pickle.dumps(trace) == before

        config = CollectorConfig(
            predictor_factory=lambda: Bimodal(entries=512))
        trace.memo(("profile", config),
                   lambda: MissEventCollector(config).collect(trace))
        assert pickle.dumps(trace) == before

        loaded = pickle.loads(before)
        assert loaded._memo == {}
        assert (loaded.pc == trace.pc).all()
        assert loaded.dependences().dep1.tolist() == (
            trace.dependences().dep1.tolist())
