"""The typed spec layer: validation, round-trips, content keys, sweeps."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.isa.opclass import OpClass
from repro.spec import (
    EngineSpec,
    MachineSpec,
    ObsSpec,
    PREDICTORS,
    RunSpec,
    SpecError,
    SweepSpec,
    TelemetrySpec,
    WorkloadSpec,
)

#: the baseline gzip run's content key, pinned.  If this changes, every
#: previously published artifact silently misses — bump deliberately and
#: say so in the changelog, never by accident.
GOLDEN_BASELINE_KEY = (
    "86fd293feb5a1e34ebdbf700d77dca04d630ac5abf2cb15e3fc3d4cc1a21913b"
)


def _random_spec(rng: random.Random) -> RunSpec:
    from repro.trace.profiles import BENCHMARK_ORDER

    machine = MachineSpec(
        pipeline_depth=rng.choice((3, 5, 9, 15)),
        width=rng.choice((2, 4, 8)),
        window_size=rng.choice((16, 48, 96)),
        rob_size=rng.choice((128, 192, 256)),
        predictor=rng.choice(sorted(PREDICTORS)),
        ideal_predictor=rng.random() < 0.2,
    )
    return RunSpec(
        workload=WorkloadSpec(
            benchmark=rng.choice(BENCHMARK_ORDER),
            length=rng.randrange(1_000, 50_000),
            seed=rng.choice((None, rng.randrange(1000))),
        ),
        machine=machine,
        engine=EngineSpec(
            engine=rng.choice(("fast", "reference")),
            instrument=rng.random() < 0.5,
        ),
        telemetry=TelemetrySpec(
            enabled=rng.random() < 0.5,
            interval=rng.choice((500, 1000, 2000)),
        ),
    )


class TestRoundTrip:
    def test_default_round_trips(self):
        spec = RunSpec(workload=WorkloadSpec("gzip"))
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_random_specs_round_trip_with_stable_keys(self):
        rng = random.Random(20260807)
        for _ in range(50):
            spec = _random_spec(rng)
            back = RunSpec.from_json(spec.to_json())
            assert back == spec
            assert back.content_key() == spec.content_key()
            assert back.canonical() == spec.canonical()

    def test_to_json_is_deterministic(self):
        spec = RunSpec(workload=WorkloadSpec("mcf", length=7_000))
        assert spec.to_json() == RunSpec.from_json(spec.to_json()).to_json()

    def test_json_is_plain_data(self):
        doc = json.loads(RunSpec(workload=WorkloadSpec("vpr")).to_json())
        assert doc["spec_schema"] == 1
        assert set(doc) == {"spec_schema", "workload", "machine",
                            "engine", "telemetry", "obs"}


class TestGoldenKey:
    def test_baseline_content_key_is_pinned(self):
        spec = RunSpec(workload=WorkloadSpec("gzip"))
        assert spec.content_key() == GOLDEN_BASELINE_KEY

    def test_seed_aliasing_collapses(self):
        # seed None and the profile's own seed are the same question
        implicit = RunSpec(workload=WorkloadSpec("gzip", seed=None))
        explicit = RunSpec(workload=WorkloadSpec(
            "gzip", seed=WorkloadSpec("gzip").resolved_seed()))
        assert implicit.content_key() == explicit.content_key()

    def test_engine_and_telemetry_do_not_move_the_key(self):
        # both engines are bit-identical and telemetry only observes, so
        # neither may fragment the result cache
        base = RunSpec(workload=WorkloadSpec("gzip"))
        ref = dataclasses.replace(base, engine=EngineSpec(
            engine="reference"))
        tele = dataclasses.replace(base, telemetry=TelemetrySpec(
            enabled=True, interval=250))
        assert ref.content_key() == base.content_key()
        assert tele.content_key() == base.content_key()

    def test_machine_and_workload_do_move_the_key(self):
        base = RunSpec(workload=WorkloadSpec("gzip"))
        wide = dataclasses.replace(base, machine=MachineSpec(width=8))
        other = dataclasses.replace(base,
                                    workload=WorkloadSpec("mcf"))
        assert len({base.content_key(), wide.content_key(),
                    other.content_key()}) == 3

    def test_instrument_moves_the_key(self):
        # instrumentation changes the result payload, so it must key
        base = RunSpec(workload=WorkloadSpec("gzip"))
        instr = dataclasses.replace(
            base, engine=EngineSpec(instrument=True))
        assert instr.content_key() != base.content_key()


class TestObsSpec:
    def test_defaults_are_off_and_pathless(self):
        obs = ObsSpec()
        assert not obs.enabled
        assert obs.trace_path is None and obs.chrome_path is None

    def test_round_trips_through_dicts(self):
        obs = ObsSpec(enabled=True, trace_path="spans.jsonl",
                      chrome_path="trace.json")
        assert ObsSpec.from_dict(obs.to_dict()) == obs

    def test_run_spec_round_trips_the_obs_section(self):
        spec = RunSpec(workload=WorkloadSpec("gzip"),
                       obs=ObsSpec(enabled=True))
        again = RunSpec.from_dict(spec.to_dict())
        assert again.obs == spec.obs

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="obs"):
            ObsSpec.from_dict({"enabled": True, "verbosity": 9})

    def test_obs_never_moves_the_content_key(self):
        # spans observe the host, not the simulation: enabling them
        # must not fragment the artifact cache
        base = RunSpec(workload=WorkloadSpec("gzip"))
        traced = dataclasses.replace(
            base, obs=ObsSpec(enabled=True, trace_path="x.jsonl"))
        assert traced.content_key() == base.content_key()
        assert traced.result_recipe() == base.result_recipe()


class TestValidation:
    def test_unknown_benchmark(self):
        with pytest.raises(SpecError):
            WorkloadSpec("spec2017")

    def test_bad_length(self):
        with pytest.raises(SpecError):
            WorkloadSpec("gzip", length=0)

    def test_unknown_predictor(self):
        with pytest.raises(SpecError):
            MachineSpec(predictor="oracle")

    def test_unknown_engine(self):
        with pytest.raises(SpecError):
            EngineSpec(engine="warp")

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"workload": {"benchmark": "gzip"},
                               "warp_drive": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"workload": {"benchmark": "gzip",
                                            "color": "red"}})

    def test_workload_required(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"machine": {}})

    def test_wrong_schema_rejected(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"spec_schema": 99,
                               "workload": {"benchmark": "gzip"}})


class TestMachineSpec:
    def test_custom_config_round_trips(self):
        spec = MachineSpec(pipeline_depth=9, width=8,
                           window_size=96, rob_size=256)
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("machine", [
        {"width": 2.5},
        {"pipeline_depth": True},
        {"ideal_predictor": "yes"},
        {"ideal_predictor": 1},
        {"latencies": dict(MachineSpec().latencies, load=2.5)},
        {"hierarchy": {"l2_latency": 8.5}},
        {"hierarchy": {"ideal_dcache": 0}},
        {"hierarchy": {"l1d": {"size_bytes": 4096, "line_bytes": True}}},
        {"hierarchy": {"l2": {"size_bytes": 4096, "associativity": True}}},
    ], ids=["float-width", "bool-depth", "str-flag", "int-flag",
            "float-latency", "float-l2-latency", "int-cache-flag",
            "bool-line", "bool-ways"])
    def test_malformed_machine_json_is_rejected(self, machine):
        """Each of these was accepted before validation was merged into
        the spec types (a float width crashed only inside the engine; a
        non-bool flag keyed one result under two content keys)."""
        with pytest.raises(SpecError):
            RunSpec.from_dict({"workload": {"benchmark": "gzip"},
                               "machine": machine})

    def test_latency_table_is_built_once(self):
        spec = MachineSpec(latencies={**MachineSpec().latencies, "load": 3})
        assert spec.latency_table is spec.latency_table
        assert spec.latency_table[OpClass.LOAD] == 3


class TestSweep:
    def test_expansion_order_and_size(self):
        base = RunSpec(workload=WorkloadSpec("gzip", length=2_000))
        sweep = SweepSpec(
            base=base,
            benchmarks=("gzip", "mcf"),
            axes={"machine.width": (2, 4),
                  "machine.window_size": (16, 48)},
        )
        points = sweep.expand()
        assert len(points) == 8
        # benchmarks outermost, later axes innermost
        assert [p.workload.benchmark for p in points[:4]] == ["gzip"] * 4
        assert [(p.machine.width, p.machine.window_size)
                for p in points[:4]] == [(2, 16), (2, 48), (4, 16), (4, 48)]
        # every point keeps the base workload length
        assert {p.workload.length for p in points} == {2_000}

    def test_unknown_axis_path_rejected(self):
        base = RunSpec(workload=WorkloadSpec("gzip"))
        with pytest.raises(SpecError):
            SweepSpec(base=base, axes={"machine.warp": (1,)})

    def test_empty_axis_rejected(self):
        base = RunSpec(workload=WorkloadSpec("gzip"))
        with pytest.raises(SpecError):
            SweepSpec(base=base, axes={"machine.width": ()})

    def test_sweep_round_trips(self):
        sweep = SweepSpec(
            base=RunSpec(workload=WorkloadSpec("gzip")),
            benchmarks=("gzip",),
            axes={"machine.width": (2, 4)},
        )
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
