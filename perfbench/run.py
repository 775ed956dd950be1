"""The repository's benchmark: one workload, timed, checked and reported.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_sweep --seed 0 --seconds 10 --trace 0

The load is a closed loop with one client in this process: each
operation of the workload starts when the previous one has returned
(``jobs=1``, no service, no worker pool).  The workload's operations run
in passes until ``--seconds`` have gone by, ending on a pass boundary;
a traced run alternates untraced and traced passes.  Operation and
set-up times are scaled to a reference host's speed by a calibration
loop timed around each of them (``hostspeed.py``), so that the drift of
a shared host cancels out of the end-to-end times.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics of a traced
run.  The lines above it are a readable summary and the digest of the
simulated statistics, which must not change under a speed-only change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostClock

ROOT = Path(__file__).resolve().parent.parent
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 5

END_TO_END = (
    ("minst_per_s", "Minst/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("model_cpi_err_mean", "%"),
    ("model_cpi_err_max", "%"),
    ("model_cpi_err_mean_heldout", "%"),
    ("model_cpi_err_max_heldout", "%"),
    ("ok_ratio", "ratio"),
)


@dataclass
class Phase:
    """Timed passes over a workload's operations, and their outcome.

    ``samples`` holds each operation's host times and ``scaled`` the same
    times scaled to the reference host's speed (see ``hostspeed.py``).
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    scaled: dict[str, list[float]] = field(default_factory=dict)
    passes: int = 0
    attempted: int = 0
    failed: int = 0

    def run_pass(self, workload, first: dict, clock: HostClock) -> None:
        """Run every operation of the workload once, timed by ``clock``.

        ``first`` maps each operation to the statistics of its first
        successful run; a later run that differs is a failed operation.
        """
        for op in workload.ops:
            if op.reset is not None:
                op.reset()
            previous = self.samples.get(op.label)
            try:
                (stats, problems), raw, scaled = clock.time(
                    op.run, previous[-1] if previous else None)
            except Exception:
                traceback.print_exc()
                stats, problems = None, [f"{op.label}: raised"]
            self.attempted += 1
            if stats is not None:
                self.samples.setdefault(op.label, []).append(raw)
                self.scaled.setdefault(op.label, []).append(scaled)
                expected = first.setdefault(op.label, stats)
                if stats != expected:
                    problems.append(f"{op.label}: statistics differ from "
                                    "its first run")
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)
        self.passes += 1

    def throughput(self, ops, scaled: bool = True) -> float:
        """Million trace instructions per host second, from each
        operation's median scaled (or, with ``scaled`` false, host) time
        over the phase."""
        samples = self.scaled if scaled else self.samples
        timed = [(op.instructions, statistics.median(samples[op.label]))
                 for op in ops if samples.get(op.label)]
        if not timed:  # every operation failed
            return 0.0
        return sum(n for n, _ in timed) / sum(t for _, t in timed) / 1e6

    def p50_ms(self) -> float:
        """The median over operations of each one's median scaled time."""
        medians = [statistics.median(v) for v in self.scaled.values() if v]
        return statistics.median(medians) * 1000 if medians else 0.0

    def wall_s(self) -> float:
        return sum(sum(v) for v in self.samples.values())

    def sample_count(self) -> int:
        return sum(len(v) for v in self.samples.values())


def post_checks(workload):
    """The cross-checks and the model error, after the timed phases.

    Returns ``(attempted, failed, accuracy)`` where ``accuracy`` maps
    ``"default"`` and ``"heldout"`` to ``(label, model CPI, simulated
    CPI)`` rows.  A check that raises fails.
    """
    from workloads import DEFAULT_SEED, HELD_OUT_SEED

    try:
        rows = workload.verify()
    except Exception:
        traceback.print_exc()
        rows = [("cross-checks ran", False)]
    accuracy = {}
    for key, seed in (("default", DEFAULT_SEED), ("heldout", HELD_OUT_SEED)):
        try:
            accuracy[key] = workload.accuracy(seed)
        except Exception:
            traceback.print_exc()
            rows.append((f"model accuracy on seed {seed} computed", False))
            accuracy[key] = []
        rows += [(f"seed {seed}, {label}: model CPI {model!r} is finite "
                  "and positive", math.isfinite(model) and model > 0)
                 for label, model, _ in accuracy[key]]
    failed = 0
    for description, holds in rows:
        if not holds:
            failed += 1
            print(f"check failed: {description}", file=sys.stderr)
    return len(rows), failed, accuracy


def digest(workload, first: dict, accuracy: dict) -> str:
    document = {
        "ops": [[op.label, first.get(op.label)] for op in workload.ops],
        "accuracy": accuracy,
    }
    text = json.dumps(document, sort_keys=True,
                      default=lambda value: value.item())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def model_errors(pairs) -> tuple[float, float]:
    """Mean and worst ``|model - sim| / sim`` CPI error, in percent."""
    errors = [abs(model - sim) / sim * 100 for _, model, sim in pairs]
    if not errors:
        return 0.0, 0.0
    return statistics.fmean(errors), max(errors)


def setup_workload(cls, args, work: Path, clock: HostClock):
    """Set the workload up :data:`SETUP_REPS` times (once for a traced
    run), each on a fresh artifact cache; return the last set-up and the
    median set-up time, scaled by ``clock``."""
    reps = 1 if args.trace else SETUP_REPS
    times = []
    raw = None
    workload = None
    for rep in range(reps):
        if workload is not None:
            shutil.rmtree(workload.cache_dir, ignore_errors=True)
            workload = None
        cache = work / f"cache{rep}"
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        workload = cls(args.seed, args.scale, cache)
        _, raw, scaled = clock.time(workload.setup, raw)
        times.append(scaled)
    return workload, statistics.median(times)


def run(args, work: Path) -> dict:
    import layers
    from workloads import WORKLOADS

    clock = HostClock()
    workload, setup_s = setup_workload(WORKLOADS[args.workload], args, work,
                                       clock)
    first: dict = {}
    untraced, traced = Phase(), Phase()
    tracer = layers.Tracer() if args.trace else None
    start = time.perf_counter()
    while untraced.passes == 0 or time.perf_counter() - start < args.seconds:
        untraced.run_pass(workload, first, clock)
        if tracer is not None:
            # alternate untraced and traced passes, so that the tracing
            # overhead compares passes run under the same host load
            with tracer:
                traced.run_pass(workload, first, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, accuracy = post_checks(workload)
    attempted += untraced.attempted + traced.attempted
    failed += untraced.failed + traced.failed

    phase = traced if args.trace else untraced
    if args.trace:
        values = layers.layer_metrics(
            tracer, traced.passes, traced.wall_s(),
            untraced.throughput(workload.ops),
            traced.throughput(workload.ops))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        err_mean, err_max = model_errors(accuracy["default"])
        held_mean, held_max = model_errors(accuracy["heldout"])
        values = {
            "minst_per_s": phase.throughput(workload.ops),
            "op_p50_ms": phase.p50_ms(),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
            "model_cpi_err_mean": err_mean,
            "model_cpi_err_max": err_max,
            "model_cpi_err_mean_heldout": held_mean,
            "model_cpi_err_max_heldout": held_max,
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(workload.ops)} operations per pass, "
          f"{phase.passes} passes, {phase.sample_count()} timed samples"
          + (" (traced)" if args.trace else ""))
    print(f"  host throughput {phase.throughput(workload.ops, False):.6g} "
          "Minst/s unscaled; "
          + ("layer times are unscaled host seconds" if args.trace else
             "minst_per_s, op_p50_ms and setup_s are scaled to the "
             "reference host"))
    for name, unit in units.items():
        print(f"  {name:<32} {values[name]:>14.6g} {unit}")
    print(f"  model error over {len(accuracy['default'])} runs on each of "
          f"the default and held-out seeds; {failed} of {attempted} "
          "operations failed")
    print(f"digest {digest(workload, first, accuracy)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("model_sweep", "sim_sweep", "stream_long",
                                 "corun_pair"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-length factor (the smoke tests run "
                             "reduced lengths)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run this "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
