"""Command-line interface.

``python -m repro <command>`` exposes the library's main flows without
writing any code:

* ``model <bench>``       — the Eq. 1 report and CPI stack for one benchmark
* ``simulate <bench>``    — the detailed reference simulator
* ``compare [bench...]``  — model vs simulation (the Figure-15 table)
* ``corun <b1> <b2>...``  — multi-programmed co-run over a shared L2:
  per-workload solo/co-run/model CPI, interference deltas and the
  shared-L2 reconciliation (see docs/SCENARIOS.md)
* ``iw <bench>``          — the IW curve, power-law fit and an ASCII plot
* ``transient``           — the Figure-8 misprediction transient, plotted
* ``experiment <name>``   — run any paper experiment (``fig15``, ``tab01`` …)
* ``report [-o FILE]``    — run every experiment, emit a markdown report
* ``explore <bench>``     — surrogate-guided design-space search over
  ``--axis`` grids to a detailed-sim-verified Pareto frontier, with
  budgets (``--budget``, ``--wall-clock``) and ``--resume``
* ``bench [-o FILE]``     — time the simulation kernels and the baseline
  sweep (reference vs fast engines, cold vs warm artifact cache) and
  write ``BENCH_perf.json``
* ``profile <bench>``     — run one simulation with wall-clock span
  tracing on and print the per-stage breakdown (self/total time,
  cache-hit attribution, critical path); ``--jsonl``/``--chrome``
  export the span tree (see docs/OBSERVABILITY.md)
* ``timeline <bench>``    — interval IPC/occupancy sparklines and the
  measured CPI stack of one simulation; ``--stream --max-rows N``
  holds a bounded multi-resolution timeline at any workload length
* ``ingest <file>``       — normalize a foreign trace (CSV, JSONL, or a
  SynchroTrace-style event trace) into the chunk store and print its
  ``ingest:<key>`` workload name, runnable by every command above
* ``stats [bench...]``    — run a sweep and dump the runner/cache
  metrics registry
* ``serve``               — start the evaluation service (``repro.service``)
* ``submit <op> ...``     — query a running service over its protocol
* ``list``                — available benchmarks and experiments

``repro --log-level debug <command>`` (or ``-v``) turns on the
package's :mod:`logging` output; library modules never print outside
their renderers.  Setting ``REPRO_TELEMETRY=1`` attaches the stall
accountant to every simulation (see :mod:`repro.telemetry`).

Run configuration flows through one typed object — the
:class:`repro.spec.RunSpec`.  Spec-driven commands take ``--spec
path.json`` and resolve layers in precedence order: package defaults <
spec file (``--spec`` or ``REPRO_SPEC``) < ``REPRO_*`` environment <
explicit CLI flags.  ``--dump-spec`` prints the fully-resolved spec as
JSON and exits without running, and manifests embed the resolved spec
verbatim (see docs/CONFIGURATION.md).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Sequence

from repro.config import BASELINE
from repro.core.model import FirstOrderModel
from repro.simulator.processor import DetailedSimulator
from repro.trace.profiles import BENCHMARK_ORDER
from repro.util.ascii_plot import bar_chart, line_plot


def _benchmark_arg(text: str) -> str:
    """Argparse type for benchmark arguments: any source-tagged workload.

    Accepts the twelve synthetic profile names (bare or
    ``synthetic:``-prefixed) plus ``ingest:<key-or-path>`` foreign
    traces — the same grammar :class:`repro.spec.WorkloadSpec` takes.
    Synthetic names are validated eagerly so typos fail at parse time
    with the familiar message; ingest references are validated when the
    workload resolves (the file may still need ingesting).
    """
    from repro.trace.sources import parse_benchmark

    scheme, ref = parse_benchmark(text)
    if scheme == "synthetic" and ref not in BENCHMARK_ORDER:
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {ref!r}; one of "
            + ", ".join(BENCHMARK_ORDER) + " (or ingest:<key-or-path>)")
    return text


def _workload_trace(workload):
    """The materialized trace a resolved workload names.

    All non-streaming commands fetch traces through here
    (:func:`repro.runner.artifacts.trace_artifact`), so synthetic and
    ingested workloads are interchangeable everywhere a benchmark
    argument is.
    """
    from repro.runner.artifacts import trace_artifact

    return trace_artifact(workload.benchmark, workload.length,
                          workload.seed)


def package_version() -> str:
    """The installed package version, falling back to the source tree's.

    An installed distribution answers through :mod:`importlib.metadata`;
    a source checkout on ``PYTHONPATH`` has no distribution, so the
    package's own ``__version__`` is the authority there.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return repro.__version__


def _experiment_registry():
    from repro.experiments import experiment_registry

    return experiment_registry()


def _resolved_spec(args: argparse.Namespace, benchmark: str | None = None,
                   extra: dict | None = None):
    """The :class:`repro.spec.RunSpec` this invocation describes.

    Gathers the command's explicit flags into the top override layer
    and resolves through :func:`repro.spec.resolve_spec` (defaults <
    spec file < environment < flags).
    """
    from repro.spec import resolve_spec

    overrides: dict = {}
    if benchmark is not None:
        overrides["workload"] = {"benchmark": benchmark}
    length = getattr(args, "length", None)
    if length is not None:
        overrides.setdefault("workload", {})["length"] = length
    engine = getattr(args, "engine", None)
    if engine is not None:
        overrides.setdefault("engine", {})["engine"] = engine
    for section, fields in (extra or {}).items():
        overrides.setdefault(section, {}).update(fields)
    return resolve_spec(path=getattr(args, "spec", None),
                        overrides=overrides or None)


def _maybe_dump_spec(args: argparse.Namespace, spec) -> bool:
    """Handle ``--dump-spec``: print the resolved spec, skip the run."""
    if getattr(args, "dump_spec", False):
        print(spec.to_json())
        return True
    return False


def _spec_file_selected(args: argparse.Namespace) -> bool:
    from repro.spec import env as specenv

    return bool(getattr(args, "spec", None) or specenv.spec_file())


def _obs_begin(spec) -> bool:
    """Start span collection when the resolved spec enables obs."""
    if not spec.obs.enabled:
        return False
    from repro.obs import spans as _spans

    _spans.enable(True)
    return True


def _obs_finish(spec, spans: list | None = None) -> list:
    """Drain collected spans and write the spec's configured exports."""
    from repro.obs import spans as _spans
    from repro.obs import write_chrome, write_jsonl

    if spans is None:
        spans = _spans.drain()
    if not spans:
        return spans
    if spec.obs.trace_path:
        write_jsonl(spans, spec.obs.trace_path)
        print(f"wrote {spec.obs.trace_path}", file=sys.stderr)
    if spec.obs.chrome_path:
        write_chrome(spans, spec.obs.chrome_path)
        print(f"wrote {spec.obs.chrome_path}", file=sys.stderr)
    return spans


def cmd_model(args: argparse.Namespace) -> int:
    spec = _resolved_spec(args, benchmark=args.benchmark)
    if _maybe_dump_spec(args, spec):
        return 0
    workload = spec.workload
    trace = _workload_trace(workload)
    report = FirstOrderModel(spec.machine).evaluate_trace(trace)
    print(f"{args.benchmark}: model CPI {report.cpi:.3f} "
          f"(IPC {report.ipc:.2f})")
    print(f"  IW fit: I = {report.characteristic.alpha:.2f} * "
          f"W^{report.characteristic.beta:.2f}, "
          f"L = {report.characteristic.latency:.2f}")
    print(f"  branch penalty/event: "
          f"{report.branch_penalty_per_event:.1f} cycles; long-miss "
          f"penalty/miss: {report.dcache_penalty_per_miss:.0f} cycles")
    stack = report.stack()
    print(bar_chart(
        [label for label, _ in stack.as_rows()],
        [value for _, value in stack.as_rows()],
        title="CPI stack:",
    ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    engine_overrides: dict = {"instrument": True}
    if getattr(args, "stream", False):
        engine_overrides["stream"] = True
    if getattr(args, "chunk_size", None) is not None:
        engine_overrides["chunk_size"] = args.chunk_size
    spec = _resolved_spec(args, benchmark=args.benchmark,
                          extra={"engine": engine_overrides})
    if _maybe_dump_spec(args, spec):
        return 0
    collecting = _obs_begin(spec)
    workload = spec.workload
    # span() is the shared no-op unless _obs_begin just enabled
    # collection, so the uninstrumented path stays span-free
    from repro.obs import spans as _spans

    with _spans.span("simulate", workload=workload.benchmark,
                     length=workload.length):
        if spec.engine.stream:
            from repro.runner import artifacts
            from repro.simulator.processor import resolve_telemetry
            from repro.simulator.streaming import simulate_stream
            from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

            stream = artifacts.trace_chunk_stream(
                workload.benchmark, workload.length, workload.seed,
                chunk_size=spec.engine.chunk_size or DEFAULT_CHUNK_SIZE)
            tele = resolve_telemetry(spec.telemetry)
            result = simulate_stream(
                stream, spec.machine,
                instrument=spec.engine.instrument,
                telemetry=tele if tele is not None else False)
        else:
            with _spans.span("trace.generate",
                             workload=workload.benchmark,
                             length=workload.length):
                trace = _workload_trace(workload)
            sim = DetailedSimulator.from_spec(spec)
            with _spans.span("sim.detailed",
                             benchmark=workload.benchmark,
                             length=workload.length):
                result = sim.run(trace)
            tele = sim.last_telemetry  # set when REPRO_TELEMETRY was
    if collecting:
        _obs_finish(spec)
    print(f"{args.benchmark}: {result.instructions} instructions in "
          f"{result.cycles} cycles — CPI {result.cpi:.3f} "
          f"(IPC {result.ipc:.2f})")
    print(f"  mispredictions {result.misprediction_count}, I-misses "
          f"{result.icache_short_count}+{result.icache_long_count}, "
          f"long D-misses {result.dcache_long_count}")
    instr = result.instrumentation
    if instr is not None:
        frac = instr.fraction_of_cycles_at_issue(spec.machine.width)
        print(f"  cycles at full issue width: {frac:.1%}")
    if tele is not None:
        print()
        print(tele.report.stack.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    benchmarks = args.benchmarks or list(BENCHMARK_ORDER)
    spec = _resolved_spec(args, benchmark=benchmarks[0])
    if _maybe_dump_spec(args, spec):
        return 0
    model = FirstOrderModel(spec.machine)
    print(f"{'bench':8s} {'model':>7s} {'sim':>7s} {'error':>7s}")
    errors = []
    for name in benchmarks:
        workload = spec.workload.with_benchmark(name)
        trace = _workload_trace(workload)
        report = model.evaluate_trace(trace)
        sim = DetailedSimulator(spec.machine, instrument=False).run(trace)
        err = (report.cpi - sim.cpi) / sim.cpi
        errors.append(abs(err))
        print(f"{name:8s} {report.cpi:7.3f} {sim.cpi:7.3f} {err:+7.1%}")
    print(f"mean |error| {sum(errors) / len(errors):.1%}, "
          f"worst {max(errors):.1%}")
    return 0


def _corun_spec_from_args(args: argparse.Namespace, benchmarks):
    """The :class:`repro.spec.CoRunSpec` an invocation describes.

    Shared by ``repro corun`` and ``repro submit corun`` so the local and
    service paths build byte-identical specs — and therefore the
    identical content key — from the same flags.  The machine section
    resolves through the usual layers (defaults < ``--spec`` file <
    environment < flags) via :func:`_resolved_spec`.
    """
    from repro.spec import CoRunSpec, InterleaveSpec, SpecError

    path = getattr(args, "corun_spec", None)
    if path:
        with open(path) as fh:
            return CoRunSpec.from_json(fh.read())
    if len(benchmarks) == 1 and benchmarks[0].endswith(".json"):
        with open(benchmarks[0]) as fh:
            return CoRunSpec.from_json(fh.read())
    if len(benchmarks) < 2:
        raise SpecError(
            "a co-run needs at least 2 benchmarks (or --corun-spec PATH)")
    base = _resolved_spec(args, benchmark=benchmarks[0])
    return CoRunSpec(
        workloads=tuple(base.workload.with_benchmark(name)
                        for name in benchmarks),
        machine=base.machine,
        interleave=InterleaveSpec(
            policy=getattr(args, "policy", None) or "cpi",
            quantum=getattr(args, "quantum", None) or 64,
            seed=getattr(args, "interleave_seed", None) or 0,
        ),
    )


def cmd_corun(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.corun import corun_payload_checks, format_corun, run_corun
    from repro.runner import artifacts
    from repro.spec import SpecError
    from repro.telemetry.manifest import build_manifest, write_manifest

    try:
        spec = _corun_spec_from_args(args, args.benchmarks or [])
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if _maybe_dump_spec(args, spec):
        return 0
    start = time.perf_counter()
    payload = run_corun(spec, reuse=True, stream=args.stream,
                        chunk_size=args.chunk_size)
    elapsed = time.perf_counter() - start
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_corun(payload))
    failures = sum(not holds for _, holds, _ in corun_payload_checks(payload))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
        write_manifest(args.output, build_manifest(
            command="corun",
            config=spec.machine,
            spec=None,
            wall_seconds=elapsed,
            cache_stats=artifacts.cache_stats(),
            wallclock={"total_s": elapsed},
            extra={"corun_spec": spec.to_dict(),
                   "content_key": payload["content_key"]},
        ))
    return 1 if failures else 0


def cmd_iw(args: argparse.Namespace) -> int:
    from repro.spec.specs import WorkloadSpec
    from repro.window.iw_simulator import measure_iw_curve
    from repro.window.powerlaw import fit_curve

    length = args.length if args.length is not None else 30_000
    trace = _workload_trace(WorkloadSpec(args.benchmark, length))
    curve = measure_iw_curve(trace)
    fit = fit_curve(curve)
    print(f"{args.benchmark}: I = {fit.alpha:.2f} * W^{fit.beta:.2f} "
          f"(R^2 {fit.r_squared:.3f})")
    xs = [float(p.window_size) for p in curve.points]
    print(line_plot(
        {
            "measured": (xs, [p.ipc for p in curve.points]),
            "fit": (xs, [fit.ipc(x) for x in xs]),
        },
        title="IW characteristic (unit latency, unbounded width)",
        x_label="window size", y_label="IPC",
    ))
    return 0


def cmd_transient(args: argparse.Namespace) -> int:
    from repro.core.transient import branch_transient
    from repro.window.characteristic import IWCharacteristic

    ch = IWCharacteristic.square_law(issue_width=args.width)
    bt = branch_transient(ch, args.depth, args.width, 48)
    timeline = bt.issue_rate_timeline()
    print(f"isolated misprediction transient (alpha=1, beta=0.5, "
          f"width {args.width}, depth {args.depth}):")
    print(f"  drain {bt.drain.penalty:.1f} + pipe {args.depth} + "
          f"ramp {bt.ramp.penalty:.1f} = {bt.total_penalty:.1f} cycles")
    print(line_plot(
        {"issue rate": (list(range(len(timeline))), list(timeline))},
        x_label="cycle", y_label="instructions issued",
    ))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    module = registry.get(args.name)
    if module is None:
        print(f"unknown experiment {args.name!r}; try: "
              + ", ".join(sorted(set(registry))), file=sys.stderr)
        return 2
    result = module.run()
    print(result.format())
    failures = 0
    for claim in result.checks():
        print(claim)
        failures += not claim.holds
    return 1 if failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.runner import artifacts
    from repro.runner.bench import format_bench, run_bench, write_bench
    from repro.telemetry.manifest import build_manifest, write_manifest

    spec = None
    length = args.length if args.length is not None else 30_000
    if _spec_file_selected(args):
        spec = _resolved_spec(args)
        length = spec.workload.length
        if _maybe_dump_spec(args, spec):
            return 0
    runs = 1 if args.quick else args.runs
    start = time.perf_counter()
    doc = run_bench(
        length=length, runs=runs, jobs=args.jobs,
        progress=lambda msg: print(f"bench: {msg} ...", file=sys.stderr),
    )
    elapsed = time.perf_counter() - start
    print(format_bench(doc))
    if args.output:
        write_bench(doc, args.output)
        print(f"wrote {args.output}")
        write_manifest(args.output, build_manifest(
            command="bench",
            config=BASELINE,
            spec=spec,
            wall_seconds=elapsed,
            cache_stats=artifacts.cache_stats(),
            wallclock={"total_s": elapsed,
                       "phases": doc.get("section_seconds", {})},
            extra={"trace_length": length, "runs": runs},
        ))
    return 0


def _parse_axis(text: str):
    """One ``--axis path=v1,v2,...`` flag into ``(path, values)``."""
    import json

    path, sep, raw = text.partition("=")
    if not sep or not path or not raw:
        raise SystemExit(
            f"bad --axis {text!r}; expected "
            "section.field=value,value,... (e.g. machine.window_size=16,32)")
    values = []
    for item in raw.split(","):
        try:
            values.append(json.loads(item))
        except json.JSONDecodeError:
            values.append(item)
    return path, tuple(values)


def _resolved_search(args: argparse.Namespace):
    """The :class:`repro.explore.SearchSpec` this invocation describes.

    ``--search file.json`` supplies the whole search; otherwise the base
    comes from the usual spec resolution (defaults < spec file < env <
    flags) and the axes from ``--axis``.  Explicit strategy/budget flags
    override the file either way.
    """
    import json

    from repro.explore import BudgetSpec, SearchSpec
    from repro.spec import SpecError

    overrides = {
        name: getattr(args, name)
        for name in ("strategy", "seed", "samples", "top_k", "margin")
        if getattr(args, name) is not None
    }
    budget = {}
    if args.budget is not None:
        budget["max_detailed"] = args.budget
    if args.wall_clock is not None:
        budget["max_seconds"] = args.wall_clock

    if args.search:
        with open(args.search) as fh:
            data = json.load(fh)
        search = SearchSpec.from_dict(data)
        if args.axis:
            raise SystemExit("--axis cannot amend a --search file")
        if budget:
            overrides["budget"] = BudgetSpec(
                **{**search.budget.to_dict(), **budget})
        if overrides:
            import dataclasses

            search = dataclasses.replace(search, **overrides)
        return search

    if not args.benchmark:
        raise SystemExit("explore needs a benchmark (or --search FILE)")
    if not args.axis:
        raise SystemExit(
            "explore needs at least one --axis (or --search FILE)")
    base = _resolved_spec(args, benchmark=args.benchmark)
    axes = dict(_parse_axis(text) for text in args.axis)
    try:
        return SearchSpec(base=base, axes=axes,
                          budget=BudgetSpec(**budget), **overrides)
    except SpecError as exc:
        raise SystemExit(f"invalid search: {exc}") from exc


def cmd_explore(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.explore import ExploreInterrupted, JournalError, run_search
    from repro.runner import artifacts
    from repro.telemetry.manifest import build_manifest, write_manifest

    search = _resolved_search(args)
    if getattr(args, "dump_spec", False):
        print(json.dumps(search.to_dict(), indent=2, sort_keys=True))
        return 0
    journal = args.journal
    if journal is None and artifacts.cache_enabled():
        journal = str(artifacts.cache_root() / "explore"
                      / f"{search.content_key()}.jsonl")
    start = time.perf_counter()
    try:
        result = run_search(
            search, journal_path=journal, resume=args.resume,
            jobs=args.jobs,
            progress=lambda msg: print(f"explore: {msg}", file=sys.stderr),
        )
    except JournalError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    except ExploreInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print("rerun with --resume to finish from the journal",
              file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start
    print(result.format())
    if args.output:
        parent = os.path.dirname(args.output)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.output, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
        write_manifest(args.output, build_manifest(
            command="explore",
            config=search.base.machine,
            spec=search.base,
            wall_seconds=elapsed,
            cache_stats=artifacts.cache_stats(),
            extra={"search": search.to_dict(),
                   "search_key": search.content_key(),
                   "journal": journal},
        ))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    import time

    from repro.experiments.runner import run_all
    from repro.runner import artifacts
    from repro.telemetry.manifest import build_manifest, write_manifest

    if args.jobs is not None:
        from repro.runner import set_default_jobs

        set_default_jobs(args.jobs)
    spec = None
    if _spec_file_selected(args):
        spec = _resolved_spec(args)
        if _maybe_dump_spec(args, spec):
            return 0
    # with an output file the manifest gains a wallclock section, so
    # collect spans for the duration of the run to attribute the time
    collecting = False
    if args.output:
        from repro.obs import spans as _spans

        collecting = True
        _spans.enable(True)
        _spans.reset()
    start = time.perf_counter()
    if collecting:
        with _spans.span("report"):
            report = run_all(
                progress=lambda name: print(f"running {name} ..."),
                workload=spec.workload if spec is not None else None,
            )
    else:
        report = run_all(
            progress=lambda name: print(f"running {name} ..."),
            workload=spec.workload if spec is not None else None,
        )
    elapsed = time.perf_counter() - start
    text = report.to_markdown()
    if args.output:
        from repro.obs import wallclock_summary

        parent = os.path.dirname(args.output)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}")
        write_manifest(args.output, build_manifest(
            command="report",
            config=BASELINE,
            spec=spec,
            wall_seconds=elapsed,
            cache_stats=artifacts.cache_stats(),
            wallclock=wallclock_summary(_spans.drain()),
        ))
    else:
        print(text)
    for name, claim in report.failures():
        print(f"FAILED [{name}] {claim}")
    return 0 if report.all_passed else 1


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.telemetry.session import Telemetry

    telemetry_overrides: dict = {"enabled": True, "timeline": True}
    if args.interval is not None:
        telemetry_overrides["interval"] = args.interval
    if args.max_rows is not None:
        telemetry_overrides["max_timeline_rows"] = args.max_rows
    extra: dict = {"telemetry": telemetry_overrides}
    engine_overrides: dict = {}
    if getattr(args, "stream", False):
        engine_overrides["stream"] = True
    if getattr(args, "chunk_size", None) is not None:
        engine_overrides["chunk_size"] = args.chunk_size
    if engine_overrides:
        extra["engine"] = engine_overrides
    spec = _resolved_spec(args, benchmark=args.benchmark, extra=extra)
    if _maybe_dump_spec(args, spec):
        return 0
    workload = spec.workload
    tconfig = spec.telemetry.to_config()
    tele = Telemetry(tconfig)
    if spec.engine.stream:
        from repro.runner import artifacts
        from repro.simulator.streaming import simulate_stream
        from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

        stream = artifacts.trace_chunk_stream(
            workload.benchmark, workload.length, workload.seed,
            chunk_size=spec.engine.chunk_size or DEFAULT_CHUNK_SIZE)
        result = simulate_stream(stream, spec.machine, telemetry=tele)
    else:
        trace = _workload_trace(workload)
        sim = DetailedSimulator(spec.machine, telemetry=tele)
        result = sim.run(trace)
    report = tele.report
    timeline = report.timeline
    # the rollup recorder may have coarsened past the configured
    # interval; the finalized timeline reports the effective one
    print(f"{args.benchmark}: CPI {result.cpi:.3f} over {result.cycles} "
          f"cycles ({timeline.intervals} intervals of "
          f"{timeline.interval} cycles)")
    print(f"timeline rows: {timeline.intervals}")
    print()
    print(timeline.render())
    print()
    print(report.stack.render())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.runner.pool import run_units
    from repro.spec import SweepSpec
    from repro.telemetry.metrics import metrics_registry

    benchmarks = args.benchmarks or list(BENCHMARK_ORDER)
    engine_overrides: dict = {}
    if getattr(args, "stream", False):
        engine_overrides["stream"] = True
    if getattr(args, "chunk_size", None) is not None:
        engine_overrides["chunk_size"] = args.chunk_size
    spec = _resolved_spec(
        args, benchmark=benchmarks[0],
        extra={"engine": engine_overrides} if engine_overrides else None)
    if _maybe_dump_spec(args, spec):
        return 0
    units = SweepSpec(base=spec, benchmarks=benchmarks).expand()
    results, stats = run_units(units, jobs=args.jobs)
    for r in results:
        print(f"{r.unit.benchmark:10s} CPI {r.result.cpi:6.3f}  "
              f"{r.seconds:6.3f}s")
    print()
    print(stats.summary())
    print()
    reg = metrics_registry()
    if args.json:
        print(reg.to_json())
    else:
        print(reg.render())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import format_profile, spans as _spans
    from repro.runner.pool import execute_spec

    if args.from_jsonl:
        from repro.obs import read_jsonl_spans

        spans = read_jsonl_spans(args.from_jsonl)
        print(format_profile(spans))
        return 0
    if args.benchmark is None:
        print("profile needs a benchmark (or --from-jsonl PATH)",
              file=sys.stderr)
        return 2
    engine_overrides: dict = {"instrument": True}
    if getattr(args, "stream", False):
        engine_overrides["stream"] = True
    if getattr(args, "chunk_size", None) is not None:
        engine_overrides["chunk_size"] = args.chunk_size
    spec = _resolved_spec(args, benchmark=args.benchmark,
                          extra={"engine": engine_overrides,
                                 "obs": {"enabled": True}})
    if _maybe_dump_spec(args, spec):
        return 0
    _spans.enable(True)
    _spans.reset()
    workload = spec.workload
    with _spans.span("profile", workload=workload.benchmark,
                     length=workload.length):
        result = execute_spec(spec, reuse_result=True)
    spans = _obs_finish(spec)
    print(f"{args.benchmark}: CPI {result.cpi:.3f} over "
          f"{result.cycles} cycles")
    print()
    print(format_profile(spans))
    if args.jsonl:
        from repro.obs import write_jsonl

        write_jsonl(spans, args.jsonl)
        print(f"wrote {args.jsonl}")
    if args.chrome:
        from repro.obs import write_chrome

        write_chrome(spans, args.chrome)
        print(f"wrote {args.chrome}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    import json

    from repro.ingest import ingest_file, IngestError

    try:
        result = ingest_file(args.file, fmt=args.format, name=args.name,
                             force=args.force)
    except IngestError as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    verb = "reused" if result.reused else "ingested"
    print(f"{verb} {args.file} ({result.format}): {result.length} "
          f"instruction records in {result.chunks} chunk(s)")
    for warning in result.warnings:
        print(f"  warning: {warning}")
    print(f"workload key: {result.key}")
    print("run it anywhere a benchmark goes, e.g.:")
    print(f"  repro model {result.benchmark}")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.isa.opclass import OpClass
    from repro.runner import artifacts
    from repro.trace.chunks import chunk_content_key
    from repro.trace.sources import parse_benchmark
    from repro.trace.trace import _COLUMNS
    from repro.trace.vectorgen import DEFAULT_CHUNK_SIZE

    cs = args.chunk_size or DEFAULT_CHUNK_SIZE
    stream = artifacts.trace_chunk_stream(
        args.benchmark, args.length, args.seed, chunk_size=cs)
    if args.extract and args.json:
        import json

        from repro.trace.analysis import extract_model_inputs

        print(json.dumps(extract_model_inputs(stream).to_dict(),
                         indent=2, sort_keys=True))
        return 0
    n = len(stream)
    class_counts = np.zeros(len(OpClass), dtype=np.int64)
    keys: list[str] = []
    sizes: list[int] = []
    mem_bytes = 0
    for chunk in stream:
        keys.append(chunk_content_key(chunk))
        sizes.append(len(chunk))
        class_counts += np.bincount(chunk.opclass.astype(np.int64),
                                    minlength=len(OpClass))
        mem_bytes += sum(getattr(chunk, col).nbytes for col, _ in _COLUMNS)

    per_instr = sum(np.dtype(d).itemsize for _, d in _COLUMNS)
    print(f"{stream.name}: {n} instructions, chunk size "
          f"{stream.chunk_size} ({stream.num_chunks} chunks)")
    print(f"  columns ({per_instr} B/instruction): "
          + " ".join(f"{col}:{np.dtype(dtype).name}"
                     for col, dtype in _COLUMNS))
    print(f"  column bytes: {mem_bytes / 1e6:.1f} MB total; one "
          f"{stream.chunk_size}-instruction chunk resident at a time = "
          f"{min(stream.chunk_size, n) * per_instr / 1e6:.1f} MB peak")
    print("  mix: " + ", ".join(
        f"{OpClass(c).name.lower()} {class_counts[c] / n:.1%}"
        for c in range(len(OpClass)) if class_counts[c]))
    if artifacts.cache_enabled():
        stored = 0
        on_disk = 0
        for key in set(keys):
            path = artifacts.chunk_payload_path(key)
            if path.exists():
                stored += 1
                on_disk += path.stat().st_size
        dedup = len(keys) - len(set(keys))
        shared = f", {dedup} chunk(s) deduplicated" if dedup else ""
        print(f"  chunk cache: {stored}/{len(set(keys))} payloads on disk, "
              f"{on_disk / 1e6:.1f} MB under "
              f"{artifacts.cache_root() / 'chunks'} (mmap-served{shared})")
    else:
        print("  chunk cache: disabled — chunks regenerate on every pass")
    print(f"  {'chunk':>5s} {'instructions':>12s}  content key")
    for i, (key, size) in enumerate(zip(keys, sizes)):
        print(f"  {i:5d} {size:12d}  {key}")
    scheme, ref = parse_benchmark(args.benchmark)
    if scheme == "ingest":
        manifest = artifacts.trace_chunk_manifest(args.benchmark)
        prov = (manifest or {}).get("provenance", {})
        print("  provenance:")
        print(f"    source format: {prov.get('format', '?')}")
        print(f"    source file:   {prov.get('source', '?')} "
              f"(sha256 {prov.get('source_sha256', '?')})")
        print(f"    records:       {prov.get('records', '?')}")
        warnings = prov.get("warnings", [])
        if warnings:
            print(f"    normalization warnings ({len(warnings)}):")
            for warning in warnings:
                print(f"      - {warning}")
        else:
            print("    normalization warnings: none")
    if args.extract:
        from repro.trace.analysis import extract_model_inputs

        inputs = extract_model_inputs(stream)
        print("  model inputs (extracted):")
        print(f"    IW fit: I = {inputs.alpha:.3f} * W^{inputs.beta:.3f} "
              f"(R^2 {inputs.r_squared:.3f}, over {inputs.fit_length} "
              "instructions)")
        print(f"    mean dependence distance: "
              f"{inputs.statistics.mean_dependence_distance:.2f}")
        print(f"    branch mispredict rate (gshare 8K): "
              f"{inputs.mispredict_rate:.4f} "
              f"(taken rate {inputs.taken_rate:.4f})")
        print(f"    footprints: {inputs.code_footprint} pcs, "
              f"{inputs.data_footprint_lines} 64B data lines")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SchedulerConfig, serve

    config = SchedulerConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
        request_timeout_s=args.timeout,
        slow_request_s=args.slow_request,
    )
    peer = None
    if args.peer:
        from repro.fleet.peers import install_peer

        peer = install_peer(args.peer)

    def ready(server) -> None:
        # the ready line carries the *bound* address — with --port 0 the
        # kernel picks the port, and spawners parse it from here
        node = f" as node {args.node_id}" if args.node_id else ""
        print(
            f"repro service listening on {server.host}:{server.port}"
            f"{node} (queue limit {config.queue_limit}, "
            f"workers {config.workers or 'auto'}); Ctrl-C drains and stops",
            flush=True,
        )

    try:
        serve(args.host, args.port, config, ready=ready,
              node_id=args.node_id)
    finally:
        if peer is not None:
            peer.close()
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import FleetSpec, route, spawn_node

    nodes = []
    spawned = []
    try:
        if args.spawn:
            import tempfile

            base = args.cache_dir or tempfile.mkdtemp(prefix="repro-fleet-")
            for i in range(args.spawn):
                node_id = f"n{i + 1}"
                proc = spawn_node(
                    node_id, os.path.join(base, f"cache-{node_id}"),
                    workers=args.workers, queue_limit=args.queue_limit)
                spawned.append(proc)
                nodes.append(proc.address)
                print(f"node {node_id} up at {proc.address} "
                      f"(pid {proc.pid})", flush=True)
        nodes.extend(args.node or [])
        if not nodes:
            print("route needs --node HOST:PORT (repeatable) or --spawn N",
                  file=sys.stderr)
            return 2
        spec = FleetSpec(
            nodes=tuple(nodes), replication=args.replication,
            hash_seed=args.seed, vnodes=args.vnodes,
            peek=not args.no_peek)

        def ready(router) -> None:
            print(f"repro router listening on {router.host}:{router.port} "
                  f"over {len(spec.nodes)} node(s); Ctrl-C stops",
                  flush=True)
            if args.state:
                doc = {
                    "router": {"host": router.host, "port": router.port},
                    "nodes": [
                        {"node_id": p.node_id, "address": p.address,
                         "pid": p.pid, "cache_dir": p.cache_dir}
                        for p in spawned
                    ] or [{"address": a} for a in spec.nodes],
                }
                with open(args.state, "w") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                print(f"wrote {args.state}", flush=True)

        route(spec, args.host, args.port, ready=ready)
        return 0
    finally:
        for proc in spawned:
            try:
                proc.stop()
            except Exception:  # noqa: BLE001 - teardown is best-effort
                proc.process.kill()


def cmd_fleet_status(args: argparse.Namespace) -> int:
    import http.client
    import json

    conn = http.client.HTTPConnection(args.host, args.port,
                                      timeout=args.timeout)
    try:
        conn.request("GET", "/fleet")
        response = conn.getresponse()
        body = response.read()
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach router at {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 3
    finally:
        conn.close()
    if response.status != 200:
        print(f"router answered {response.status}: "
              f"{body.decode(errors='replace').strip()}", file=sys.stderr)
        return 1
    doc = json.loads(body)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    router = doc["router"]
    print(f"router {router['host']}:{router['port']} "
          f"(v{router['version']}, protocol {router['protocol']})")
    print(f"nodes: {doc['healthy']}/{len(doc['nodes'])} healthy "
          f"(replication {doc['spec']['replication']}, "
          f"seed {doc['spec']['hash_seed']})")
    for node in doc["nodes"]:
        state = "up" if node["healthy"] else "DOWN"
        name = node["node_id"] or "-"
        extra = f"  [{node['last_error']}]" if node["last_error"] else ""
        print(f"  {node['address']:21s} {name:8s} {state:4s} "
              f"inflight {node['inflight']}{extra}")
    counters = doc["counters"]
    print("traffic: " + ", ".join(
        f"{name.split('.', 1)[1]} {counters[name]}"
        for name in sorted(counters)))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient

    host, port = args.host, args.port
    if args.router:
        rhost, _, rport = args.router.rpartition(":")
        host, port = rhost or "127.0.0.1", int(rport)
    params: dict = {}
    if args.op in ("model", "simulate"):
        if not args.target:
            print(f"{args.op} needs a benchmark name", file=sys.stderr)
            return 2
        spec = _resolved_spec(args, benchmark=args.target[0])
        if _maybe_dump_spec(args, spec):
            return 0
        params = {"spec": spec.to_dict()}
    elif args.op == "compare":
        if args.target:
            params["benchmarks"] = list(args.target)
        if args.length is not None:
            params["length"] = args.length
    elif args.op == "experiment":
        if not args.target:
            print("experiment needs a name", file=sys.stderr)
            return 2
        params = {"name": args.target[0]}
    elif args.op == "explore":
        if not args.target:
            print("explore needs a SearchSpec JSON path", file=sys.stderr)
            return 2
        with open(args.target[0]) as fh:
            params = {"search": json.load(fh)}
    elif args.op == "corun":
        from repro.spec import SpecError

        try:
            corun_spec = _corun_spec_from_args(args, list(args.target))
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if _maybe_dump_spec(args, corun_spec):
            return 0
        params = {"corun": corun_spec.to_dict()}
    try:
        with ServiceClient(host, port, timeout=args.timeout) as client:
            response = client.request(args.op, params or None,
                                      timeout=args.timeout)
    except ConnectionError as exc:
        print(f"cannot reach service at {host}:{port}: {exc}",
              file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    if not response.get("ok"):
        error = response.get("error", {})
        print(f"error [{error.get('code')}]: {error.get('message')}",
              file=sys.stderr)
        return 1
    result = response["result"]
    meta = response.get("meta", {})
    if args.op in ("model", "simulate"):
        print(f"{result['benchmark']}: CPI {result['cpi']:.3f} "
              f"(IPC {result['ipc']:.2f})")
    elif args.op == "compare":
        print(f"{'bench':8s} {'model':>7s} {'sim':>7s} {'error':>7s}")
        for row in result["rows"]:
            print(f"{row['benchmark']:8s} {row['model_cpi']:7.3f} "
                  f"{row['sim_cpi']:7.3f} {row['error']:+7.1%}")
        print(f"mean |error| {result['mean_abs_error']:.1%}, "
              f"worst {result['worst_abs_error']:.1%}")
    elif args.op == "experiment":
        print(result["output"])
        for check in result["checks"]:
            print(check["text"])
    elif args.op == "corun":
        from repro.corun import format_corun

        print(format_corun(result))
    elif args.op == "explore":
        print(f"{result['candidates']} candidates, "
              f"{len(result['promotions'])} promoted "
              f"({result['promoted_fraction']:.0%}); frontier:")
        for point in result["frontier"]:
            values = " ".join(f"{path.split('.')[-1]}={value}"
                              for path, value in point["values"].items())
            print(f"  cost {point['cost']:7.1f}  IPC "
                  f"{point['ipc']:6.3f}  {values}")
    else:
        print(json.dumps(result, indent=2, sort_keys=True))
    if meta:
        node = f" by {meta['node']}" if meta.get("node") else ""
        print(f"[served from {meta.get('served_from')}{node} in "
              f"{meta.get('seconds', 0):.3f}s]", file=sys.stderr)
    if args.op == "experiment" and not result.get("passed", True):
        return 1
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(BENCHMARK_ORDER))
    print("workload forms: <benchmark>, synthetic:<benchmark>, "
          "ingest:<key-or-path> (see 'repro ingest')")
    names = sorted(
        m.__name__.split(".")[-1]
        for m in _experiment_registry().values()
    )
    print("experiments:", ", ".join(dict.fromkeys(names)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A First-Order Superscalar Processor Model "
                    "(Karkhanis & Smith, ISCA 2004) — reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    parser.add_argument(
        "--log-level", default="warning",
        choices=("debug", "info", "warning", "error"),
        help="logging verbosity for the repro package (default warning)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="shorthand: -v = info, -vv = debug",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bench(p):
        p.add_argument("benchmark", type=_benchmark_arg,
                       metavar="benchmark",
                       help="a synthetic profile name ("
                            + ", ".join(BENCHMARK_ORDER)
                            + ") or ingest:<key-or-path> (a foreign "
                            "trace; see 'repro ingest')")
        p.add_argument("--length", type=int, default=None,
                       help="dynamic trace length (default 30000)")

    def add_spec(p):
        p.add_argument("--spec", default=None, metavar="PATH",
                       help="resolve the run from this RunSpec JSON file "
                            "(flags still override; see "
                            "docs/CONFIGURATION.md)")
        p.add_argument("--dump-spec", action="store_true",
                       help="print the fully-resolved spec as JSON and "
                            "exit without running")

    p = sub.add_parser("model", help="evaluate the first-order model")
    add_bench(p)
    add_spec(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("simulate", help="run the detailed simulator")
    add_bench(p)
    add_spec(p)
    p.add_argument("--engine", choices=("fast", "reference"), default=None,
                   help="simulation engine (default: spec/env, else fast)")
    p.add_argument("--stream", action="store_true",
                   help="run the O(chunk)-memory streaming pipeline "
                        "(bit-identical results at any workload length)")
    p.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                   help="streaming chunk granularity in instructions "
                        "(default 65536)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="model vs simulation CPI table")
    p.add_argument("benchmarks", nargs="*", type=_benchmark_arg,
                   metavar="benchmark", default=None)
    p.add_argument("--length", type=int, default=None)
    add_spec(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "corun",
        help="multi-programmed co-run over a shared L2 "
             "(see docs/SCENARIOS.md)",
    )
    p.add_argument("benchmarks", nargs="*", type=_benchmark_arg,
                   metavar="benchmark",
                   help="two or more workloads to co-schedule (synthetic "
                        "names or ingest:<key-or-path>)")
    p.add_argument("--length", type=int, default=None,
                   help="dynamic trace length per workload (default 30000)")
    p.add_argument("--policy", choices=("cpi", "round_robin"), default=None,
                   help="interleave policy (default cpi: "
                        "cycle-proportional)")
    p.add_argument("--quantum", type=int, default=None,
                   help="round-robin turn length in instructions "
                        "(default 64)")
    p.add_argument("--interleave-seed", type=int, default=None,
                   dest="interleave_seed",
                   help="pinned interleave seed (default 0)")
    p.add_argument("--corun-spec", default=None, metavar="PATH",
                   dest="corun_spec",
                   help="load the whole CoRunSpec from this JSON file "
                        "(see examples/corun_spec.json)")
    p.add_argument("--stream", action="store_true",
                   help="feed the contended pass from the chunk store "
                        "(O(chunk) trace memory; bit-identical results)")
    p.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                   help="streaming chunk granularity in instructions")
    p.add_argument("--json", action="store_true",
                   help="print the full result payload as JSON")
    p.add_argument("--output", "-o", default=None,
                   help="write the result JSON (plus run manifest) here")
    add_spec(p)
    p.set_defaults(func=cmd_corun)

    p = sub.add_parser("iw", help="measure and plot the IW characteristic")
    add_bench(p)
    p.set_defaults(func=cmd_iw)

    p = sub.add_parser("transient",
                       help="plot the misprediction transient")
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--depth", type=int, default=5)
    p.set_defaults(func=cmd_transient)

    p = sub.add_parser("experiment", help="run one paper experiment")
    p.add_argument("name", help="e.g. fig15, tab01, fig17, cmp_statsim")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "report",
        help="run every experiment and emit a markdown report",
    )
    p.add_argument("--output", "-o", default=None,
                   help="write the report to this file instead of stdout")
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker processes for sweep experiments "
                        "(default: CPU count)")
    add_spec(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "explore",
        help="surrogate-guided design-space search to a Pareto frontier",
    )
    p.add_argument("benchmark", nargs="?", type=_benchmark_arg,
                   metavar="benchmark",
                   help="workload benchmark (omit with --search)")
    p.add_argument("--length", type=int, default=None,
                   help="dynamic trace length (default 30000)")
    p.add_argument("--axis", "-a", action="append", default=None,
                   metavar="PATH=V1,V2,...",
                   help="one design axis, e.g. machine.window_size=16,32,64 "
                        "(repeatable)")
    p.add_argument("--search", default=None, metavar="PATH",
                   help="load the whole SearchSpec from this JSON file")
    p.add_argument("--strategy", choices=("grid", "random", "halving"),
                   default=None,
                   help="candidate-scoring strategy (default grid)")
    p.add_argument("--seed", type=int, default=None,
                   help="strategy RNG seed (default 0)")
    p.add_argument("--samples", type=int, default=None,
                   help="candidates scored by the random strategy")
    p.add_argument("--top-k", type=int, default=None, dest="top_k",
                   help="extra best-by-surrogate promotions (default 1)")
    p.add_argument("--margin", type=float, default=None,
                   help="surrogate slack band kept Pareto-alive "
                        "(default 0.05)")
    p.add_argument("--budget", type=int, default=None,
                   help="max detailed-simulation promotions")
    p.add_argument("--wall-clock", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget for the whole search")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="checkpoint journal (default: derived from the "
                        "search key under the artifact cache)")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted search from its journal")
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker processes for promoted simulations")
    p.add_argument("--output", "-o", default=None,
                   help="write the result JSON (plus run manifest) here")
    add_spec(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser(
        "bench",
        help="time the simulation kernels and the baseline sweep",
    )
    p.add_argument("--output", "-o", default=None,
                   help="also write the JSON document (BENCH_perf.json)")
    p.add_argument("--length", type=int, default=None,
                   help="dynamic trace length (default 30000)")
    add_spec(p)
    p.add_argument("--runs", type=int, default=3,
                   help="best-of-N timing repetitions (default 3)")
    p.add_argument("--quick", action="store_true",
                   help="single-repetition timings (for CI)")
    p.add_argument("--jobs", "-j", type=int, default=None,
                   help="worker processes for the sweep phase")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "profile",
        help="run one simulation with wall-clock span tracing "
             "(see docs/OBSERVABILITY.md)",
    )
    p.add_argument("benchmark", nargs="?", type=_benchmark_arg,
                   metavar="benchmark",
                   help="workload benchmark (omit with --from-jsonl)")
    p.add_argument("--length", type=int, default=None,
                   help="dynamic trace length (default 30000)")
    p.add_argument("--from-jsonl", default=None, dest="from_jsonl",
                   metavar="PATH",
                   help="render the profile from a span JSONL file "
                        "instead of running (router hops and service "
                        "stages show as their own rows)")
    add_spec(p)
    p.add_argument("--engine", choices=("fast", "reference"), default=None,
                   help="simulation engine (default: spec/env, else fast)")
    p.add_argument("--stream", action="store_true",
                   help="profile the O(chunk)-memory streaming pipeline")
    p.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                   help="streaming chunk granularity in instructions")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="write the span tree as JSON lines")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="write a chrome://tracing / Perfetto trace")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "timeline",
        help="interval IPC/occupancy sparklines for one simulation",
    )
    add_bench(p)
    add_spec(p)
    p.add_argument("--interval", type=int, default=None,
                   help="interval length in cycles (default 1000)")
    p.add_argument("--max-rows", type=int, default=None, dest="max_rows",
                   help="bound the stored timeline rows; intervals merge "
                        "pairwise (power-of-two coarsening) past the bound")
    p.add_argument("--stream", action="store_true",
                   help="run the O(chunk)-memory streaming pipeline")
    p.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                   help="streaming chunk granularity in instructions "
                        "(default 65536)")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser(
        "stats",
        help="run a sweep and dump the runner/cache metrics registry",
    )
    p.add_argument("benchmarks", nargs="*", type=_benchmark_arg,
                   metavar="benchmark", default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--jobs", "-j", type=int, default=None)
    p.add_argument("--json", action="store_true",
                   help="emit the registry as JSON instead of text")
    p.add_argument("--stream", action="store_true",
                   help="run the sweep through the streaming pipeline")
    p.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                   help="streaming chunk granularity in instructions "
                        "(default 65536)")
    add_spec(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace-info",
        help="inspect a workload's chunked trace substrate "
             "(see docs/TRACE.md)",
    )
    add_bench(p)
    p.add_argument("--seed", type=int, default=None,
                   help="trace RNG seed (default: the profile's; "
                        "ingest workloads take none)")
    p.add_argument("--chunk-size", type=int, default=None, dest="chunk_size",
                   help="chunk granularity in instructions (default 65536)")
    p.add_argument("--extract", action="store_true",
                   help="additionally measure the first-order model's "
                        "inputs from the trace (IW power-law fit, mix, "
                        "branch predictability, footprints)")
    p.add_argument("--json", action="store_true",
                   help="with --extract: emit the model inputs as JSON")
    p.set_defaults(func=cmd_trace_info)

    p = sub.add_parser(
        "ingest",
        help="normalize a foreign trace file into the chunk store "
             "(see docs/TRACE.md)",
    )
    p.add_argument("file", help="the trace file to ingest")
    p.add_argument("--format", choices=("csv", "jsonl", "synchrotrace"),
                   default=None,
                   help="source format (default: detect from suffix "
                        "and content)")
    p.add_argument("--name", default=None,
                   help="workload label stored in the manifest "
                        "(default: the file stem)")
    p.add_argument("--force", action="store_true",
                   help="re-parse even when the source index already "
                        "maps this file's sha256 to a workload")
    p.add_argument("--json", action="store_true",
                   help="emit the IngestResult as JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "serve",
        help="start the model-evaluation service (see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7333,
                   help="TCP port (0 picks a free one; default 7333)")
    p.add_argument("--workers", type=int, default=None,
                   help="pool processes (default: CPU count)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admission bound before 'overloaded' (default 64)")
    p.add_argument("--batch-max", type=int, default=8,
                   help="max requests per worker micro-batch (default 8)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="default per-request deadline in seconds")
    p.add_argument("--slow-request", type=float, default=None,
                   dest="slow_request", metavar="SECONDS",
                   help="log computed requests slower than this at "
                        "WARNING with their latency breakdown")
    p.add_argument("--node-id", default=None, dest="node_id",
                   help="fleet identity label: stamps response metadata, "
                        "span attrs and the 'node' Prometheus label")
    p.add_argument("--peer", default=None, metavar="HOST:PORT",
                   help="probe this sibling's cache ('peek') before "
                        "computing a missed response, and replicate hits "
                        "locally (see docs/FLEET.md)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "route",
        help="start a consistent-hash fleet router (see docs/FLEET.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7400,
                   help="router TCP port (0 picks a free one; "
                        "default 7400)")
    p.add_argument("--node", action="append", default=None,
                   metavar="HOST:PORT",
                   help="one worker node to route onto (repeatable)")
    p.add_argument("--spawn", type=int, default=0, metavar="N",
                   help="spawn N local 'repro serve' nodes on ephemeral "
                        "ports with private caches")
    p.add_argument("--replication", type=int, default=2,
                   help="replica targets per key: failover and peek "
                        "candidates (default 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="hash-ring seed (default 0)")
    p.add_argument("--vnodes", type=int, default=64,
                   help="virtual nodes per member (default 64)")
    p.add_argument("--no-peek", action="store_true", dest="no_peek",
                   help="skip the cross-node cache peek before forwards")
    p.add_argument("--workers", type=int, default=None,
                   help="pool processes per spawned node")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="admission bound per spawned node (default 64)")
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   metavar="PATH",
                   help="base directory for spawned nodes' private "
                        "caches (default: a temp dir)")
    p.add_argument("--state", default=None, metavar="PATH",
                   help="write router address + node pids as JSON once "
                        "ready (lets harnesses find and kill nodes)")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser(
        "fleet-status",
        help="show a running router's topology, health and counters",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7400)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--json", action="store_true",
                   help="print the raw /fleet document")
    p.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser(
        "submit",
        help="submit one request to a running service",
    )
    p.add_argument("op",
                   choices=("model", "simulate", "compare", "experiment",
                            "explore", "corun", "ping", "metrics"))
    p.add_argument("target", nargs="*",
                   help="benchmark name(s), experiment name, a SearchSpec "
                        "JSON path (explore), or co-run benchmarks / a "
                        "CoRunSpec JSON path (corun)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7333)
    p.add_argument("--router", default=None, metavar="HOST:PORT",
                   help="submit via a fleet router instead of a node "
                        "(shorthand for its --host/--port)")
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--timeout", type=float, default=120.0)
    p.add_argument("--json", action="store_true",
                   help="print the raw response frame")
    add_spec(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("list", help="available benchmarks and experiments")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = args.log_level
    if args.verbose:
        level = "info" if args.verbose == 1 else "debug"
    logging.basicConfig(
        level=getattr(logging, level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
