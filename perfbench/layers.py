"""The traced run: spans around each layer's public calls, and the
per-layer metrics computed from them.

The program already records spans for artifact I/O, chunk reads, the
functional pass inside the artifact cache, the streaming engine and
telemetry.  :class:`Tracer` adds spans from outside, by wrapping the
public functions and methods that have none, for the duration of the
traced phase only.  Self times come from
:func:`repro.obs.export.profile_rows`.

Layers are the repository's modules.  A layer's self time is the self
time of every span counted in it, so the layers partition the traced
time; what no layer claims (the harness, ``run_corun``'s own glue) is
what ``traced.coverage`` leaves out.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from repro import obs
from repro.core import steady_state
from repro.core.model import FirstOrderModel
from repro.corun import scenario
from repro.frontend.collector import MissEventCollector
from repro.frontend.streaming import StreamingCollector
from repro.runner import artifacts, pool
from repro.simulator import streaming as sim_streaming
from repro.simulator.processor import DetailedSimulator
from repro.trace import chunks
from repro.trace.profiles import BENCHMARK_ORDER

#: span name -> the layer its self time is counted in; names not listed
#: here (and not matched by ``_PREFIXES``) are glue outside every layer
LAYER_OF = {
    "trace.artifact": "trace.deliver",
    "artifact.trace": "trace.deliver",
    "chunk.read": "trace.deliver",
    "trace.read_chunk": "trace.deliver",
    "cache.probe": "runner.artifacts",
    "chunk.store": "runner.artifacts",
    "runner.execute_spec": "runner.artifacts",
    "frontend.collect": "frontend.collect",
    "sim.functional": "frontend.collect",
    "frontend.stream": "frontend.stream",
    "frontend.warmup": "frontend.stream",
    "window.iw_curve": "window.iw_curve",
    "window.fit": "window.fit",
    "core.evaluate": "core.evaluate",
    "sim.detailed": "simulator.run",
    "simulator.stream": "simulator.stream",
    "sim.stream": "simulator.stream",
    "sim.stream.engine": "simulator.stream",
    "telemetry.finish": "simulator.stream",
    "corun.solo": "corun.solo",
    "corun.interleave": "corun.interleave",
    "corun.contended_pass": "corun.contended_pass",
}
_PREFIXES = (("simulator.run.", "simulator.run"),
             ("artifact.", "runner.artifacts"))

LAYERS = ("trace.deliver", "runner.artifacts", "frontend.collect",
          "frontend.stream", "window.iw_curve", "window.fit",
          "core.evaluate", "simulator.run", "simulator.stream",
          "corun.solo", "corun.interleave", "corun.contended_pass")

#: every per-layer metric with its unit and direction, in print order
PER_LAYER = (
    [("trace.deliver.self_s", "s", "lower"),
     ("trace.deliver.minst", "Minst", "lower"),
     ("runner.artifacts.self_s", "s", "lower"),
     ("runner.artifacts.hit_ratio", "ratio", "higher"),
     ("frontend.collect.self_s", "s", "lower"),
     ("frontend.collect.minst", "Minst", "lower"),
     ("frontend.stream.self_s", "s", "lower"),
     ("window.iw_curve.self_s", "s", "lower"),
     ("window.iw_curve.calls", "count", "lower"),
     ("window.fit.self_s", "s", "lower"),
     ("core.evaluate.self_s", "s", "lower"),
     ("simulator.run.self_s", "s", "lower"),
     ("simulator.run.ns_per_cycle", "ns", "lower")]
    + [(f"simulator.run.{b}.self_s", "s", "lower") for b in BENCHMARK_ORDER]
    + [("simulator.stream.self_s", "s", "lower"),
       ("simulator.stream.ns_per_cycle", "ns", "lower"),
       ("corun.solo.self_s", "s", "lower"),
       ("corun.interleave.self_s", "s", "lower"),
       ("corun.contended_pass.self_s", "s", "lower"),
       ("corun.contended_pass.minst", "Minst", "lower"),
       ("traced.coverage", "ratio", "higher"),
       ("traced.overhead", "ratio", "lower")]
)


def layer_of(name: str) -> str | None:
    if name in LAYER_OF:
        return LAYER_OF[name]
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


class Tracer:
    """Collects spans and wraps the span-less public calls while active.

    Use as a context manager, as often as needed; the wrapped functions
    are restored and span collection is switched off on each exit.
    :attr:`spans` accumulates everything recorded inside, and
    :attr:`cache` the artifact cache's counters for the same intervals.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.cache = artifacts.CacheStats()
        self._saved: list[tuple[object, str, object]] = []
        self._corun_depth = 0

    def __enter__(self):
        obs.reset()
        obs.enable(True)
        artifacts.reset_cache_stats()
        count = lambda args, result: {"n": len(result)}  # noqa: E731
        self._wrap(artifacts, "trace_artifact", "trace.artifact", count)
        self._wrap(chunks, "read_chunk", "trace.read_chunk", count)
        self._wrap(MissEventCollector, "collect", "frontend.collect",
                   lambda args, result: {"n": len(args[1])})
        self._wrap(steady_state, "measure_iw_curve", "window.iw_curve")
        self._wrap(steady_state, "fit_curve", "window.fit")
        self._wrap(FirstOrderModel, "evaluate", "core.evaluate")
        self._wrap(DetailedSimulator, "run",
                   lambda args: f"simulator.run.{args[1].name}",
                   lambda args, result: {"cycles": result.cycles})
        self._wrap(sim_streaming, "simulate_stream", "simulator.stream",
                   lambda args, result: {"cycles": result.cycles})
        self._wrap(pool, "execute_spec",
                   lambda args: ("corun.solo" if self._corun_depth
                                 else "runner.execute_spec"))
        self._wrap(scenario, "run_corun", "corun.run", depth=True)
        self._wrap(scenario, "interleave_order", "corun.interleave")
        self._wrap(scenario, "run_contended_pass", "corun.contended_pass",
                   lambda args, result: {"n": sum(args[1])})
        self._wrap_stream()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        obs.enable(False)
        self.spans += obs.drain()
        self.cache.merge(artifacts.cache_stats())
        return False

    def _wrap(self, owner, attr, name, attrs=None, depth=False):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            with obs.span(span_name) as sp:
                self._corun_depth += depth
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._corun_depth -= depth
                if attrs is not None:
                    sp.set(**attrs(args, result))
                return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_stream(self):
        """Time each step of the streaming functional pass: it is a
        generator the streaming engine pulls chunk by chunk."""
        original = StreamingCollector.iter_annotated

        @functools.wraps(original)
        def iter_annotated(*args, **kwargs):
            feed = original(*args, **kwargs)
            while True:
                with obs.span("frontend.stream"):
                    item = next(feed, None)
                if item is None:
                    return
                yield item

        self._saved.append((StreamingCollector, "iter_annotated", original))
        StreamingCollector.iter_annotated = iter_annotated


def layer_metrics(tracer: Tracer, passes: int, wall_s: float,
                  untraced_rate: float, traced_rate: float) -> dict:
    """The per-layer metrics of one traced phase.

    Times, instruction counts and call counts are per pass over the
    workload's operations, so runs of different length compare.
    ``wall_s`` is the traced phase's operation time; the cache hit ratio
    comes from the artifact cache's own counters for the phase.
    """
    spans = tracer.spans
    self_s: dict[str, float] = defaultdict(float)
    for row in obs.profile_rows(spans):
        layer = layer_of(row["name"])
        if layer is not None:
            self_s[layer] += row["self_s"]
        if row["name"].startswith("simulator.run."):
            self_s[row["name"]] += row["self_s"]
    sums: dict[str, float] = defaultdict(float)
    for s in spans:
        name = layer_of(s["name"]) or s["name"]
        sums[name + ".calls"] += 1
        for key in ("n", "cycles"):
            sums[name + "." + key] += s["attrs"].get(key, 0)

    def ns_per_cycle(layer):
        cycles = sums[layer + ".cycles"]
        return self_s[layer] * 1e9 / cycles if cycles else 0.0

    stats = tracer.cache
    probes = stats.total_hits() + stats.total_misses()
    values = {f"{layer}.self_s": self_s[layer] / passes for layer in LAYERS}
    values.update({
        f"simulator.run.{b}.self_s": self_s[f"simulator.run.{b}"] / passes
        for b in BENCHMARK_ORDER
    })
    values.update({
        "trace.deliver.minst": sums["trace.deliver.n"] / 1e6 / passes,
        "runner.artifacts.hit_ratio":
            stats.total_hits() / probes if probes else 0.0,
        "frontend.collect.minst": sums["frontend.collect.n"] / 1e6 / passes,
        "window.iw_curve.calls": sums["window.iw_curve.calls"] / passes,
        "simulator.run.ns_per_cycle": ns_per_cycle("simulator.run"),
        "simulator.stream.ns_per_cycle": ns_per_cycle("simulator.stream"),
        "corun.contended_pass.minst":
            sums["corun.contended_pass.n"] / 1e6 / passes,
        "traced.coverage":
            sum(self_s[layer] for layer in LAYERS) / wall_s if wall_s else 0.0,
        "traced.overhead":
            1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
    })
    return values
