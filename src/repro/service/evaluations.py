"""Evaluation registry: what the service can compute, and how.

Each op maps the request ``params`` onto the library's existing
entry points and returns a plain-JSON payload:

* ``model``      — :class:`repro.core.model.FirstOrderModel` (Eq. 1)
* ``simulate``   — the detailed simulator via the artifact-cached
  :func:`repro.runner.pool.execute_spec`
* ``compare``    — model vs simulation for a benchmark list (Fig. 15)
* ``experiment`` — any registered paper experiment, formatted
* ``explore``    — a surrogate-guided design-space search
  (:func:`repro.explore.run_search`)
* ``corun``      — a multi-programmed shared-L2 co-run
  (:func:`repro.corun.run_corun`)

``model`` and ``simulate`` requests carry a :class:`repro.spec.RunSpec`
payload: ``{"spec": {...}}``.  Normalization
(:func:`normalize_params`) parses and re-canonicalizes it — defaults
filled, workload seed resolved — so ``{"spec": {"workload":
{"benchmark": "gzip"}}}`` and the fully spelled-out equivalent
content-address identically (:func:`request_key` — the scheduler's
dedup and persistent-cache key), and a ``simulate`` stores its result
under exactly ``RunSpec.content_key()``, the same artifact an
in-process ``execute_spec`` run would produce or reuse.  ``explore``
requests carry ``{"search": {...}}`` (a
:class:`repro.explore.SearchSpec`); their base spec is additionally
stripped of everything outside
:meth:`~repro.spec.RunSpec.result_recipe`, so two searches that differ
only in engine or telemetry — which cannot change any answer — coalesce
by search content-key.  Evaluations are deterministic pure functions of
their normalized params; that is what makes coalescing and cache
serving sound.

:func:`run_batch` is the process-pool entry point: it executes a
micro-batch of normalized requests, publishes each successful response
into the persistent artifact cache, and isolates per-item failures so
one bad request cannot poison its batch.

The optional ``chaos`` param injects faults for robustness testing
(``sleep`` delays a worker; ``kill_once`` hard-exits the worker the
first time a flag file is absent) — see docs/SERVICE.md.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.service.protocol import ErrorCode, PROTOCOL_VERSION, ProtocolError

#: params accepted as MachineSpec overrides (what-if knobs)
CONFIG_FIELDS = ("pipeline_depth", "width", "window_size", "rob_size")

#: default dynamic trace length (the experiment suite's default)
DEFAULT_LENGTH = 30_000

#: ops the scheduler will run on the pool
OPS = ("model", "simulate", "compare", "experiment", "explore", "corun")


def _benchmarks() -> tuple[str, ...]:
    from repro.trace.profiles import BENCHMARK_ORDER

    return tuple(BENCHMARK_ORDER)


def _check_benchmark(name) -> str:
    """Validate a workload reference on the wire: a synthetic profile
    name, or the canonical ``ingest:<64-hex-content-key>`` form.

    Path-spelled ingest references are a *local* construction
    convenience only — ``WorkloadSpec`` resolves them by opening,
    hashing and parsing the named file, which a server must never do on
    behalf of a remote client (it would read arbitrary server-side
    paths and echo parse errors, i.e. file contents, back over the
    wire).  Clients run ``repro ingest`` themselves and submit the key
    it prints."""
    if not isinstance(name, str):
        raise ProtocolError("'benchmark' must be a string")
    from repro.trace.sources import is_content_key, parse_benchmark

    scheme, ref = parse_benchmark(name)
    if scheme == "synthetic" and ref not in _benchmarks():
        raise ProtocolError(
            f"unknown benchmark {name!r}; one of {', '.join(_benchmarks())}"
        )
    if scheme == "ingest" and not is_content_key(ref):
        raise ProtocolError(
            "ingest workloads on the wire must name the canonical 64-hex "
            f"content key, not a file path (got {name!r}); run "
            "'repro ingest <file>' and submit ingest:<key>")
    return name


def _check_wire_workload(payload) -> None:
    """Reject non-canonical workload references in a raw spec payload
    *before* spec construction (``WorkloadSpec.__post_init__`` would
    otherwise ingest a path spelling server-side; see
    :func:`_check_benchmark`).  Structural errors are left for the spec
    parser's own messages."""
    if isinstance(payload, dict):
        workload = payload.get("workload")
        if isinstance(workload, dict):
            benchmark = workload.get("benchmark")
            if isinstance(benchmark, str):
                _check_benchmark(benchmark)


def _check_length(length) -> int:
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        raise ProtocolError("'length' must be a positive integer")
    return length


def _check_chaos(chaos) -> dict:
    if not isinstance(chaos, dict):
        raise ProtocolError("'chaos' must be an object")
    unknown = set(chaos) - {"sleep", "kill_once", "kill"}
    if unknown:
        raise ProtocolError(f"unknown chaos fields: {sorted(unknown)}")
    sleep = chaos.get("sleep")
    if sleep is not None and (
            not isinstance(sleep, (int, float)) or sleep < 0):
        raise ProtocolError("'chaos.sleep' must be a non-negative number")
    kill = chaos.get("kill_once")
    if kill is not None and not isinstance(kill, str):
        raise ProtocolError("'chaos.kill_once' must be a path string")
    if not isinstance(chaos.get("kill", False), bool):
        raise ProtocolError("'chaos.kill' must be a boolean")
    return dict(chaos)


def build_config(params: dict):
    """The :class:`~repro.config.MachineSpec` a request's what-if knobs
    describe."""
    from repro.config import BASELINE, SpecError

    overrides = {name: params[name] for name in CONFIG_FIELDS
                 if name in params}
    try:
        return dataclasses.replace(BASELINE, **overrides)
    except SpecError as exc:
        raise ProtocolError(f"invalid configuration: {exc}") from exc


def flat_params_to_spec(op: str, params: dict):
    """The :class:`repro.spec.RunSpec` a flat param dict describes.

    This is the vocabulary the pre-spec wire format used — benchmark /
    length / seed / config-override knobs — validated with the
    same checks and mapped onto the typed spec.  Used by
    :class:`~repro.service.client.ServiceClient`'s convenience wrappers,
    which keep their flat keyword signature but build spec payloads
    client-side (the server itself accepts only ``{"spec": ...}``).
    """
    from repro.spec import RunSpec, SpecError, WorkloadSpec

    known = {"benchmark", "length", "seed"} | set(CONFIG_FIELDS)
    unknown = set(params) - known
    if unknown:
        raise ProtocolError(
            f"unknown parameter(s) for {op!r}: {sorted(unknown)}")
    benchmark = _check_benchmark(params.get("benchmark"))
    length = _check_length(params.get("length", DEFAULT_LENGTH))
    seed = params.get("seed")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        raise ProtocolError("'seed' must be an integer")
    machine = build_config(params)
    try:
        workload = WorkloadSpec(benchmark=benchmark, length=length,
                                seed=seed)
    except SpecError as exc:  # e.g. a seed on an ingest workload
        raise ProtocolError(f"invalid workload: {exc}") from exc
    return RunSpec(workload=workload, machine=machine)


def _parse_spec(payload):
    from repro.spec import RunSpec, SpecError

    _check_wire_workload(payload)
    try:
        return RunSpec.from_dict(payload)
    except SpecError as exc:
        raise ProtocolError(f"invalid spec: {exc}") from exc


def _resolve_workload_seed(spec):
    """Pin ``seed: null`` to the profile's resolved seed before keying,
    so the implicit and explicit spellings coalesce to one request.
    Non-synthetic workloads (``ingest:<key>``) carry no RNG seed — their
    benchmark *is* a content key, so they already coalesce."""
    from repro.trace.sources import workload_scheme

    if spec.workload.seed is not None:
        return spec
    if workload_scheme(spec.workload.benchmark) != "synthetic":
        return spec
    return dataclasses.replace(
        spec,
        workload=dataclasses.replace(
            spec.workload, seed=spec.workload.resolved_seed()),
    )


def _normalize_search(params: dict) -> dict:
    """Canonicalize an ``explore`` request's search payload.

    The base spec is reduced to the parts that can change an answer —
    machine, seed-resolved workload, the ``instrument`` flag — with
    engine and telemetry reset to defaults.  Two searches that differ
    only in those result-neutral sections therefore normalize (and so
    coalesce and cache) identically: the wire-level twin of
    :meth:`repro.explore.SearchSpec.content_key`.
    """
    from repro.explore import SearchSpec
    from repro.spec import EngineSpec, RunSpec, SpecError, TelemetrySpec

    if "search" not in params:
        raise ProtocolError(
            "'explore' requires a 'search' object: "
            "{'search': <SearchSpec dict>} (see docs/EXPLORATION.md)")
    if isinstance(params["search"], dict):
        _check_wire_workload(params["search"].get("base"))
    try:
        search = SearchSpec.from_dict(params["search"])
        base = _resolve_workload_seed(search.base)
        base = RunSpec(
            workload=base.workload,
            machine=base.machine,
            engine=EngineSpec(instrument=base.engine.instrument),
            telemetry=TelemetrySpec(),
        )
        search = dataclasses.replace(search, base=base)
    except SpecError as exc:
        raise ProtocolError(f"invalid search: {exc}") from exc
    return search.to_dict()


def _normalize_corun(payload) -> dict:
    """Canonicalize a ``corun`` request's spec payload.

    Every workload's benchmark is wire-checked *before* spec
    construction (same server-side path-resolution hazard as
    :func:`_check_wire_workload`), then synthetic ``seed: null``
    workloads are pinned to their resolved seeds — so the implicit and
    explicit spellings of one co-run normalize, coalesce and cache
    identically, mirroring :meth:`repro.spec.CoRunSpec.content_key`.
    """
    from repro.spec import CoRunSpec, SpecError

    if isinstance(payload, dict) and isinstance(
            payload.get("workloads"), list):
        for workload in payload["workloads"]:
            if isinstance(workload, dict) and isinstance(
                    workload.get("benchmark"), str):
                _check_benchmark(workload["benchmark"])
    try:
        spec = CoRunSpec.from_dict(payload)
    except SpecError as exc:
        raise ProtocolError(f"invalid corun spec: {exc}") from exc
    from repro.trace.sources import workload_scheme

    resolved = tuple(
        dataclasses.replace(w, seed=w.resolved_seed())
        if w.seed is None and workload_scheme(w.benchmark) == "synthetic"
        else w
        for w in spec.workloads
    )
    if resolved != spec.workloads:
        spec = dataclasses.replace(spec, workloads=resolved)
    return spec.to_dict()


def normalize_params(op: str, params: dict) -> dict:
    """Validate ``params`` for ``op`` and fill every default in.

    ``model`` and ``simulate`` normalize to ``{"spec": <canonical
    RunSpec dict>}`` (plus ``chaos`` if given); ``explore`` normalizes
    to ``{"search": <canonical SearchSpec dict>}``.

    Raises :class:`ProtocolError` (``unknown_op`` / ``bad_request``) so
    the server can answer without ever scheduling the request.
    """
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; one of {', '.join(OPS)}",
                            code=ErrorCode.UNKNOWN_OP)
    known: set = {"chaos"}
    out: dict = {}
    if "chaos" in params:
        out["chaos"] = _check_chaos(params["chaos"])

    if op in ("model", "simulate"):
        known |= {"spec"}
        if "spec" not in params:
            raise ProtocolError(
                f"{op!r} requires a 'spec' object: "
                "{'spec': <RunSpec dict>} (see docs/CONFIGURATION.md)")
        spec = _parse_spec(params["spec"])
        out["spec"] = _resolve_workload_seed(spec).to_dict()
    elif op == "explore":
        known |= {"search"}
        out["search"] = _normalize_search(params)
    elif op == "compare":
        known |= {"benchmarks", "length"}
        benchmarks = params.get("benchmarks") or list(_benchmarks())
        if not isinstance(benchmarks, list):
            raise ProtocolError("'benchmarks' must be a list")
        out["benchmarks"] = [_check_benchmark(b) for b in benchmarks]
        out["length"] = _check_length(params.get("length", DEFAULT_LENGTH))
    elif op == "corun":
        known |= {"corun"}
        if "corun" not in params:
            raise ProtocolError(
                "'corun' requires a 'corun' object: "
                "{'corun': <CoRunSpec dict>} (see docs/SCENARIOS.md)")
        out["corun"] = _normalize_corun(params["corun"])
    elif op == "experiment":
        known |= {"name"}
        from repro.experiments import experiment_registry

        registry = experiment_registry()
        name = params.get("name")
        if name not in registry:
            raise ProtocolError(
                f"unknown experiment {name!r}; try: "
                + ", ".join(sorted(set(registry)))
            )
        out["name"] = registry[name].__name__.split(".")[-1]

    unknown = set(params) - known
    if unknown:
        raise ProtocolError(f"unknown params for {op!r}: {sorted(unknown)}")
    return out


def request_key(op: str, normalized: dict) -> str | None:
    """Content-address of a normalized request, or ``None``.

    This is the artifact cache's key discipline applied to the wire:
    identical questions hash identically, so the scheduler can coalesce
    them in flight and the persistent cache can answer repeats.
    """
    from repro.runner import artifacts

    try:
        return artifacts.artifact_key(
            "response", {"protocol": PROTOCOL_VERSION, "op": op,
                         "params": normalized},
        )
    except artifacts.UncacheableError:  # pragma: no cover - params are JSON
        return None


# -- the evaluations themselves ---------------------------------------------


def _eval_model(params: dict) -> dict:
    from repro.core.model import FirstOrderModel
    from repro.runner import artifacts
    from repro.spec import RunSpec

    spec = RunSpec.from_dict(params["spec"])
    workload = spec.workload
    trace = artifacts.trace_artifact(
        workload.benchmark, workload.length, workload.seed)
    report = FirstOrderModel(spec.machine).evaluate_trace(trace)
    ch = report.characteristic
    return {
        "benchmark": workload.benchmark,
        "length": workload.length,
        "cpi": report.cpi,
        "ipc": report.ipc,
        "cpi_steady": report.cpi_steady,
        "cpi_branch": report.cpi_branch,
        "cpi_icache_l1": report.cpi_icache_l1,
        "cpi_icache_l2": report.cpi_icache_l2,
        "cpi_dcache": report.cpi_dcache,
        "branch_penalty_per_event": report.branch_penalty_per_event,
        "dcache_penalty_per_miss": report.dcache_penalty_per_miss,
        "characteristic": {"alpha": ch.alpha, "beta": ch.beta,
                           "latency": ch.latency},
    }


def _eval_simulate(params: dict) -> dict:
    from repro.runner.pool import execute_spec
    from repro.spec import RunSpec

    spec = RunSpec.from_dict(params["spec"])
    result = execute_spec(spec, reuse_result=True)
    return {
        "benchmark": spec.workload.benchmark,
        "length": spec.workload.length,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "cpi": result.cpi,
        "ipc": result.ipc,
        "misprediction_count": result.misprediction_count,
        "icache_short_count": result.icache_short_count,
        "icache_long_count": result.icache_long_count,
        "dcache_long_count": result.dcache_long_count,
    }


def _eval_compare(params: dict) -> dict:
    from repro.spec import RunSpec, WorkloadSpec

    rows = []
    errors = []
    for benchmark in params["benchmarks"]:
        spec = _resolve_workload_seed(RunSpec(workload=WorkloadSpec(
            benchmark=benchmark, length=params["length"])))
        sub = {"spec": spec.to_dict()}
        model = _eval_model(sub)
        sim = _eval_simulate(sub)
        error = (model["cpi"] - sim["cpi"]) / sim["cpi"]
        errors.append(abs(error))
        rows.append({"benchmark": benchmark, "model_cpi": model["cpi"],
                     "sim_cpi": sim["cpi"], "error": error})
    return {
        "length": params["length"],
        "rows": rows,
        "mean_abs_error": sum(errors) / len(errors) if errors else 0.0,
        "worst_abs_error": max(errors) if errors else 0.0,
    }


def _eval_experiment(params: dict) -> dict:
    from repro.experiments import experiment_registry

    module = experiment_registry()[params["name"]]
    result = module.run()
    checks = [{"text": str(claim), "holds": claim.holds}
              for claim in result.checks()]
    return {
        "name": params["name"],
        "output": result.format(),
        "checks": checks,
        "passed": all(c["holds"] for c in checks),
    }


def _eval_corun(params: dict) -> dict:
    from repro.corun import run_corun
    from repro.spec import CoRunSpec

    spec = CoRunSpec.from_dict(params["corun"])
    # run_corun stores the payload under CoRunSpec.content_key() — the
    # identical artifact an in-process or CLI evaluation would produce
    return run_corun(spec, reuse=True)


def _eval_explore(params: dict) -> dict:
    from repro.explore import SearchSpec, run_search

    search = SearchSpec.from_dict(params["search"])
    # one job and no journal inside a pool worker: the worker *is* the
    # parallelism, and durability is the artifact cache plus the keyed
    # response cache — a repeat of the same search replays from both
    result = run_search(search, journal_path=None, jobs=1)
    return result.to_dict()


_EVALUATORS = {
    "model": _eval_model,
    "simulate": _eval_simulate,
    "compare": _eval_compare,
    "experiment": _eval_experiment,
    "explore": _eval_explore,
    "corun": _eval_corun,
}


def _apply_chaos(chaos: dict) -> None:
    if chaos.get("kill"):  # die on *every* attempt: retry exhaustion
        os._exit(1)
    kill_flag = chaos.get("kill_once")
    if kill_flag and not os.path.exists(kill_flag):
        # leave the flag so the retry of this same request survives,
        # then die the way a OOM-killed or segfaulted worker does
        with open(kill_flag, "w") as fh:
            fh.write("killed\n")
        os._exit(1)
    sleep = chaos.get("sleep")
    if sleep:
        time.sleep(float(sleep))


def evaluate(op: str, normalized: dict) -> dict:
    """Run one normalized request to its JSON payload (chaos included)."""
    chaos = normalized.get("chaos")
    if chaos:
        _apply_chaos(chaos)
    return _EVALUATORS[op](normalized)


def run_batch(items: list[tuple]) -> list[dict]:
    """Process-pool entry point: evaluate a micro-batch of requests.

    ``items`` are ``(op, normalized_params, key)`` triples, optionally
    extended with a serialized span context
    (:func:`repro.obs.current_context`) as a fourth element — when
    present, this worker re-roots its wall-clock spans under the
    caller's trace and ships them home in the outcome's ``"spans"``
    list.  Every item gets an outcome dict (``{"ok": True, "result":
    ...}`` or ``{"ok": False, "code": ..., "message": ...}``); an item
    that raises does not disturb its batch-mates.  Successful keyed
    responses are published to the persistent artifact cache here, in
    the worker, so the server process never touches pickle payloads.
    """
    from repro.obs import spans as _spans
    from repro.runner import artifacts

    outcomes: list[dict] = []
    for item in items:
        op, params, key, obs = item if len(item) == 4 else (*item, None)
        remote = _spans.is_remote(obs)
        if remote:
            _spans.reset()  # drop spans forked in from the parent
        try:
            with _spans.attach(obs), \
                    _spans.span("service.evaluate", op=op):
                payload = evaluate(op, params)
        except ProtocolError as exc:
            outcome = {"ok": False, "code": exc.code, "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 - isolate batch-mates
            outcome = {"ok": False, "code": ErrorCode.INTERNAL,
                       "message": f"{type(exc).__name__}: {exc}"}
        else:
            if key is not None and artifacts.cache_enabled():
                artifacts.store_artifact("response", key, payload)
            outcome = {"ok": True, "result": payload}
        if remote:
            outcome["spans"] = _spans.drain()
        outcomes.append(outcome)
    return outcomes
