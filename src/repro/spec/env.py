"""The single home of ``REPRO_*`` environment-variable access.

Every knob the package reads from the environment is declared in
:data:`REGISTRY` and read through a typed accessor in this module —
nothing else in ``src/repro`` touches ``os.environ`` for configuration
(a lint-style test greps the tree and fails on new call sites).  That
discipline is what makes :func:`repro.spec.resolve.resolve_spec`'s
layering honest: the environment is one explicit resolution layer, not
an ambient influence scattered through call sites.

Variables are still read at *call* time, never import time, so tests and
the CLI can monkeypatch them per run.
"""

from __future__ import annotations

import os
from pathlib import Path

#: every environment variable the package reads, with the consuming
#: subsystem and a one-line description (rendered in docs/CONFIGURATION.md)
REGISTRY: dict[str, tuple[str, str]] = {
    "REPRO_SPEC": (
        "spec", "path of a RunSpec JSON file merged during resolution"),
    "REPRO_CACHE_DIR": (
        "cache", "artifact-cache root (default $XDG_CACHE_HOME/repro-firstorder)"),
    "REPRO_CACHE_DISABLE": (
        "cache", "any non-empty value bypasses the artifact cache"),
    "REPRO_TELEMETRY": (
        "telemetry", "non-empty and not '0' attaches telemetry to every run"),
    "REPRO_TELEMETRY_INTERVAL": (
        "telemetry", "timeline interval length in cycles (default 1000)"),
    "REPRO_TELEMETRY_TRACE": (
        "telemetry", "write the event trace to this JSONL path"),
    "REPRO_TELEMETRY_CHROME": (
        "telemetry", "write a Chrome trace_event file to this path"),
    "REPRO_TELEMETRY_SAMPLE": (
        "telemetry", "event-trace sampling rate in (0, 1] (default 1)"),
    "REPRO_TELEMETRY_SEED": (
        "telemetry", "event-trace sampling RNG seed (default 0)"),
    "REPRO_OBS": (
        "obs", "non-empty and not '0' collects wall-clock spans"),
    "REPRO_OBS_TRACE": (
        "obs", "write collected spans to this JSONL path after a run"),
    "REPRO_OBS_CHROME": (
        "obs", "write collected spans as a Chrome trace_event file"),
    "REPRO_CHAOS_KILL_BENCH": (
        "chaos", "hard-kill the pool worker that picks up this benchmark"),
    "REPRO_EXPLORE_KILL_AFTER": (
        "chaos", "hard-exit an explore search after this many newly "
                 "recorded detailed results (checkpoint/resume drills)"),
}


def _get(name: str) -> str | None:
    assert name in REGISTRY or name == "XDG_CACHE_HOME", name
    return os.environ.get(name)


# -- spec layer --------------------------------------------------------------


def spec_file() -> str | None:
    """``REPRO_SPEC`` — spec file merged by :func:`resolve_spec`."""
    return _get("REPRO_SPEC") or None


# -- artifact cache ----------------------------------------------------------


def cache_disabled() -> bool:
    """``REPRO_CACHE_DISABLE`` — truthy when the cache is bypassed."""
    return bool(_get("REPRO_CACHE_DISABLE"))


def cache_dir() -> Path:
    """The artifact-cache root (``REPRO_CACHE_DIR`` wins)."""
    override = _get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-firstorder"


# -- telemetry ---------------------------------------------------------------


def telemetry_overrides() -> dict:
    """The TelemetrySpec fields the ``REPRO_TELEMETRY*`` variables set.

    The one reader of those variables.  Only variables actually present
    contribute, so spec-file and CLI layers keep their values for
    everything the environment is silent about
    (:func:`repro.spec.resolve.resolve_spec`'s precedence).
    ``REPRO_TELEMETRY`` enables unless empty or ``0``; a numeric
    variable set to the empty string stands for its default.
    """
    out: dict = {}
    flag = _get("REPRO_TELEMETRY")
    if flag is not None:
        flag = flag.strip()
        out["enabled"] = bool(flag) and flag != "0"
    interval = _get("REPRO_TELEMETRY_INTERVAL")
    if interval is not None:
        out["interval"] = int(interval or "1000")
    trace_path = _get("REPRO_TELEMETRY_TRACE")
    if trace_path:
        out["trace_path"] = trace_path
    chrome_path = _get("REPRO_TELEMETRY_CHROME")
    if chrome_path:
        out["chrome_path"] = chrome_path
    sample_rate = _get("REPRO_TELEMETRY_SAMPLE")
    if sample_rate is not None:
        out["sample_rate"] = float(sample_rate or "1")
    seed = _get("REPRO_TELEMETRY_SEED")
    if seed is not None:
        out["seed"] = int(seed or "0")
    return out


# -- observability -----------------------------------------------------------


def obs_flag() -> bool:
    """``REPRO_OBS`` — enabled unless unset, empty or ``0``."""
    flag = (_get("REPRO_OBS") or "").strip()
    return bool(flag) and flag != "0"


def obs_trace_path() -> str | None:
    return _get("REPRO_OBS_TRACE") or None


def obs_chrome_path() -> str | None:
    return _get("REPRO_OBS_CHROME") or None


def obs_overrides() -> dict:
    """The ObsSpec fields the environment explicitly sets.

    Like :func:`telemetry_overrides`, only variables actually present
    contribute; an export path implies collection.
    """
    out: dict = {}
    if _get("REPRO_OBS") is not None:
        out["enabled"] = obs_flag()
    trace_path = obs_trace_path()
    chrome_path = obs_chrome_path()
    if trace_path:
        out["trace_path"] = trace_path
    if chrome_path:
        out["chrome_path"] = chrome_path
    if (trace_path or chrome_path) and "enabled" not in out:
        out["enabled"] = True
    return out


# -- chaos -------------------------------------------------------------------


def chaos_kill_bench() -> str | None:
    """``REPRO_CHAOS_KILL_BENCH`` — the crash-drill benchmark, if any."""
    return _get("REPRO_CHAOS_KILL_BENCH") or None


def explore_kill_after() -> int | None:
    """``REPRO_EXPLORE_KILL_AFTER`` — detailed results before the
    explore engine hard-exits (``None`` disables the drill)."""
    raw = (_get("REPRO_EXPLORE_KILL_AFTER") or "").strip()
    return int(raw) if raw else None


# -- manifest echo -----------------------------------------------------------


def process_environment() -> dict[str, str]:
    """A mutable copy of the whole environment, for spawning children.

    Spawners (e.g. :mod:`repro.fleet.nodes`) layer their per-child
    overrides — a private ``REPRO_CACHE_DIR``, ``PYTHONPATH`` — on top
    of this; keeping the read here preserves the invariant that only
    the registry touches ``os.environ``.
    """
    return dict(os.environ)


def repro_environment() -> dict[str, str]:
    """Every set ``REPRO_*`` variable, for the run manifest.

    Unregistered ``REPRO_*`` names are echoed too — a manifest should
    record what was in the environment, not what we expected to be.
    """
    return {
        name: os.environ[name]
        for name in sorted(os.environ)
        if name.startswith("REPRO_")
    }
