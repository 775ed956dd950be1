"""Cross-layer wall-clock observability: spans, profiles, exports.

``repro.obs`` answers "where did the wall-clock time go?" across the
whole stack — CLI, spec resolve, process-pool runner, chunked artifact
cache, simulators, and the asyncio service.  It is strictly opt-in
(``ObsSpec``, ``REPRO_OBS=1``, or ``repro profile``) and adds zero
overhead when off: instrumentation sites call :func:`span`, which
returns one shared no-op object while collection is disabled.

Span context serializes across the process-pool boundary (it travels
next to each ``RunSpec`` in the worker's arguments; workers re-root
under it and ship finished spans back with their results) and across
the service protocol (a ``trace`` field in the request envelope), so
one ``repro submit`` yields a single connected trace spanning client,
scheduler, batch, worker and cache.
See ``docs/OBSERVABILITY.md``.
"""

from .export import (
    build_tree,
    critical_path,
    format_profile,
    profile_rows,
    read_jsonl_spans,
    to_event_trace,
    wallclock_summary,
    write_chrome,
    write_jsonl,
)
from .spans import (
    NOOP_SPAN,
    add_spans,
    attach,
    current_context,
    drain,
    enable,
    enabled,
    is_remote,
    new_trace_id,
    reset,
    span,
)

__all__ = [
    "NOOP_SPAN",
    "add_spans",
    "attach",
    "build_tree",
    "critical_path",
    "current_context",
    "drain",
    "enable",
    "enabled",
    "format_profile",
    "is_remote",
    "new_trace_id",
    "profile_rows",
    "read_jsonl_spans",
    "reset",
    "span",
    "to_event_trace",
    "wallclock_summary",
    "write_chrome",
    "write_jsonl",
]
