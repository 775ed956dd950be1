"""Per-run reproducibility manifests.

An experiment output file without its provenance is a dead end: six
months later nobody knows which configuration, seed or code revision
produced it.  ``write_manifest`` drops a ``run_manifest.json`` next to
experiment outputs recording everything needed to re-run them — the
machine configuration, trace seeds, the resolved run spec, ``git
describe`` of the working tree, cache effectiveness and wall-clock.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import platform
import subprocess
import time
from pathlib import Path

_log = logging.getLogger(__name__)

#: manifest layout version
MANIFEST_SCHEMA = 1


def git_describe(cwd: str | Path | None = None) -> str | None:
    """``git describe --always --dirty`` of the repository, or ``None``.

    Never raises: a missing git binary, a non-repository directory or a
    timeout all degrade to ``None`` (the manifest records the absence).
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parents[3]
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        _log.debug("git describe unavailable: %s", exc)
        return None
    if out.returncode != 0:
        _log.debug("git describe failed: %s", out.stderr.strip())
        return None
    return out.stdout.strip() or None


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "class": f"{type(value).__module__}.{type(value).__qualname__}",
            "fields": {
                f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (type(None), bool, int, float, str)):
        return value
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return repr(value)


def build_manifest(
    *,
    command: str,
    config=None,
    spec=None,
    seed: int | None = None,
    wall_seconds: float | None = None,
    cache_stats=None,
    wallclock: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the manifest document for one run.

    ``spec`` is the fully-resolved :class:`repro.spec.RunSpec` the run
    used — embedded verbatim (plus its ``content_key``) so the output
    can be re-run from the manifest alone.  ``config`` may be any
    dataclass (typically a ``MachineSpec``); ``cache_stats`` a
    ``repro.runner.artifacts.CacheStats``.  ``wallclock`` is a
    per-phase breakdown of the run's wall-clock — typically
    :func:`repro.obs.wallclock_summary` over the run's span tree.
    ``extra`` is merged in verbatim for command-specific fields.
    """
    from repro.spec import env as specenv

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_describe": git_describe(),
        "seed": seed,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "environment": specenv.repro_environment(),
    }
    if spec is not None:
        manifest["spec"] = spec.to_dict()
        manifest["spec_content_key"] = spec.content_key()
    if config is not None:
        manifest["config"] = _jsonable(config)
    if wall_seconds is not None:
        manifest["wall_seconds"] = wall_seconds
    if wallclock is not None:
        manifest["wallclock"] = _jsonable(wallclock)
    if cache_stats is not None:
        manifest["cache"] = {
            "hits": dict(cache_stats.hits),
            "misses": dict(cache_stats.misses),
            "stores": dict(cache_stats.stores),
            "errors": cache_stats.errors,
            "uncacheable": cache_stats.uncacheable,
        }
    if extra:
        manifest.update(_jsonable(extra))
    return manifest


def write_manifest(
    output_path: str | Path, manifest: dict,
    filename: str = "run_manifest.json",
) -> Path:
    """Write ``manifest`` as ``filename`` next to ``output_path``.

    ``output_path`` may be the experiment output file (the manifest
    lands in its directory) or a directory.
    """
    target = Path(output_path)
    directory = target if target.is_dir() else target.parent
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / filename
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _log.info("wrote manifest %s", path)
    return path
