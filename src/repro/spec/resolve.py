"""Layered resolution of a :class:`~repro.spec.specs.RunSpec`.

Four layers, later wins, each one explicit and testable:

1. **package defaults** — the dataclass defaults (the paper baseline);
2. **spec file** — ``--spec path.json`` or ``REPRO_SPEC=path.json``;
3. **environment** — the ``REPRO_*`` registry (telemetry, obs);
4. **overrides** — CLI flags, passed as a (possibly nested) dict.

The result is a fully-validated :class:`RunSpec`; resolution failures
raise :class:`~repro.spec.specs.SpecError` with the offending layer in
the message.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.spec import env
from repro.spec.specs import RunSpec, SpecError


def load_spec_file(path: str | Path) -> RunSpec:
    """Parse ``path`` as a strict RunSpec JSON document."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        return RunSpec.from_json(text)
    except SpecError as exc:
        raise SpecError(f"spec file {path}: {exc}") from exc


def _deep_merge(base: dict, overlay: Mapping[str, Any]) -> dict:
    """Nested-dict merge; overlay scalars replace, objects recurse."""
    out = dict(base)
    for key, value in overlay.items():
        if (isinstance(value, Mapping) and isinstance(out.get(key), dict)):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _env_layer() -> dict:
    """What the ``REPRO_*`` environment contributes to resolution.

    This is the registry-blessed read path: the environment is one
    explicit resolution layer, consulted here rather than deep inside
    call sites.
    """
    layer: dict = {}
    telemetry = env.telemetry_overrides()
    if telemetry:
        layer["telemetry"] = telemetry
    obs = env.obs_overrides()
    if obs:
        layer["obs"] = obs
    return layer


def resolve_spec(
    path: str | Path | None = None,
    overrides: Mapping[str, Any] | None = None,
    base: RunSpec | None = None,
    use_env: bool = True,
) -> RunSpec:
    """Resolve the effective :class:`RunSpec` for one run.

    ``path`` is the ``--spec`` file (``REPRO_SPEC`` is consulted when it
    is ``None``); ``overrides`` is the top layer (CLI flags), shaped
    like the spec JSON (``{"workload": {"benchmark": "gzip"}, ...}``).
    ``base`` replaces the package-default bottom layer.  The workload
    benchmark must be supplied by *some* layer.
    """
    data: dict = base.to_dict() if base is not None else {}
    data.pop("spec_schema", None)

    path = path if path is not None else env.spec_file()
    if path is not None:
        file_spec = load_spec_file(path)
        data = _deep_merge(data, file_spec.to_dict())

    if use_env:
        data = _deep_merge(data, _env_layer())

    if overrides:
        data = _deep_merge(data, dict(overrides))

    if "workload" not in data or "benchmark" not in data["workload"]:
        raise SpecError(
            "no layer supplied a workload benchmark; pass --spec, set "
            "REPRO_SPEC, or name a benchmark"
        )
    return RunSpec.from_dict(data)
