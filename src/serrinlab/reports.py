"""Config parsing and bit-stable report serialization.

All numeric output goes through one float formatter (17 significant digits)
and one JSON writer (sorted keys, LF newlines), so identical inputs produce
byte-identical report files.  Run manifests carry wall-clock timing and are
the one deliberately non-reproducible artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .rigidity import ExperimentConfig

__all__ = [
    "ConfigError",
    "parse_config",
    "fmt_float",
    "emit_csv",
    "emit_json",
    "RunManifest",
]


class ConfigError(ValueError):
    pass


_SINGULAR_ALIASES = {"grid": "grids", "epsilon": "epsilons"}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON key-value config; unknown keys are rejected.

    Scalar conveniences: "grid" and "epsilon" are accepted as one-element
    stand-ins for "grids"/"epsilons", and a grid may equivalently be given as
    separate "Nr"/"Nt" integers.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")
    raw = dict(raw)
    if "Nr" in raw or "Nt" in raw:
        if not ("Nr" in raw and "Nt" in raw):
            raise ConfigError("config must set both 'Nr' and 'Nt' (or use 'grid')")
        if "grid" in raw or "grids" in raw:
            raise ConfigError("config sets both 'Nr'/'Nt' and 'grid(s)'")
        raw["grid"] = f"{int(raw.pop('Nr'))}x{int(raw.pop('Nt'))}"
    data = {}
    for key, value in raw.items():
        target = _SINGULAR_ALIASES.get(key, key)
        if target != key:
            if target in raw:
                raise ConfigError(f"config sets both '{key}' and '{target}'")
            value = [value]
        if target in data:
            raise ConfigError(f"duplicate config key '{target}'")
        data[target] = value
    try:
        return ExperimentConfig.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def fmt_float(x) -> str:
    """17-significant-digit decimal rendering (round-trips every double)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    # .17g already spells nan, inf, -inf and -0
    return f"{float(x):.17g}"


def _render(value) -> str:
    return value if isinstance(value, str) else fmt_float(value)


def emit_csv(path, header, rows) -> Path:
    """Write rows with a fixed column order and LF newlines."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_render(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _sanitize(obj):
    """Replace non-finite floats so the JSON output re-parses to equal data."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def emit_json(path, payload) -> Path:
    path = Path(path)
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    grid_hash: str = ""
    timing_seconds: float = 0.0
    outputs: list = field(default_factory=list)
    version: str = __version__

    def write(self, path) -> Path:
        return emit_json(
            path,
            {
                "subcommand": self.subcommand,
                "config": self.config,
                "grid_hash": self.grid_hash,
                "timing_seconds": self.timing_seconds,
                "outputs": list(self.outputs),
                "version": self.version,
            },
        )