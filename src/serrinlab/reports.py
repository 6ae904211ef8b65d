"""Config parsing and bit-stable report serialization.

All numeric output goes through one float formatter (17 significant digits)
and one JSON writer (sorted keys, LF newlines), so identical inputs produce
byte-identical report files.  A CSV table is either rows of mixed values,
rendered value by value, or the (Nr, Nt, 3) float array of a solution's (r,
theta, u) rows, rendered ring by ring.  Run manifests carry wall-clock timing
and are the one deliberately non-reproducible artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .rigidity import ExperimentConfig, _parse_grid, _require_integer, _require_real

__all__ = [
    "ConfigError",
    "parse_config",
    "fmt_float",
    "csv_text",
    "emit_csv",
    "emit_json",
    "RunManifest",
]


class ConfigError(ValueError):
    pass


# singular key -> (plural key, the check of one value, whose error names the singular key)
_SINGULAR_ALIASES = {
    "grid": ("grids", lambda value: _parse_grid(value, "grid")),
    "epsilon": ("epsilons", lambda value: _require_real("epsilon", value)),
}


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key given twice is a ConfigError, not its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"duplicate config key '{key}'")
        data[key] = value
    return data


def parse_config(text: str) -> tuple[ExperimentConfig, frozenset]:
    """Parse a JSON key-value config into (its ExperimentConfig, the keys it set); unknown keys are rejected.

    Scalar conveniences: "grid" and "epsilon" are accepted as one-element
    stand-ins for "grids"/"epsilons", and a grid may equivalently be given as
    separate "Nr"/"Nt" integers; the keys set name each by its plural.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of key/value pairs")
    if "Nr" in raw or "Nt" in raw:
        if not ("Nr" in raw and "Nt" in raw):
            raise ConfigError("config must set both 'Nr' and 'Nt' (or use 'grid')")
        if "grid" in raw or "grids" in raw:
            raise ConfigError("config sets both 'Nr'/'Nt' and 'grid(s)'")
        try:
            raw["grid"] = [_require_integer(key, raw.pop(key)) for key in ("Nr", "Nt")]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    data = {}
    for key, value in raw.items():
        target = key
        if key in _SINGULAR_ALIASES:
            target, check = _SINGULAR_ALIASES[key]
            if target in raw:
                raise ConfigError(f"config sets both '{key}' and '{target}'")
            try:
                check(value)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            value = [value]
        data[target] = value
    try:
        return ExperimentConfig.from_dict(data), frozenset(data)
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


def _render_table(table: np.ndarray) -> str:
    """CSV body of a 2-D float array, filled into one template; fmt_float (a correctly rounded
    decimal conversion, the writer's whole cost) runs once per distinct bit pattern of a column."""
    n, m = table.shape
    cells = np.empty((n, m), dtype=object)
    for j in range(m):
        bits, index = np.unique(table[:, j].view(np.int64), return_inverse=True)
        cells[:, j] = np.array(list(map(fmt_float, bits.view(np.float64).tolist())), dtype=object)[index]
    return (",".join(["%s"] * m) + "\n") * n % tuple(cells.ravel().tolist())


def _ring_text(r, thetas, u):
    """One radial ring's lines, r and u on each, theta running over thetas: str or bytes alike,
    so that the writer renders and the reader matches the same text."""
    comma, newline = (",", "\n") if isinstance(r, str) else (b",", b"\n")
    prefix, suffix = r + comma, comma + u + newline
    return prefix + (suffix + prefix).join(thetas) + suffix


def _render_rings(table: np.ndarray) -> str:
    """CSV body of an (Nr, Nt, 3) float array of (r, theta, u) rows, ring by ring.

    A ring whose r and u are one bit pattern each and whose theta bits are ring
    0's is radial, written by _ring_text; each run of other rings is one
    _render_table call.  Bits rather than values, as there, keep -0 apart from
    0, so that both write the same bytes.
    """
    r, theta, u = np.moveaxis(table.view(np.int64), -1, 0)
    radial = (r == r[:, :1]).all(1) & (u == u[:, :1]).all(1) & (theta == theta[:1]).all(1)
    thetas = list(map(fmt_float, table[0, :, 1].tolist()))
    edges = [0, *(np.flatnonzero(radial[1:] != radial[:-1]) + 1).tolist(), len(table)]
    parts = []
    for a, b in zip(edges, edges[1:]):
        if radial[a]:
            rings = zip(table[a:b, 0, 0].tolist(), table[a:b, 0, 2].tolist())
            parts += [_ring_text(fmt_float(ri), thetas, fmt_float(ui)) for ri, ui in rings]
        else:
            parts.append(_render_table(table[a:b].reshape(-1, 3)))
    return "".join(parts)


def csv_text(header, rows) -> str:
    """A table as CSV text, with a fixed column order and LF newlines.

    rows is an iterable of mixed-value rows, or an (Nr, Nt, 3) float array of
    a solution's (r, theta, u) rows (same bytes, rendered ring by ring).
    """
    if isinstance(rows, np.ndarray):
        body = _render_rings(rows)
    else:
        body = "".join(",".join(_render(v) for v in row) + "\n" for row in rows)
    return ",".join(header) + "\n" + body


def emit_csv(path, header, rows) -> Path:
    """Write csv_text(header, rows) to path."""
    path = Path(path)
    path.write_text(csv_text(header, rows), encoding="utf-8", newline="\n")
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
        return emit_json(path, asdict(self))
