import json
import math

import pytest

from serrinlab.reports import (
    ConfigError,
    RunManifest,
    emit_csv,
    emit_json,
    fmt_float,
    parse_config,
)
from serrinlab.rigidity import ExperimentConfig


def test_fmt_float_17_digits():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(1.0) == "1"
    assert fmt_float(math.pi) == "3.1415926535897931"
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(True) == "true"
    assert fmt_float(3) == "3"
    # round-trips every double
    for x in (1 / 3, 2.0**-52, 123456.789e-7):
        assert float(fmt_float(x)) == x


def test_parse_config_minimal_defaults():
    cfg, keys = parse_config('{"profile": "laplacian", "alpha": 1.5708, "R0": 1, "grid": "64x64"}')
    assert keys == {"profile", "alpha", "R0", "grids"}
    assert cfg.grids == ("64x64",)
    assert cfg.space_form == "euclidean"
    assert cfg.epsilons == (0.0, 0.05, 0.1, 0.2)


def test_parse_config_profile_id():
    cfg, _ = parse_config('{"profile": "p-laplacian:3"}')
    assert cfg.profile == "p-laplacian:3"


def test_parse_config_rejects_bad_alpha():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config('{"alpha": 7.0}')


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config('{"alpha": 1.0, "spam": 2}')


def test_parse_config_rejects_bad_json_with_location():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("{alpha: 1}")


def test_parse_config_alias_conflicts():
    with pytest.raises(ConfigError):
        parse_config('{"grid": "16x16", "grids": ["16x16"]}')
    with pytest.raises(ConfigError):
        parse_config('{"epsilon": 0.1, "epsilons": [0.1]}')


@pytest.mark.parametrize("text, key", [
    ('{"grid": "8x8", "tol": 1e-3, "tol": 1e-8}', "tol"),
    ('{"grid": "8x8", "grid": "16x16"}', "grid"),
    ('{"epsilons": [0.0], "grid": "8x8", "epsilons": [0.1]}', "epsilons"),
], ids=["tol", "grid", "epsilons"])
def test_parse_config_rejects_a_repeated_key(text, key):
    # JSON keeps a repeated key's last value; a config names each key once
    with pytest.raises(ConfigError, match=f"duplicate config key '{key}'"):
        parse_config(text)


def test_parse_config_nr_nt_keys():
    cfg, keys = parse_config('{"space_form": "hyperbolic", "alpha": 1.0, "R0": 1.0, "epsilon": 0.1, "k": 2, "Nr": 32, "Nt": 48}')
    assert keys == {"space_form", "alpha", "R0", "epsilons", "k", "grids"}
    assert cfg.grids == ("32x48",)
    assert cfg.epsilons == (0.1,)
    with pytest.raises(ConfigError):
        parse_config('{"Nr": 32}')
    with pytest.raises(ConfigError):
        parse_config('{"Nr": 32, "Nt": 32, "grid": "32x32"}')


def test_config_json_round_trip():
    cfg = ExperimentConfig(space_form="sphere", R0=0.7, epsilons=[0.0, 0.1], grids=["16x16", "32x32"])
    assert parse_config(json.dumps(cfg.to_dict())) == (cfg, frozenset(cfg.to_dict()))


def test_emit_csv_byte_identical(tmp_path):
    rows = [(0.1, 1 / 3, True), (float("nan"), 2.0, False)]
    p1 = emit_csv(tmp_path / "a.csv", ["x", "y", "ok"], rows)
    p2 = emit_csv(tmp_path / "b.csv", ["x", "y", "ok"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.splitlines()[0] == "x,y,ok"
    assert "0.10000000000000001" in text
    assert "nan" in text and "true" in text


def test_emit_json_round_trip(tmp_path):
    payload = {"b": 2, "a": [1.5, {"c": 0.1}], "bad": float("inf")}
    path = emit_json(tmp_path / "r.json", payload)
    again = json.loads(path.read_text())
    assert again["a"] == [1.5, {"c": 0.1}]
    assert again["bad"] is None  # non-finite values are sanitized
    assert list(again) == sorted(again)
    path2 = emit_json(tmp_path / "r2.json", payload)
    assert path.read_bytes() == path2.read_bytes()


def test_manifest_write(tmp_path):
    m = RunManifest(subcommand="solve", config={"alpha": 1.0}, grid_hash="ab12",
                    timing_seconds=0.5, outputs=["solution.csv"])
    path = m.write(tmp_path / "m.json")
    data = json.loads(path.read_text())
    assert data["subcommand"] == "solve"
    assert data["outputs"] == ["solution.csv"]
    assert data["version"]
