import pytest

from specmap.errors import ConfigError
from specmap.runconfig import (
    config_hash,
    parse_kv_file,
    parse_overrides,
    resolve_config,
    write_resolved,
)

DEFAULTS = {
    "count": 3,
    "rate": 0.5,
    "name": "hann",
    "grid": [-6.0, 9.0],
    "enabled": True,
    "delta": None,
}


def test_parse_kv_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment\ncount = 7\nname=hamming\n\ngrid = 1, 2 ,3  # inline\n")
    values = parse_kv_file(path)
    assert values == {"count": "7", "name": "hamming", "grid": "1, 2 ,3"}


def test_parse_kv_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_kv_file(path)


def test_resolution_order_and_coercion(tmp_path, monkeypatch):
    path = tmp_path / "run.conf"
    path.write_text("count=5\nrate=0.25\nenabled=false\n")
    monkeypatch.setenv("SPECMAP_RATE", "0.75")  # the environment is no source
    resolved = resolve_config(DEFAULTS, path, overrides=["count=9", "grid=0,3,6"])
    assert resolved["count"] == 9          # --set beats file
    assert resolved["rate"] == 0.25        # file beats default
    assert resolved["enabled"] is False
    assert resolved["grid"] == [0.0, 3.0, 6.0]
    assert resolved["name"] == "hann"      # default survives
    assert resolved["delta"] is None
    assert resolve_config(DEFAULTS, overrides=["delta=1e-3"])["delta"] == 1e-3


def test_unknown_override_key_is_error():
    with pytest.raises(ConfigError):
        resolve_config(DEFAULTS, None, overrides=["nope=1"])
    with pytest.raises(ConfigError):
        parse_overrides(["missing_equals"])


def test_bad_literal_is_error(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("count=many\n")
    with pytest.raises(ConfigError):
        resolve_config(DEFAULTS, path)
    path.write_text("enabled=maybe\n")
    with pytest.raises(ConfigError):
        resolve_config(DEFAULTS, path)
    path.write_text("delta=abc\n")
    with pytest.raises(ConfigError):
        resolve_config(DEFAULTS, path)


def test_config_hash_stable_and_sensitive():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    c = config_hash({"x": 2, "y": [1, 2]})
    assert a == b
    assert a != c


def test_write_resolved_roundtrip(tmp_path):
    resolved = {**DEFAULTS, "grid": [-6.0, 1.2345678]}
    path = write_resolved(resolved, tmp_path)
    parsed = parse_kv_file(path)
    assert parsed["count"] == "3"
    assert parsed["enabled"] == "true"
    assert parsed["grid"] == "-6.0,1.2345678"
    assert parsed["delta"] == "none"
    assert resolve_config(DEFAULTS, path) == resolved
