"""Flat key=value run configuration with command-line overrides.

Precedence (lowest to highest): built-in defaults, config file, --set
key=value flags. A key that has no default is an error in either source.
Values are coerced to the type of the default; list-valued keys take
comma-separated items, and a key whose default is None takes `none` or a
float.
"""

import hashlib
import json
from pathlib import Path

from .errors import ConfigError


def parse_kv_file(path) -> dict:
    """Read `key = value` lines; blank lines and # comments are ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def parse_overrides(pairs) -> dict:
    values = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw: str, default):
    if default is None and raw.lower() == "none":
        return None
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float) or default is None:
            return float(raw)
        if isinstance(default, (list, tuple)):
            items = [item.strip() for item in raw.split(",") if item.strip()]
            element = default[0] if len(default) else 0.0
            return type(default)(type(element)(item) for item in items)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc
    return raw


def resolve_config(defaults: dict, file_path=None, overrides=None) -> dict:
    """Merge the defaults, the config file and the overrides; unknown keys are errors."""
    resolved = dict(defaults)
    layers = []
    if file_path is not None:
        layers.append(("config file", parse_kv_file(file_path)))
    layers.append(("override", parse_overrides(overrides)))
    for source, values in layers:
        for key, raw in values.items():
            if key not in defaults:
                raise ConfigError(f"{source}: unknown configuration key {key!r}")
            resolved[key] = _coerce(key, raw, defaults[key])
    return resolved


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_resolved(config: dict, out_dir) -> Path:
    """Freeze the effective configuration next to the artifacts it produced."""
    path = Path(out_dir) / "config.resolved"
    lines = []
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))  # str of a float round-trips, as for scalars
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = "none"
        lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
