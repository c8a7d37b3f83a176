"""Configuration files, run manifests and the small text formats they share.

Config files are flat, line-oriented ``key = value`` text with unit-suffixed
values (``wavelength = 1064 nm``); diff-friendly and self-documenting.  A run
manifest lists everything that determines a command's output bytes -- the tool
version, the command, the values it reads and the config -- and its hash is
stamped into every file the command writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

from . import __version__
from .apparatus import ApparatusConfig, format_value, key_value_lines

# each field of ApparatusConfig by its config-file key
_FIELDS = {f.metadata["key"]: f for f in fields(ApparatusConfig)}


class ConfigError(ValueError):
    """A malformed or physically invalid configuration; maps to exit code 1."""


def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment.  A key may appear once."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = value.strip(), lineno
    return out


def _parse_value(key: str, raw: str):
    """The value of config-file line ``key = raw``, in the unit of its field."""
    f = _FIELDS[key]
    units = f.metadata["units"]
    parts = raw.split()
    if len(parts) != 1 + bool(units):
        need = f"a value and a unit ({'/'.join(units)})" if units else "a value and no unit"
        raise ConfigError(f"field {key!r} needs {need}, got {raw!r}")
    if units and parts[1] not in units:
        raise ConfigError(
            f"field {key!r}: unknown unit {parts[1]!r}, expected one of {sorted(units)}")
    try:
        value = type(f.default)(parts[0])
    except ValueError:
        raise ConfigError(
            f"field {key!r} must be {f.metadata['rule'][0]}, got {parts[0]!r}") from None
    return value * units[parts[1]] if units else value


def parse_config(text: str) -> ApparatusConfig:
    kwargs = {}
    for key, raw in parse_key_values(text).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config field {key!r}; known: {sorted(_FIELDS)}")
        kwargs[_FIELDS[key].name] = _parse_value(key, raw)
    try:
        return ApparatusConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ApparatusConfig:
    """The config of the file at ``path``; a file that cannot be read is a ConfigError too."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def config_text(config: ApparatusConfig) -> str:
    """Canonical config-file rendering: each field in its first unit, 9 significant digits."""
    lines = []
    for f in fields(config):
        unit = next(iter(f.metadata["units"]), None)
        value = format_value(getattr(config, f.name))
        lines.append(f"{f.metadata['key']} = {value}" + (f" {unit}" if unit else ""))
    return "\n".join(lines) + "\n"


def manifest(command: str, config: ApparatusConfig, items) -> tuple[str, str]:
    """The text of a command's run manifest and its 16-hex-digit hash.

    ``items`` are the ``(key, value)`` pairs of every value the command reads
    besides its config, and of no other: the text is the tool version, the
    command, a ``key = value`` line per item, a blank line, then ``# config``
    and :func:`config_text`.
    """
    lines = [("tool_version", __version__), ("command", command), *items]
    text = key_value_lines(lines)
    text += "\n# config\n" + config_text(config)
    return text, hashlib.sha256(text.encode()).hexdigest()[:16]
