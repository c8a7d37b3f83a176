"""Configuration files, run manifests and the small text formats they share.

Config files are flat, line-oriented ``key = value`` text with unit-suffixed
values (``wavelength = 1064 nm``); diff-friendly and self-documenting.  A run
manifest captures everything that determines an output byte stream -- config,
source, seed, duration, pipeline options, tool version -- and its hash is
stamped into every file the toolchain writes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from . import __version__
from .apparatus import ApparatusConfig, NoiseModel, format_number

# per-key unit tables: multiplier into the canonical SI-ish unit of ApparatusConfig
_UNIT_SCALES = {
    "wavelength": {"m": 1.0, "um": 1e-6, "nm": 1e-9},
    "field_integral": {"T2m": 1.0},
    "peak_field": {"T": 1.0},
    "field_length": {"m": 1.0, "cm": 1e-2},
    "magnet_rotation": {"Hz": 1.0, "kHz": 1e3},
    "pem_frequency": {"Hz": 1.0, "kHz": 1e3},
    "incident_power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6},
    "polarizer_angle": {"rad": 1.0, "deg": math.pi / 180.0},
}
_BARE_KEYS = ("finesse", "pem_depth", "extinction", "samples_per_revolution")

_KEY_TO_FIELD = {
    "wavelength": "wavelength_m",
    "finesse": "finesse",
    "field_integral": "field_integral_t2m",
    "peak_field": "peak_field_t",
    "field_length": "field_length_m",
    "magnet_rotation": "magnet_rotation_hz",
    "pem_frequency": "pem_frequency_hz",
    "pem_depth": "pem_depth",
    "extinction": "extinction",
    "incident_power": "incident_power_w",
    "samples_per_revolution": "samples_per_revolution",
    "polarizer_angle": "polarizer_angle_rad",
}


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


def _parse_quantity(key: str, raw: str) -> float:
    parts = raw.split()
    if key in _BARE_KEYS:
        if len(parts) != 1:
            raise ConfigError(f"field {key!r} takes no unit, got {raw!r}")
        return float(parts[0])
    scales = _UNIT_SCALES[key]
    if len(parts) != 2:
        raise ConfigError(
            f"field {key!r} needs a value and a unit ({'/'.join(scales)}), got {raw!r}"
        )
    value, unit = parts
    if unit not in scales:
        raise ConfigError(f"field {key!r}: unknown unit {unit!r}, expected one of {sorted(scales)}")
    return float(value) * scales[unit]


def parse_config(text: str) -> ApparatusConfig:
    kv = parse_key_values(text)
    kwargs = {}
    for key, raw in kv.items():
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config field {key!r}; known: {sorted(_KEY_TO_FIELD)}")
        name = _KEY_TO_FIELD[key]
        try:
            value = _parse_quantity(key, raw)
            kwargs[name] = int(value) if name == "samples_per_revolution" else value
        except (ValueError, OverflowError) as exc:  # int() of nan or inf
            raise ConfigError(f"field {key!r}: {exc}") from exc
    try:
        return ApparatusConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ApparatusConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def config_text(config: ApparatusConfig) -> str:
    """Canonical config-file rendering (SI-ish units, 9 significant digits)."""
    lines = [
        f"wavelength = {format_number(config.wavelength_m)} m",
        f"finesse = {format_number(config.finesse)}",
        f"field_integral = {format_number(config.field_integral_t2m)} T2m",
        f"peak_field = {format_number(config.peak_field_t)} T",
        f"field_length = {format_number(config.field_length_m)} m",
        f"magnet_rotation = {format_number(config.magnet_rotation_hz)} Hz",
        f"pem_frequency = {format_number(config.pem_frequency_hz)} Hz",
        f"pem_depth = {format_number(config.pem_depth)}",
        f"extinction = {format_number(config.extinction)}",
        f"incident_power = {format_number(config.incident_power_w)} W",
        f"samples_per_revolution = {config.samples_per_revolution}",
        f"polarizer_angle = {format_number(config.polarizer_angle_rad)} rad",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunManifest:
    """Everything (besides the tool version) that determines the output bytes."""

    command: str
    config: ApparatusConfig
    source_spec: str = "none"
    seed: int = 0
    revolutions: int = 256
    fidelity: str = "fast"
    noise_asd: float = 0.0
    detector_noise: float = 0.0
    spurious_tones: tuple[tuple[float, float, float], ...] = ()
    block_size: int = 8192
    noise_halfwidth: int = 64
    cl: float = 0.95
    cl_rule: str = "gaussian-one-sided"
    extra: tuple[tuple[str, str], ...] = field(default=())

    def noise_model(self) -> NoiseModel:
        return NoiseModel(
            ellipticity_noise_density=self.noise_asd,
            detector_white_noise=self.detector_noise,
            spurious_tones=self.spurious_tones,
            rng_seed=self.seed,
        )

    def text(self) -> str:
        lines = [
            f"tool_version = {__version__}",
            f"command = {self.command}",
            f"source = {self.source_spec}",
            f"seed = {self.seed}",
            f"revolutions = {self.revolutions}",
            f"fidelity = {self.fidelity}",
            f"noise_asd = {format_number(self.noise_asd)}",
            f"detector_noise = {format_number(self.detector_noise)}",
            "spurious_tones = " + ";".join(
                f"{format_number(f)}:{format_number(a)}:{format_number(p)}"
                for f, a, p in self.spurious_tones
            ),
            f"block_size = {self.block_size}",
            f"noise_halfwidth = {self.noise_halfwidth}",
            f"cl = {format_number(self.cl)}",
            f"cl_rule = {self.cl_rule}",
        ]
        for key, value in self.extra:
            lines.append(f"{key} = {value}")
        lines.append("")
        lines.append("# config")
        lines.append(config_text(self.config).rstrip())
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()[:16]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# manifest_hash = {self.hash()}\n")
            fh.write(self.text())
