"""Instrument description, noise model, birefringence sources and run records.

The ApparatusConfig mirrors a rotating-magnet Fabry-Perot ellipsometer: a
linearly polarized beam stored in a high-finesse cavity crosses the bores of
rotating dipole magnets, a photoelastic modulator adds a carrier ellipticity,
and the analyser output is demodulated at the PEM frequency and its second
harmonic, then sampled synchronously with the magnet rotation.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .constants import CONSTANTS, cavity_amplification, convert_pressure
from .models import (
    AlpParams,
    McpParams,
    alp_deltan,
    cotton_mouton_deltan,
    gas_species,
    mcp_deltan,
    qed_unitary_birefringence,
)

RECORD_COLUMNS = ("time", "I_OmegaPEM", "I_2OmegaPEM", "I0", "magnet_phase")
_FMT = "%.8e"  # 9 significant digits, the deterministic-output contract


def format_number(x: float) -> str:
    """Canonical 9-significant-digit scientific notation used in every output file."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return _FMT % x


@dataclass(frozen=True)
class ApparatusConfig:
    """Static instrument parameters. Defaults follow the published run configuration."""

    wavelength_m: float = 1064e-9
    finesse: float = 670000.0
    field_integral_t2m: float = 10.25       # integral of B^2 dl over both magnets
    peak_field_t: float = 2.5
    field_length_m: float = 1.92            # sum of the two magnet bores
    magnet_rotation_hz: float = 3.0
    second_magnet_rotation_hz: float | None = None   # set != first only for diagnostics
    pem_frequency_hz: float = 50047.0
    pem_depth: float = 1e-3                 # eta0, carrier ellipticity amplitude
    extinction: float = 1e-7                # sigma^2 of the crossed polarizers
    incident_power_w: float = 1e-3          # I0 reaching the analyser
    samples_per_revolution: int = 32
    polarizer_angle_rad: float = 0.0        # initial field-to-polarization angle theta0

    def __post_init__(self):
        for name in (
            "wavelength_m", "finesse", "field_integral_t2m", "peak_field_t",
            "field_length_m", "magnet_rotation_hz", "pem_frequency_hz",
            "pem_depth", "incident_power_w",
        ):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"config field {name} must be positive and finite, got {v!r}")
        if not (math.isfinite(self.extinction) and self.extinction >= 0):
            raise ValueError(f"extinction must be >= 0, got {self.extinction}")
        if self.pem_frequency_hz < 100.0 * self.magnet_rotation_hz:
            raise ValueError(
                "pem_frequency_hz must exceed 100x the magnet rotation for the "
                "demodulation products to separate"
            )
        spr = self.samples_per_revolution
        if spr < 4 or (spr & (spr - 1)) != 0:
            raise ValueError(f"samples_per_revolution must be a power of two >= 4, got {spr}")
        if self.field_integral_t2m > self.peak_field_t**2 * self.field_length_m * (1 + 1e-12):
            raise ValueError(
                f"field integral {self.field_integral_t2m} T^2m exceeds "
                f"B_max^2*L = {self.peak_field_t**2 * self.field_length_m} T^2m"
            )
        if (
            self.second_magnet_rotation_hz is not None
            and self.second_magnet_rotation_hz != self.magnet_rotation_hz
        ):
            warnings.warn(
                "magnets rotating at different frequencies is an experimental "
                "diagnostic mode; the standard analysis assumes co-rotation",
                stacklevel=2,
            )

    @property
    def pass_count(self) -> float:
        """Cavity ellipticity amplification N = 2F/pi."""
        return cavity_amplification(self.finesse)

    @property
    def effective_field_t(self) -> float:
        """Field whose square times the field length reproduces the field integral."""
        return math.sqrt(self.field_integral_t2m / self.field_length_m)

    @property
    def photon_energy_ev(self) -> float:
        return CONSTANTS.photon_energy_ev(self.wavelength_m)

    @property
    def sample_rate_hz(self) -> float:
        """Demodulated-channel rate, synchronous with the rotation."""
        return self.samples_per_revolution * self.magnet_rotation_hz

    def to_key_values(self) -> dict[str, object]:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            out[f"config.{f.name}"] = v
        return out

    @classmethod
    def from_key_values(cls, kv: dict[str, str]) -> "ApparatusConfig":
        kwargs = {}
        for f in fields(cls):
            key = f"config.{f.name}"
            if key in kv:
                raw = kv[key]
                kwargs[f.name] = int(raw) if f.name == "samples_per_revolution" else float(raw)
        return cls(**kwargs)

    def content_hash(self) -> str:
        text = "\n".join(
            f"{k} = {format_number(v) if isinstance(v, float) else v}"
            for k, v in sorted(self.to_key_values().items())
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic ingredients of a synthesized run; fully determined by the seed."""

    ellipticity_noise_density: float = 0.0   # one-sided ASD at 2*Omega_Mag, 1/sqrt(Hz)
    detector_white_noise: float = 0.0        # relative intensity noise per raw sample
    spurious_tones: tuple[tuple[float, float, float], ...] = ()  # (freq Hz, ellipticity amp, phase rad)
    rng_seed: int = 0

    def __post_init__(self):
        if self.ellipticity_noise_density < 0 or self.detector_white_noise < 0:
            raise ValueError("noise amplitudes must be >= 0")

    def alpha_of(self, t: np.ndarray) -> np.ndarray:
        """Slowly varying spurious ellipticity alpha(t) as a sum of tones.

        Each tone is amp * cos(2 pi freq t + phase), evaluated in place in one
        scratch array, so the working set is two arrays the size of ``t``.
        """
        out = np.zeros_like(t)
        tone = np.empty_like(t)
        for freq, amp, phase in self.spurious_tones:
            np.multiply(t, 2.0 * math.pi * freq, out=tone)
            tone += phase
            np.cos(tone, out=tone)
            tone *= amp
            out += tone
        return out

    def describe(self) -> str:
        tones = ";".join(f"{f:g}:{a:g}:{p:g}" for f, a, p in self.spurious_tones)
        return (
            f"asd={self.ellipticity_noise_density:g},rin={self.detector_white_noise:g},"
            f"tones=[{tones}],seed={self.rng_seed}"
        )


QUIET = NoiseModel()


# ---------------------------------------------------------------------------
# Birefringence sources
# ---------------------------------------------------------------------------
# A source yields the signed Delta-n at a given field; the forward model only
# needs the effective Delta n/B^2 at the apparatus working field, because the
# induced ellipticity scales with the field integral.

@dataclass(frozen=True)
class NullSource:
    """Vacuum with no physics beyond linear electrodynamics."""

    def deltan(self, b_tesla: float) -> float:
        return 0.0

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True)
class FixedDeltanSource:
    """Fixed unitary birefringence, Delta n = deltan_u * B^2."""

    deltan_u: float  # T^-2

    def deltan(self, b_tesla: float) -> float:
        return self.deltan_u * b_tesla**2

    def describe(self) -> str:
        return f"fixed-deltanu:{self.deltan_u!r}"


@dataclass(frozen=True)
class FixedEllipticitySource:
    """Fixed cavity-output ellipticity amplitude, bypassing the Delta-n chain."""

    psi: float

    def describe(self) -> str:
        return f"fixed-ellipticity:{self.psi!r}"


@dataclass(frozen=True)
class QedVacuumSource:
    """Euler-Heisenberg vacuum."""

    def deltan(self, b_tesla: float) -> float:
        return qed_unitary_birefringence() * b_tesla**2

    def describe(self) -> str:
        return "qed"


@dataclass(frozen=True)
class GasSource:
    """Cotton-Mouton birefringence of a gas at a fixed pressure."""

    gas_name: str
    pressure_atm: float

    def deltan(self, b_tesla: float) -> float:
        return cotton_mouton_deltan(gas_species(self.gas_name), self.pressure_atm, b_tesla)

    def describe(self) -> str:
        return f"gas:{self.gas_name}:{self.pressure_atm!r}atm"


@dataclass(frozen=True)
class AlpSource:
    params: AlpParams

    def deltan(self, b_tesla: float) -> float:
        return alp_deltan(self.params, b_tesla)

    def describe(self) -> str:
        p = self.params
        return f"alp:g={p.coupling_inv_ev!r},m={p.mass_ev!r}"


@dataclass(frozen=True)
class McpSource:
    params: McpParams

    def deltan(self, b_tesla: float) -> float:
        value, _ = mcp_deltan(self.params, b_tesla, allow_gap=True)
        return value

    def describe(self) -> str:
        p = self.params
        return f"mcp:{p.statistics}:eps={p.charge_ratio!r},m={p.mass_energy_ev!r}"


def parse_source(spec: str, config: ApparatusConfig):
    """Parse a CLI source description into a source for this apparatus.

    Grammar: ``none`` | ``qed`` | ``fixed-deltanu:<T^-2>`` |
    ``fixed-ellipticity:<psi>`` | ``gas:<name>:<pressure><unit>`` (unit one of
    atm/mbar/ubar) | ``alp:g=<eV^-1>,m=<eV>`` | ``mcp:<fermion|scalar>:eps=<..>,m=<eV>``.
    ALP and MCP sources take their photon energy (and the ALP its field
    length) from ``config``.
    """
    parts = spec.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "none":
            return NullSource()
        if kind == "qed":
            return QedVacuumSource()
        if kind == "fixed-deltanu":
            return FixedDeltanSource(float(parts[1]))
        if kind == "fixed-ellipticity":
            return FixedEllipticitySource(float(parts[1]))
        if kind == "gas":
            name, amount = parts[1], parts[2]
            for unit in ("ubar", "mbar", "atm"):
                if amount.endswith(unit):
                    value = float(amount[: -len(unit)])
                    return GasSource(name, convert_pressure(value, unit, "atm"))
            raise ValueError(f"pressure {amount!r} must end in atm, mbar or ubar")
        if kind == "alp":
            kv = dict(item.split("=") for item in parts[1].split(","))
            return AlpSource(AlpParams(
                float(kv["g"]), float(kv["m"]), config.photon_energy_ev, config.field_length_m
            ))
        if kind == "mcp":
            stats = parts[1]
            kv = dict(item.split("=") for item in parts[2].split(","))
            return McpSource(McpParams(
                float(kv["eps"]), float(kv["m"]), config.photon_energy_ev, stats
            ))
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"cannot parse source spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown source kind {kind!r} in {spec!r}")


# ---------------------------------------------------------------------------
# Time-series records
# ---------------------------------------------------------------------------

def grid_rate(config: ApparatusConfig, lockin_layout: tuple[int, int] | None = None) -> float:
    """Exact sample rate of a record's grid, from its config and its lock-in layout.

    A fast record (``lockin_layout=None``) is sampled at
    ``config.sample_rate_hz``; a full-fidelity one at ``pem_oversample``
    samples per PEM cycle, with a whole number of cycles per output bin.
    """
    if lockin_layout is None:
        return config.sample_rate_hz
    oversample, samples_per_bin = lockin_layout
    return samples_per_bin // oversample * config.sample_rate_hz * oversample


@dataclass(frozen=True)
class TimeSeriesRecord:
    """Sampled channels of one run plus the metadata needed to analyze it.

    For fast-fidelity records the channels are the lock-in outputs; for
    full-fidelity records ``i_omega_pem`` holds the raw (undemodulated)
    detector intensity and ``i_2omega_pem`` is zero -- the file schema keeps a
    single fixed column order either way.  Only ``i_omega_pem`` varies from
    sample to sample: synthesis stores ``i_2omega_pem`` and ``i0`` as
    zero-stride views of one value.  The sample grid is not stored either:
    ``sample_rate_hz`` is derived by :func:`grid_rate` from the config and the
    lock-in layout, and ``time`` and ``magnet_phase`` from that rate on demand.
    """

    i_omega_pem: np.ndarray
    i_2omega_pem: np.ndarray
    i0: np.ndarray
    fidelity: str                      # "fast" | "full"
    config: ApparatusConfig
    source_description: str
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.i_omega_pem)
        if len(self.i_2omega_pem) != n or len(self.i0) != n:
            raise ValueError("all channels must have equal length")
        if self.fidelity not in ("fast", "full"):
            raise ValueError(f"fidelity must be 'fast' or 'full', got {self.fidelity!r}")

    def __len__(self) -> int:
        return len(self.i_omega_pem)

    @property
    def sample_rate_hz(self) -> float:
        """Exact rate of the sample grid; a record file's header keeps it to 9 digits."""
        return grid_rate(self.config, self.lockin_layout() if self.fidelity == "full" else None)

    def derived_columns(self, start: int = 0, stop: int | None = None):
        """``(time, magnet_phase)`` of the samples ``start`` to ``stop`` (default: the end).

        Computed by the expressions synthesis samples with, so they are the
        columns a record file holds.
        """
        t = np.arange(start, len(self) if stop is None else stop) / self.sample_rate_hz
        phase = (
            2.0 * math.pi * self.config.magnet_rotation_hz * t + self.config.polarizer_angle_rad
        ) % (2.0 * math.pi)
        return t, phase

    @property
    def time(self) -> np.ndarray:
        return self.derived_columns()[0]

    @property
    def magnet_phase(self) -> np.ndarray:
        return self.derived_columns()[1]

    def lockin_layout(self) -> tuple[int, int]:
        """``(pem_oversample, samples_per_output_bin)`` of a full-fidelity record.

        Each output bin must hold a whole number of PEM cycles, so every bin
        sees the same lock-in reference row.
        """
        layout = []
        for key in ("pem_oversample", "samples_per_output_bin"):
            try:
                value = float(self.metadata[key])
            except KeyError as exc:
                raise ValueError(f"full-fidelity record lacks metadata key {exc}") from exc
            except ValueError:
                value = math.nan
            if not (value.is_integer() and value > 0):
                raise ValueError(f"{key} = {self.metadata[key]!r} is not a positive integer")
            layout.append(int(value))
        oversample, samples_per_bin = layout
        if samples_per_bin % oversample:
            raise ValueError(
                f"samples_per_output_bin = {samples_per_bin} is not a multiple of "
                f"pem_oversample = {oversample}"
            )
        return oversample, samples_per_bin

    def header_items(self) -> list[tuple[str, object]]:
        items: list[tuple[str, object]] = [
            ("tool_version", __version__),
            ("fidelity", self.fidelity),
            ("sample_rate_hz", self.sample_rate_hz),
            ("n_samples", len(self)),
            ("source", self.source_description),
            ("seed", self.seed),
            ("config_hash", self.config.content_hash()),
        ]
        items.extend(sorted(self.config.to_key_values().items()))
        items.extend(sorted(self.metadata.items()))
        return items


# Output bins per chunk of full-fidelity synthesis and lock-in, the unit of work
# of one worker thread: 64 bins are ~0.53 M raw samples at the default PEM grid.
_CHUNK_BINS = 64
# Most worker threads of the chunk loops; each running chunk holds its own working set.
_MAX_CHUNK_WORKERS = 8
# Raw samples per block, the unit in which a chunk is computed (in whole bins).
# A worker's temporaries are a few block-sized arrays of ~0.5 MB, which stay in
# its core's cache and leave little behind in its thread's malloc arena: with
# chunk-sized ones (4 MB), two workers raised the peak RSS of a 64-revolution
# run by ~25 MB, and one-bin blocks (8336 samples) lose more to per-call
# overhead than they save.
_BLOCK_SAMPLES = 1 << 16


def _chunk_workers() -> int:
    """Worker threads of the chunk loops: one per CPU this process may run on, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_CHUNK_WORKERS)


def _map_chunks(func, n_bins: int, samples_per_bin: int):
    """Run ``func(c0, c1)`` over ``n_bins`` output bins; yield each chunk's ``(b0, b1)`` in order.

    The bins are cut into chunks of ``_CHUNK_BINS``, and each chunk into
    blocks of whole bins ``c0`` to ``c1`` of about ``_BLOCK_SAMPLES`` raw
    samples (``samples_per_bin`` each); ``func`` computes one block.  The
    chunks run on up to :func:`_chunk_workers` threads, which overlap because
    numpy releases the interpreter lock inside its array loops.  A chunk's
    bins are yielded once it is done, so the caller can finish the chunks in
    order while later ones are still running.  ``func`` must not depend on
    the order in which blocks run.
    """
    step = max(1, _BLOCK_SAMPLES // samples_per_bin)

    def chunk(b0: int) -> tuple[int, int]:
        b1 = min(b0 + _CHUNK_BINS, n_bins)
        for c0 in range(b0, b1, step):
            func(c0, min(c0 + step, b1))
        return b0, b1

    starts = range(0, n_bins, _CHUNK_BINS)
    workers = min(_chunk_workers(), len(starts))
    if workers <= 1:
        yield from map(chunk, starts)
        return
    # imported here: it costs every process that imports vmbsim ~8 ms otherwise
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(chunk, starts)


# Rows formatted per block: at 4096 the kernel's temporaries stay in cache
# (65536 ran at half the speed), and the writer's memory stays bounded.
_WRITE_ROWS = 1 << 12
# Rows per block of the reader's check of the derived columns, which bounds its temporaries.
_CHECK_ROWS = 1 << 16
_FIELD = 16  # widest _FMT text, "-1.23456789e-100"
_P0 = 300
_POW10 = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])  # correctly rounded


def _words(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype="<u8")


# Each value fills three little-endian 8-byte words, NUL where a byte is unused:
#   [....., sign, lead, "."] [8 digits] ["e", exponent sign and digits, separator]
_LEAD = _words(b"\0" * 5 + sign + b"%d." % d for sign in (b"\0", b"-") for d in range(10))
_EXP = _words(b"e%+03d" % e for e in range(-_P0, _P0 + 1))
_SEP = _words((b"\0" * 5 + b", ", b"\0" * 5 + b"\n"))
# b"%04d" % i for i < 10**4, built arithmetically: a 10**4-item join costs ms at import
_DIGITS4 = sum(
    (np.arange(10_000, dtype="<u8") // 10**j % 10 + ord("0")) << 8 * (3 - j) for j in range(4)
)


def _format_rows(cols: np.ndarray) -> bytes:
    """``np.savetxt(fh, cols, fmt=_FMT, delimiter=", ")`` text of a float64 (rows, columns) block.

    The float arithmetic settles a value when its mantissa, scaled by
    10**(8 - floor(log10|x|)), lies in [1e8, 1e9) and is at least 1e-5 away
    from a rounding tie; the scaling error is below 1e-6 there, so rounding
    it gives the digits of the exact decimal expansion. Every other nonzero
    value (ties, values next to a power of ten where log10 misses by one,
    non-finite, subnormal or huge magnitudes) is formatted by ``_FMT`` itself.
    """
    a = np.abs(cols)
    normal = (a >= 1e-290) & (a < 1e290)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = a * _POW10[_P0 + 8 - e]
    m = np.rint(s)
    exact = normal & (s >= 1e8) & (m < 1e9) & (np.abs(s - m) <= 0.5 - 1e-5)
    # exact zeros keep m = 0 and e = 0, "0.00000000e+00" signed by signbit
    m = np.where(exact, m, 0.0).astype(np.int64)
    lead, m = np.divmod(m, 100_000_000)
    hi, lo = np.divmod(m, 10_000)
    words = np.empty(cols.shape + (3,), dtype="<u8")
    words[..., 0] = _LEAD.take(lead + 10 * np.signbit(cols))
    words[..., 1] = _DIGITS4.take(hi) | (_DIGITS4.take(lo) << 32)
    words[..., 2] = _EXP.take(_P0 + np.where(exact, e, 0))
    words[..., :-1, 2] |= _SEP[0]
    words[..., -1, 2] |= _SEP[1]
    slow = ~exact & (cols != 0.0)
    if slow.any():
        text = np.array([_FMT % v for v in cols[slow].tolist()], dtype=f"S{_FIELD}")
        words[slow, :2] = text.view("<u8").reshape(-1, 2)
        words[slow, 2] &= ~np.uint64(0xFF_FFFF_FFFF)  # keep only the separator bytes
    return words.tobytes().translate(None, b"\0")


def write_record(record: TimeSeriesRecord, path) -> None:
    """Serialize to the columnar text format (header block, then fixed columns)."""
    header = "".join(
        f"# {key} = {format_number(value) if isinstance(value, float) else str(value)}\n"
        for key, value in record.header_items()
    )
    header += "# columns = " + ", ".join(RECORD_COLUMNS) + "\n"
    n = len(record)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n, _WRITE_ROWS):
            rows = slice(start, min(start + _WRITE_ROWS, n))
            t, phase = record.derived_columns(rows.start, rows.stop)
            block = np.column_stack(
                (t, record.i_omega_pem[rows], record.i_2omega_pem[rows], record.i0[rows], phase)
            ).astype(np.float64, copy=False)
            fh.write(_format_rows(block))


def _data_rows(path):
    """``(data_row, file_line, cells)`` of each row ``np.loadtxt`` reads, both numbered from 1."""
    with open(path) as fh:
        row = 0
        for line_no, line in enumerate(fh, 1):
            text = line.partition("#")[0].strip()
            if text:
                row += 1
                yield row, line_no, text.split(",")


def _row_error(path, row: int, line: int, reason: str) -> ValueError:
    return ValueError(f"record file {path}, data row {row} (file line {line}): {reason}")


def _sample_error(path, index: int, reason: str) -> ValueError:
    """:func:`_row_error` for the sample at 0-based ``index`` of the loaded data."""
    line = next(line for row, line, _ in _data_rows(path) if row == index + 1)
    return _row_error(path, index + 1, line, reason)


def _malformed_row(path) -> ValueError | None:
    """The error for the first row of the wrong width or with a cell that is not a number."""
    for row, line, cells in _data_rows(path):
        if len(cells) != len(RECORD_COLUMNS):
            return _row_error(path, row, line,
                              f"{len(cells)} fields, expected {len(RECORD_COLUMNS)}")
        for name, cell in zip(RECORD_COLUMNS, cells):
            try:
                float(cell)
            except ValueError:
                return _row_error(path, row, line,
                                  f"{cell.strip()!r} in column {name} is not a number")
    return None


def read_record(path) -> TimeSeriesRecord:
    """Read a record written by :func:`write_record`.

    The header is the leading block of ``#`` lines; ``#`` lines after the
    first data row are comments. A malformed or non-finite row is named by
    its 1-based data row and file line. A ``config_hash`` that the header's
    config does not hash to, a header ``sample_rate_hz`` more than 1e-8 away
    from the rate that the config and lock-in layout derive, and a ``time`` or
    ``magnet_phase`` cell off that grid are refused; the record keeps neither
    column, and uses only the derived rate, as a synthesized one does. Like a
    synthesized record, it stores ``I_OmegaPEM`` as its own array, and ``I0``
    and ``I_2OmegaPEM`` as zero-stride views when they are constant.
    """
    header: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                break
            key, eq, value = line[1:].partition("=")
            if eq:
                header[key.strip()] = value.strip()
        else:
            raise ValueError(f"record file {path} contains no samples")
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        # rescanned only on failure, so the message does not depend on numpy's wording
        raise _malformed_row(path) or ValueError(f"record file {path}: {exc}") from exc
    if data.shape[1] != len(RECORD_COLUMNS):
        raise ValueError(
            f"record file {path} has {data.shape[1]} columns, expected {len(RECORD_COLUMNS)}"
        )
    finite = np.isfinite(data)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), data.shape[1])
        raise _sample_error(path, row, f"non-finite value in column {RECORD_COLUMNS[col]}")
    if int(header["n_samples"]) != len(data):
        raise ValueError(
            f"record file {path} has {len(data)} sample rows but its header says "
            f"n_samples = {header['n_samples']}"
        )
    config = ApparatusConfig.from_key_values(header)
    if header["config_hash"] != config.content_hash():
        raise ValueError(
            f"record file {path} has config_hash = {header['config_hash']}, but its "
            f"config.* values hash to {config.content_hash()}"
        )
    metadata = {
        k: v
        for k, v in header.items()
        if not k.startswith("config.")
        and k not in ("tool_version", "fidelity", "sample_rate_hz", "n_samples", "source",
                      "seed", "config_hash", "columns")
    }
    record = TimeSeriesRecord(
        i_omega_pem=data[:, 1],
        i_2omega_pem=data[:, 2],
        i0=data[:, 3],
        fidelity=header["fidelity"],
        config=config,
        source_description=header.get("source", "unknown"),
        seed=int(header.get("seed", 0)),
        metadata=metadata,
    )
    # the header keeps 9 significant digits; past this check only the derived rate is used
    rate = record.sample_rate_hz
    if not abs(float(header["sample_rate_hz"]) - rate) <= 1e-8 * rate:
        raise ValueError(
            f"record file {path} has sample_rate_hz = {header['sample_rate_hz']}, but "
            f"its config and lock-in layout give {format_number(rate)}"
        )
    _check_derived_columns(record, data, path)
    # hold only what varies, so the whole (n, 5) array the text reader built can go
    return replace(record, i_omega_pem=data[:, 1].copy(), i_2omega_pem=_stored(data[:, 2]),
                   i0=_stored(data[:, 3]))


def _stored(column: np.ndarray) -> np.ndarray:
    """A zero-stride view of the first value of a bitwise-constant column, else a copy."""
    bits = column.view(np.uint64)
    if (bits == bits[0]).all():
        return np.broadcast_to(column[0], len(column))
    return column.copy()


def _check_derived_columns(record: TimeSeriesRecord, data: np.ndarray, path) -> None:
    """Refuse a ``time`` or ``magnet_phase`` cell off the grid the record's config derives.

    A cell may differ from the derived value by its ``%.8e`` rounding,
    5e-9 of the value.  A phase cell is compared with the unwrapped phase
    2 pi f t + theta0 modulo whole turns, within 1e-8 of that phase plus one
    turn: the header config holds 9 digits too, so a rotation rate or
    polarizer angle with more digits moves the derived phase by up to 5e-9
    of the unwrapped phase, across the wrap for samples next to 0.
    """
    rate = record.sample_rate_hz
    f = record.config.magnet_rotation_hz
    theta0 = record.config.polarizer_angle_rad
    for start in range(0, len(record), _CHECK_ROWS):
        stop = min(start + _CHECK_ROWS, len(record))
        t = np.arange(start, stop) / rate
        off_t = np.abs(data[start:stop, 0] - t) > 1e-8 * t
        # on the grid, the cell minus the unwrapped phase is a whole number of turns
        turns = (data[start:stop, 4] - (2.0 * math.pi * f * t + theta0)) / (2.0 * math.pi)
        tolerance = 1e-8 * (f * t + 1.0 + abs(theta0) / (2.0 * math.pi))
        off = off_t | (np.abs(turns - np.rint(turns)) > tolerance)
        if off.any():
            i = int(np.argmax(off))
            t_i, phase_i = record.derived_columns(start + i, start + i + 1)
            col, derived = (0, t_i[0]) if off_t[i] else (4, phase_i[0])
            raise _sample_error(
                path, start + i,
                f"{RECORD_COLUMNS[col]} = {float(data[start + i, col])!r}, but the sample grid "
                f"of its config gives {float(derived)!r}",
            )


def truncated(record: TimeSeriesRecord, n: int) -> TimeSeriesRecord:
    """First n samples of a record (block-aligned truncation helper)."""
    return replace(
        record,
        i_omega_pem=record.i_omega_pem[:n],
        i_2omega_pem=record.i_2omega_pem[:n],
        i0=record.i0[:n],
    )
