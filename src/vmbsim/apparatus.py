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
import mmap
import os
import threading
from collections import deque
from dataclasses import dataclass, field, fields, replace
from itertools import chain, islice

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


def format_value(value) -> str:
    """The value of a ``key = value`` line: a float by :func:`format_number`, else by ``str``."""
    return format_number(value) if isinstance(value, float) else str(value)


def key_value_lines(items, prefix: str = "") -> str:
    """A ``key = value`` line behind ``prefix`` per item, the value by :func:`format_value`."""
    return "".join(f"{prefix}{key} = {format_value(value)}\n" for key, value in items)


# The range of a config field: what a value must be, and its test.
_POSITIVE = ("a positive finite number", lambda v: math.isfinite(v) and v > 0)
_NON_NEGATIVE = ("a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)
_FINITE = ("a finite number", math.isfinite)
_POWER_OF_TWO = ("an integer power of two >= 4", lambda v: v >= 4 and v & (v - 1) == 0)


def _param(default, key: str, rule=_POSITIVE, **units: float):
    """A config field of the type of ``default``, with its config-file key, range and units.

    ``units`` are the factors into the field's unit of those a config file may
    give; the first, of factor 1, is the one written. A field without units
    takes a bare number.
    """
    return field(default=default, metadata={"key": key, "rule": rule, "units": units})


@dataclass(frozen=True)
class ApparatusConfig:
    """Static instrument parameters. Defaults follow the published run configuration.

    Each field is declared once, with :func:`_param`; its checks, its config-file
    line (:mod:`vmbsim.configio`) and its ``config.*`` header key follow from that.
    """

    wavelength_m: float = _param(1064e-9, "wavelength", m=1.0, um=1e-6, nm=1e-9)
    finesse: float = _param(670000.0, "finesse")
    field_integral_t2m: float = _param(10.25, "field_integral", T2m=1.0)  # B^2 dl, both magnets
    peak_field_t: float = _param(2.5, "peak_field", T=1.0)
    field_length_m: float = _param(1.92, "field_length", m=1.0, cm=1e-2)  # both magnet bores
    magnet_rotation_hz: float = _param(3.0, "magnet_rotation", Hz=1.0, kHz=1e3)
    pem_frequency_hz: float = _param(50047.0, "pem_frequency", Hz=1.0, kHz=1e3)
    pem_depth: float = _param(1e-3, "pem_depth")  # eta0, carrier ellipticity amplitude
    extinction: float = _param(1e-7, "extinction", _NON_NEGATIVE)  # sigma^2, crossed polarizers
    # I0 reaching the analyser
    incident_power_w: float = _param(1e-3, "incident_power", W=1.0, mW=1e-3, uW=1e-6)
    samples_per_revolution: int = _param(32, "samples_per_revolution", _POWER_OF_TWO)
    # initial field-to-polarization angle theta0
    polarizer_angle_rad: float = _param(0.0, "polarizer_angle", _FINITE, rad=1.0, deg=math.pi / 180)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind = type(f.default)
            what, test = f.metadata["rule"]
            # a float field takes an int too; a bool is neither
            if isinstance(value, bool) or not isinstance(value, (kind, int)) or not test(value):
                raise ValueError(f"config field {f.name} must be {what}, got {value!r}")
            # stored as a float, it hashes as the value read back from its file does
            object.__setattr__(self, f.name, kind(value))
        # judged to the 9 digits of the files written of it, so that each file reads back
        pem, rotation, integral, peak, length = (
            float(format_number(getattr(self, name))) for name in (
                "pem_frequency_hz", "magnet_rotation_hz", "field_integral_t2m", "peak_field_t",
                "field_length_m"))
        if pem < 100.0 * rotation:
            raise ValueError(
                "pem_frequency_hz must exceed 100x the magnet rotation for the "
                "demodulation products to separate"
            )
        if integral > peak * peak * length * (1 + 1e-12):
            raise ValueError(
                f"field integral {integral} T^2m exceeds B_max^2*L = {peak * peak * length} T^2m"
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
        return {f"config.{f.name}": getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_key_values(cls, kv: dict[str, str]) -> "ApparatusConfig":
        """The config of the ``config.*`` keys of ``kv``; a missing field takes its default.

        A ``config.*`` key that names no field, or whose value is not a
        literal of the field's type, is refused, naming the key; so is a
        missing ``config_hash``, or one that is not the config's, naming both.
        """
        by_key = {f"config.{f.name}": f for f in fields(cls)}
        kwargs = {}
        for key, raw in kv.items():
            if not key.startswith("config."):
                continue
            if key not in by_key:
                raise ValueError(f"unknown config key {key!r}")
            f = by_key[key]
            try:
                kwargs[f.name] = type(f.default)(raw)
            except ValueError:
                raise ValueError(
                    f"config key {key!r} must be {f.metadata['rule'][0]}, got {raw!r}"
                ) from None
        config = cls(**kwargs)
        if "config_hash" not in kv:
            raise ValueError("key 'config_hash' is missing")
        if kv["config_hash"] != config.content_hash():
            raise ValueError(f"config_hash = {kv['config_hash']}, but the config.* values hash "
                             f"to {config.content_hash()}")
        return config

    def content_hash(self) -> str:
        text = key_value_lines(sorted(self.to_key_values().items()))[:-1]
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic ingredients of a synthesized run; fully determined by the seed."""

    ellipticity_noise_density: float = 0.0   # one-sided ASD at 2*Omega_Mag, 1/sqrt(Hz)
    detector_white_noise: float = 0.0        # relative intensity noise per raw sample
    spurious_tones: tuple[tuple[float, float, float], ...] = ()  # (freq Hz, ellipticity amp, phase rad)
    rng_seed: int = 0

    def __post_init__(self):
        if self.rng_seed < 0:  # numpy's seed sequences take only integers >= 0
            raise ValueError(f"the seed must be >= 0, got {self.rng_seed}")
        for density in (self.ellipticity_noise_density, self.detector_white_noise):
            if not (math.isfinite(density) and density >= 0):
                raise ValueError(f"noise densities must be finite and >= 0, got {density}")
        for tone in self.spurious_tones:
            if not all(math.isfinite(v) for v in tone):
                raise ValueError(f"spurious tone fields must be finite, got {tone}")

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


class _RawIntensity:
    """A synthesized record's varying channel, as the function of its samples it is.

    Both fidelities keep one: a full-fidelity record its raw detector
    intensity, ``samples_per_bin`` raw samples per output bin, and a fast
    record its ``I_OmegaPEM``, one sample per bin.  ``fill(c0, c1, out)``
    computes the samples of bins ``c0`` to ``c1`` in place in ``out``, noise
    included: a block is a pure function of its bins, which every pass
    (:func:`_walk`) computes alike, bit for bit, in any order, on any thread.
    """

    def __init__(self, fill, n_bins: int, samples_per_bin: int):
        self.fill = fill
        self.n_bins = n_bins
        self.samples_per_bin = samples_per_bin

    def __len__(self) -> int:
        return self.n_bins * self.samples_per_bin


class _Materialised:
    """``TimeSeriesRecord.i_omega_pem``: the stored array, built at the first read if needed.

    A record stores an array, or, if synthesized, a :class:`_RawIntensity`,
    which the first read turns into the array it computes and stores in its
    place, its blocks filled in place in the calling thread (on workers each
    would hold its own temporaries).  Reading it on the class raises
    ``AttributeError``, so the field has no default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)
        channel = vars(record)[self.name]
        if isinstance(channel, _RawIntensity):
            array = np.empty(len(channel))
            for start, stop in _blocks(len(array), channel.samples_per_bin, _BLOCK_SAMPLES):
                _samples(channel, start, stop, array[start:stop])
            channel = vars(record)[self.name] = array
        return channel

    def __set__(self, record, channel):
        vars(record)[self.name] = channel


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

    A synthesized record does not store ``i_omega_pem`` either: it keeps the
    function of its samples that computes it, noise included (a
    ``_RawIntensity``).  The analysis reduces that channel chunk by chunk as
    it is computed, so the array never exists; reading ``i_omega_pem`` builds
    it, exactly as a whole-record synthesis would, and the record keeps it
    from then on.  ``len`` does not build it.
    """

    i_omega_pem: np.ndarray = _Materialised()   # no default: stored by _Materialised
    i_2omega_pem: np.ndarray
    i0: np.ndarray
    fidelity: str                      # "fast" | "full"
    config: ApparatusConfig
    source_description: str
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self)
        if len(self.i_2omega_pem) != n or len(self.i0) != n:
            raise ValueError("all channels must have equal length")
        if self.fidelity not in ("fast", "full"):
            raise ValueError(f"fidelity must be 'fast' or 'full', got {self.fidelity!r}")

    def __len__(self) -> int:
        return len(_varying_channel(self))

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


# Most output bins per block of a full-fidelity channel (see :func:`_blocks`): 64 bins
# are ~0.53 M raw samples at the default PEM grid.
_CHUNK_BINS = 64
# Most worker threads of :func:`_map_ordered`; each running item holds its own working set.
# The threads are one pool per process, made at the first pass that needs workers and
# kept idle between passes; a different CPU count replaces it, and a forked child, which
# has none of its threads, makes its own (:func:`_worker_pool`).
_MAX_CHUNK_WORKERS = 8
# Items per worker thread that :func:`_map_ordered` takes ahead of the result it yields.
_AHEAD_PER_WORKER = 2
# Samples per block of the analysis, the lock-in, a channel's build and the pages of a
# noise stream (in whole bins), the unit of work of one thread.  A worker's temporaries
# are a few block-sized arrays of ~0.5 MB, which stay in its core's cache and leave
# little behind in its thread's malloc arena: with 4 MB ones, two workers raised the
# peak RSS of a 64-revolution run by ~25 MB, and one-bin blocks (8336 samples) lose
# more to per-call overhead than they save.
_BLOCK_SAMPLES = 1 << 16


def _chunk_workers() -> int:
    """Worker threads of :func:`_map_ordered`: one per CPU this process may run on, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_CHUNK_WORKERS)


def _in_flight() -> int:
    """Items :func:`_map_ordered` takes ahead of the result it yields."""
    return _AHEAD_PER_WORKER * _chunk_workers()


# ``(workers, ThreadPoolExecutor)`` of :func:`_worker_pool`, or None before the first
# pass that needs workers and in a forked child.
_pool = None


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _worker_pool(workers: int):
    """The process's pool of ``workers`` threads: the kept one, or a new one in its place."""
    global _pool
    if _pool is None or _pool[0] != workers:
        if _pool is not None:
            _pool[1].shutdown()  # its threads are idle; they end before the new ones start
        # imported here: it costs every process that imports vmbsim ~8 ms otherwise
        from concurrent.futures import ThreadPoolExecutor

        _pool = workers, ThreadPoolExecutor(workers, thread_name_prefix="vmbsim-worker")
    return _pool[1]


def _map_ordered(func, items):
    """Yield ``func(item)`` for each of ``items`` in order, computed on worker threads.

    The items run on :func:`_chunk_workers` threads, which overlap because
    numpy releases the interpreter lock inside its array loops; on one CPU,
    or if there is only one item, they run in the calling thread.  At most
    :func:`_in_flight` items are taken from ``items`` ahead of the result
    being yielded, so a lazy ``items`` is read only that far ahead, in the
    calling thread, and the results waiting for the caller stay bounded.
    ``func`` must not depend on the order in which items run.

    The threads are the process's one pool (:func:`_worker_pool`), made at
    the first pass that needs workers and kept idle between passes; a
    different CPU count replaces it, and a forked child makes its own.  A
    pass that raises or is closed cancels its queued items and waits for its
    running ones, so no task of a finished pass still touches what the pass
    handed it.  No ``func`` starts a pass of its own, which would wait on
    the threads that run it.
    """
    workers = _chunk_workers()
    if workers <= 1:
        yield from map(func, items)
        return
    items = iter(items)
    first = list(islice(items, _in_flight()))
    if len(first) <= 1:  # one item runs no faster on a worker
        yield from map(func, first)
        return
    pool = _worker_pool(workers)
    pending = deque(pool.submit(func, item) for item in first)
    del first
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(func, item) for item in islice(items, 1))
            yield result
    finally:
        for future in pending:
            future.cancel()
        for future in pending:
            if not future.cancelled():
                future.exception()  # waits for a running item, and does not raise its error


def _step(samples_per_bin: int, size: int) -> int:
    """Samples per block of :func:`_blocks`: whole bins, about ``size`` samples.

    A block holds at least one bin, and at most ``_CHUNK_BINS`` bins of a
    full-fidelity channel (more than one sample per bin).
    """
    bins = max(1, size // samples_per_bin)
    if samples_per_bin > 1:
        bins = min(bins, _CHUNK_BINS)
    return bins * samples_per_bin


def _blocks(n: int, samples_per_bin: int, size: int):
    """``(start, stop)`` of consecutive blocks of ``n`` samples, :func:`_step` samples or fewer."""
    step = _step(samples_per_bin, size)
    return ((start, min(start + step, n)) for start in range(0, n, step))


def _samples(channel, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Samples ``start`` to ``stop`` of a varying channel: a view of a stored one, or the
    samples a :class:`_RawIntensity` fills into ``out`` (a new array if None), in whole bins."""
    if not isinstance(channel, _RawIntensity):
        return channel[start:stop]
    spb = channel.samples_per_bin
    if start % spb or stop % spb:
        raise ValueError(f"blocks of a channel synthesized with {spb} samples per bin "
                         "must hold whole bins")
    out = np.empty(stop - start) if out is None else out
    channel.fill(start // spb, stop // spb, out)
    return out


def _walk(channel, bounds, func, per_task: int = 1):
    """Yield ``func(start, stop, samples)`` for each ``(start, stop)`` of ``bounds``, in order.

    A pass over a record's varying channel, taking ``bounds`` lazily: views of
    a stored one in the calling thread, which holds one block's working set,
    or the blocks of a synthesized one, ``per_task`` a task on the
    :func:`_map_ordered` workers, so ``func`` must not depend on their order.
    Each is filled into a buffer of its thread, which its next block reuses.
    """
    if not isinstance(channel, _RawIntensity):
        return (func(start, stop, channel[start:stop]) for start, stop in bounds)
    local = threading.local()

    def task(blocks):
        results = []
        for start, stop in blocks:
            if len(getattr(local, "buffer", ())) < stop - start:
                local.buffer = np.empty(stop - start)
            samples = _samples(channel, start, stop, local.buffer[:stop - start])
            results.append(func(start, stop, samples))
        return results

    bounds = iter(bounds)
    tasks = iter(lambda: list(islice(bounds, per_task)), [])
    return chain.from_iterable(_map_ordered(task, tasks))


def _varying_channel(record: TimeSeriesRecord):
    """``i_omega_pem`` as the record keeps it: an array, or a ``_RawIntensity`` left unbuilt."""
    return vars(record)["i_omega_pem"]


# Rows formatted per piece, the writer's unit of work on one worker thread (~1.3 MB of
# text), and bytes read per block, completed to a whole row, the reader's (~13 k rows).
# Each numpy call of a task may hand the interpreter lock between threads: on 2 CPUs a
# 6 h record's write and read make ~3 k and ~2.5 k voluntary context switches, and about
# twice as many with half these units.  A worker thread's malloc arena keeps the
# temporaries it held at its peak, which counts in the process's resident memory: a
# 1 MiB block peaks at 1.8 MB traced, and a piece keeps its words and text in one of
# the writer's maps, leaving ~1 MB of heap temporaries per worker.
_WRITE_ROWS = 1 << 14
_READ_BYTES = 1 << 20
# Bytes of a piece's cell words compacted at a time: the NUL mask and the kept bytes of
# one part are the only temporaries of the compaction.
_COMPACT_BYTES = 1 << 18
_FIELD = 16  # widest _FMT text, "-1.23456789e-100"
_P0 = 300
_POW10 = np.array([float(f"1e{k}") for k in range(-_P0, _P0 + 1)])  # correctly rounded


def _words(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype="<u8")


# Each value fills three little-endian 8-byte words, NUL where a byte is unused:
#   [....., sign, lead, "."] [8 digits] ["e", exponent sign and digits, separator]
_LEAD = _words(b"\0" * 5 + sign + b"%d." % d for sign in (b"\0", b"-") for d in range(10))
_EXP = _words(b"e%+03d" % e for e in range(-_P0, _P0 + 1))
_SEPARATORS = (b", ", b"\n")
_SEP = _words(b"\0" * 5 + s for s in _SEPARATORS)
# b"%04d" % i for i < 10**4, built arithmetically: a 10**4-item join costs ms at import
_DIGITS4 = sum(
    (np.arange(10_000, dtype="<u8") // 10**j % 10 + ord("0")) << 8 * (3 - j) for j in range(4)
)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``x`` into a high and a low half of 26 bits, whose products are exact."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _product_error(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``a * b - p`` exactly, for ``p`` the rounded product ``a * b`` (Dekker's product).

    Exact while no partial product overflows or underflows.
    """
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = p - a_hi * b_hi
    err -= a_lo * b_hi
    err -= a_hi * b_lo
    return a_lo * b_lo - err


def _cell_words(values: np.ndarray, separator: np.uint64, out: np.ndarray) -> None:
    """Write the three words of each value's ``_FMT`` text and ``separator`` into ``out``.

    ``out`` has shape ``values.shape + (3,)``, and may be a strided view.
    The float arithmetic settles a value when its mantissa, scaled by
    10**(8 - floor(log10|x|)), lies in [1e8, 1e9).  Where that power of ten
    is an exact double (|x| from 1e-14 to below 1e9), the scaled mantissa is
    the correctly rounded product, so rounding it to an integer gives the
    digits of the exact decimal expansion -- unless it is a half-integer; then
    the product's rounding error, which Dekker's product finds exactly, tells
    on which side of the tie the exact value lies, and an exact tie is rounded
    to even, as ``%e`` does.  Elsewhere the scaling error is below 1e-6, so a
    value at least 1e-5 away from a rounding tie is settled too.  Every other
    nonzero value (ties there, values next to a power of ten where log10
    misses by one, non-finite, subnormal or huge magnitudes) is formatted by
    ``_FMT`` itself.  The steps work in place where they can: each array of a
    value's width counts in its worker thread's resident memory.
    """
    s = np.abs(values)
    normal = s >= 1e-290
    normal &= s < 1e290
    np.copyto(s, 1.0, where=~normal)
    e = np.log10(s)
    np.floor(e, out=e)
    e = e.astype(np.int64)
    s *= _POW10.take(_P0 + 8 - e)
    m = np.rint(s)
    exact_scale = e >= -14
    exact_scale &= e <= 8
    off = np.subtract(s, m)
    np.abs(off, out=off)
    tie = exact_scale & (off == 0.5)
    if tie.any():
        err = _product_error(np.abs(values[tie]), _POW10[_P0 + 8 - e[tie]], s[tie])
        m[tie] = np.where(err == 0.0, m[tie], s[tie] + np.copysign(0.5, err))
    exact = off <= 0.5 - 1e-5
    del off
    exact |= exact_scale
    exact &= normal
    exact &= s >= 1e8
    exact &= m < 1e9
    del s, normal, exact_scale
    inexact = ~exact
    del exact
    # exact zeros keep m = 0 and e = 0, "0.00000000e+00" signed by signbit
    np.copyto(m, 0.0, where=inexact)
    m = m.astype(np.int64)
    # m // 10**8 and then // 10**4 as exact multiply-and-shift steps, for m < 10**9
    lead = m * 720_575_941
    lead >>= 56
    m -= lead * 100_000_000
    hi = m * 109_951_163
    hi >>= 40
    m -= hi * 10_000
    lead += 10 * np.signbit(values)
    # every index is in range; "clip" writes into ``out`` itself, where "raise" buffers
    np.take(_LEAD, lead, out=out[..., 0], mode="clip")
    del lead
    np.take(_DIGITS4, m, out=out[..., 1], mode="clip")
    out[..., 1] <<= 32
    out[..., 1] |= _DIGITS4.take(hi)
    del hi, m
    np.copyto(e, 0, where=inexact)
    e += _P0
    np.take(_EXP, e, out=out[..., 2], mode="clip")
    out[..., 2] |= separator
    slow = inexact
    slow &= values != 0.0
    if slow.any():
        text = np.array([_FMT % v for v in values[slow].tolist()], dtype=f"S{_FIELD}")
        out[slow, :2] = text.view("<u8").reshape(-1, 2)
        out[slow, 2] = separator


def _format_rows(columns, words=None) -> memoryview:
    """``np.savetxt(fh, np.column_stack(columns), fmt=_FMT, delimiter=", ")`` text of float columns.

    ``columns`` is a sequence of equal-length 1-D arrays, such as the
    transpose of a ``(rows, columns)`` array.  A zero-stride column, one
    value repeated, is formatted once.  Each cell is laid out in three words
    in ``words``, a uint8 buffer of at least 24 bytes per cell (a new one if
    None); the text is those words without their NUL bytes, moved to the
    front of the buffer ``_COMPACT_BYTES`` at a time, and returned as a
    memoryview of it.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    rows, width = len(columns[0]), len(columns)
    size = rows * width * 3 * 8
    buffer = np.empty(size, dtype=np.uint8) if words is None else words[:size]
    cells = buffer.view("<u8").reshape(rows, width, 3)
    for j, column in enumerate(columns):
        last = int(j == width - 1)
        if rows and column.strides == (0,):
            # the text of the one value and its separator, NUL-padded to three words
            text = (_FMT % float(column[0])).encode() + _SEPARATORS[last]
            cells[:, j] = np.frombuffer(text.ljust(24, b"\0"), dtype="<u8")
        else:
            _cell_words(column, _SEP[last], cells[:, j])
    at = 0
    for start in range(0, size, _COMPACT_BYTES):
        text = buffer[start:start + _COMPACT_BYTES]
        text = text[text != 0]  # a copy: what it overwrites has been read
        buffer[at:at + len(text)] = text
        at += len(text)
    return memoryview(buffer)[:at]


def _table_header(items, columns) -> str:
    """A ``# key = value`` line per item, then one of the column names."""
    return key_value_lines([*items, ("columns", ", ".join(columns))], "# ")


def write_table(path, items, columns, rows) -> None:
    """Write ``items`` and ``columns`` as :func:`_table_header` does, then one line per row.

    A row's values are formatted by :func:`format_value` and joined by ", ".
    A tuple ``rows`` is instead one equal-length float array per column,
    formatted by :func:`_format_rows` to the same bytes.
    """
    with open(path, "wb") as fh:
        fh.write(_table_header(items, columns).encode())
        if isinstance(rows, tuple):
            # adding 0.0 turns -0.0 into +0.0, as format_number does, and keeps every other value
            fh.write(_format_rows([column + 0.0 for column in rows]))
        else:
            fh.writelines((", ".join(map(format_value, row)) + "\n").encode() for row in rows)


def write_record(record: TimeSeriesRecord, path) -> None:
    """Serialize to the columnar text format (header block, then fixed columns).

    ``I_OmegaPEM`` is taken a noise page at a time (:func:`_samples`), so a
    synthesized record is written without building its array.  The rows are
    formatted in pieces of ``_WRITE_ROWS`` on the :func:`_map_ordered` workers
    and written in order, so the bytes do not depend on the number of threads.
    A piece's words and text stay in an anonymous memory map, reused once the
    text is written, not on a worker's heap, where the texts waiting to be
    written, freed in another thread, kept the heap at several pieces.
    """
    header = _table_header(record.header_items(), RECORD_COLUMNS)
    samples_per_bin = record.lockin_layout()[1] if record.fidelity == "full" else 1
    channel = _varying_channel(record)
    free = []  # the maps whose text has been written

    def pieces():
        size = _WRITE_ROWS * len(RECORD_COLUMNS) * 3 * 8
        for start, stop in _blocks(len(record), samples_per_bin, _BLOCK_SAMPLES):
            omega = _samples(channel, start, stop)
            for row in range(start, stop, _WRITE_ROWS):
                words = free.pop() if free else np.frombuffer(mmap.mmap(-1, size), np.uint8)
                end = min(row + _WRITE_ROWS, stop)
                yield words, row, end, omega[row - start:end - start]

    def rows(piece) -> tuple[np.ndarray, memoryview]:
        words, start, stop, omega = piece
        t, phase = record.derived_columns(start, stop)
        return words, _format_rows((t, omega, record.i_2omega_pem[start:stop],
                                    record.i0[start:stop], phase), words)

    with open(path, "wb") as fh:
        fh.write(header.encode())
        for words, text in _map_ordered(rows, pieces()):
            fh.write(text)
            free.append(words)


# Newline bytes on either side of a reader block, which the decoder's loads from 11
# bytes before each "e" to 7 after it reach into.
_PAD = 24
# The scale of a canonical cell, by one index j = e + 100 * (exponent sign is "-") +
# 200 * (value sign is "-") of its two-digit exponent e: 10**(e - 8) or 10**(-e - 8),
# signed, where that power k has |k| <= 22, is one correctly rounded operation on the
# mantissa (Clinger's fast path), mantissa * _SCALE_MUL[j] / _SCALE_DIV[j], where one
# of the two factors is 1 and the other exact.  Other exponents, and j = 400 that
# stands for every three-digit one, have no scale (NaN): those cells are read by
# ``float``.
def _scale_tables() -> tuple[np.ndarray, np.ndarray]:
    tens = [float(f"1e{k}") for k in range(23)]
    mul, div = np.full(401, np.nan), np.ones(401)
    for j in range(400):
        k = (j % 100) * (-1 if j // 100 % 2 else 1) - 8
        if abs(k) <= 22:
            mul[j] = (-1.0 if j >= 200 else 1.0) * tens[max(k, 0)]
            div[j] = tens[max(-k, 0)]
    return mul, div


_SCALE_MUL, _SCALE_DIV = _scale_tables()
# e of two exponent digits read as a little-endian pair, and 100 if they are not two
# digits
_EXP_DIGITS = np.full(1 << 16, 100, dtype=np.uint16)
_EXP_DIGITS[(ord("0") + np.arange(100) // 10) | (ord("0") + np.arange(100) % 10) << 8] = (
    np.arange(100))


def _bytes_of(c: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(c * 8, "little"))


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(value, ok)`` of eight ASCII digits in each little-endian word, the first lowest.

    ``ok`` is False where a byte is not a digit.  The value is three
    multiply-and-add steps that join digits into pairs, quads and octets,
    taken in ``words`` itself, beside one scratch array.
    """
    high, zeros = _bytes_of(b"\xf0"), _bytes_of(b"0")
    # a digit's high half is "0"'s, and stays so when 6 is added
    scratch = words + _bytes_of(b"\x06")
    scratch &= high
    ok = scratch == zeros
    np.bitwise_and(words, high, out=scratch)
    ok &= scratch == zeros
    words -= zeros
    np.right_shift(words, 8, out=scratch)
    words *= 10
    words += scratch
    quads = np.uint64(0x000000FF000000FF)
    np.right_shift(words, 16, out=scratch)
    scratch &= quads
    scratch *= np.uint64(1 + (10_000 << 32))
    words &= quads
    words *= np.uint64(100 + (1_000_000 << 32))
    words += scratch
    words >>= 32
    return words, ok


def _decode_rows(block: np.ndarray) -> np.ndarray | None:
    """Values of a padded reader block of canonical rows as ``(rows, 5)`` float64, else None.

    A canonical row is five ``-?D.DDDDDDDDe[+-]DD[D]`` cells joined by ", "
    and ended by "\\n", as :func:`write_record` writes them; ``block`` holds
    whole rows between ``_PAD`` newline bytes.  Each cell is found from its
    "e", and every byte of the block must fit the layout, else the result is
    None.  A cell is a 9-digit integer M times 10**(e - 8); where |e - 8| <= 22
    that is one correctly rounded operation on exact doubles, the value
    ``float`` of the cell returns, -0.0 included.  Other cells are read by
    ``float``.  The positions of the cells' "e" are stepped in place to each
    part of a cell, and every other array of one item per cell is taken
    apart by byte views or in place: each such array counts in its worker
    thread's resident memory.
    """
    p = np.flatnonzero(block == ord("e"))
    n = len(p)
    if n == 0 or n % len(RECORD_COLUMNS):
        return None
    # p steps in place from each "e" over its cell: the byte before the first digit,
    # which is the cell's sign or the byte before the cell; the first digit and ".";
    # the third digit of a three-digit exponent
    p -= 11
    negative = block[p] == ord("-")
    p += 1
    lead = block[p] - ord("0")
    ok = lead < 10
    p += 1
    ok &= block[p] == ord(".")
    p += 13
    three = block[p] - ord("0") < 10
    p -= 4
    # the cells tile the block: each starts where the one before ends, so the next
    # "e" is 16 bytes on, plus a third exponent digit and a sign, less the space
    # that a row's last cell ends without
    gap = np.diff(p)
    gap -= three[:-1]
    gap -= negative[1:]
    gap[len(RECORD_COLUMNS) - 1::len(RECORD_COLUMNS)] += 1
    if not ((gap == 16).all() and p[0] - 10 - negative[0] == _PAD
            and p[-1] + 5 + three[-1] == len(block) - _PAD):
        return None
    del gap
    # the little-endian word at each "e": "e", the exponent's sign and two or three
    # digits, then the separator; and the one before it, the eight digits
    words = np.ndarray((len(block) - 7,), dtype="<u8", buffer=block, strides=(1,))
    tail = words[p].view(np.uint8).reshape(n, 8)
    after = np.where(three, tail[:, 5:7].view("<u2")[:, 0], tail[:, 4:6].view("<u2")[:, 0])
    after = after.reshape(-1, len(RECORD_COLUMNS))
    exp_minus = tail[:, 1] == ord("-")
    ok &= exp_minus | (tail[:, 1] == ord("+"))
    exp_digits = tail[:, 2:4].view("<u2")[:, 0].copy()
    if not (ok.all() and (after[:, :4] == int.from_bytes(b", ", "little")).all()
            and ((after[:, 4] & 0xFF) == ord("\n")).all()):
        return None
    del tail, after
    j = _EXP_DIGITS.take(exp_digits)
    if not (j < 100).all():
        return None
    del exp_digits
    j += exp_minus * np.uint16(100)
    j += negative * np.uint16(200)
    np.copyto(j, 400, where=three)
    # the cells that ``float`` reads, few, by the span of their text
    slow = np.flatnonzero(np.isnan(_SCALE_MUL).take(j)).tolist()
    spans = [(k, e - 10 - negative[k], e + 4 + three[k]) for k, e in zip(slow, p[slow].tolist())]
    p -= 8
    mantissa = words[p]
    del p
    mantissa, ok = _eight_digits(mantissa)
    if not ok.all():
        return None
    values = lead * 1e8
    values += mantissa
    del mantissa, lead, ok
    j = j.astype(np.intp)
    scale = _SCALE_MUL.take(j)
    values *= scale
    np.take(_SCALE_DIV, j, out=scale, mode="clip")
    values /= scale
    del scale, j
    for k, start, end in spans:
        values[k] = float(block[start:end].tobytes())
    return values.reshape(-1, len(RECORD_COLUMNS))


def _text_blocks(fh, free=()):
    """The rest of binary ``fh`` in blocks of whole lines, each between ``_PAD`` newline bytes.

    A block is read into an anonymous memory map from ``free``, where the
    caller puts a block's map (its ``base``) back once nothing reads it, so
    that its pages are faulted in once, not once per block; into a new map
    if there is none or a line needs a larger one.  Maps, not heap blocks:
    heap blocks made and freed one after another in the calling thread while
    the record's arrays are allocated fragmented its heap and left ~15 MB of
    freed pages resident after a 6 h record.  A map is one page longer than a
    block, room for the start of a line carried over from the block before.
    A line ends at "\\r\\n", "\\r" or "\\n", and each becomes "\\n" in its
    block, as canonical rows end.
    """
    pad = b"\n" * _PAD
    rest = b""
    block = b""  # the map of the next block
    while True:
        start = _PAD + len(rest)
        size = start + _READ_BYTES + _PAD
        if len(block) < size:
            block = mmap.mmap(-1, size + mmap.PAGESIZE)
        block[:start] = pad + rest
        got = fh.readinto(memoryview(block)[start:start + _READ_BYTES])
        end = start + got
        # the block ends after its last line end, or at the end of the file; a "\r" that
        # ends the bytes read may begin a "\r\n", and goes with the next block
        cr = block.rfind(b"\r", _PAD, end - 1 if got else end)
        cut = max(block.rfind(b"\n", _PAD, end), cr) + 1 if got else end
        rest = block[max(cut, _PAD):end]
        if cut > _PAD:
            if cr >= 0:  # each line end becomes "\n", as canonical rows end
                lines = block[_PAD:cut].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                cut = _PAD + len(lines)
                block[_PAD:cut] = lines
            block[cut:cut + _PAD] = pad
            yield np.ndarray(cut + _PAD, np.uint8, block)
            block = free.pop() if free else b""
        if not got:
            return


class _Channel:
    """A channel of a record being read: its first value while it is bitwise constant, then all."""

    def __init__(self, capacity: int, constant: bool):
        self.capacity = capacity
        self.first = None
        self.values = None if constant else np.empty(capacity)

    def add(self, start: int, values: np.ndarray) -> None:
        """Take the values of the rows from ``start``; rows past the capacity are dropped."""
        if self.values is None:
            if self.first is None:
                self.first = values[:1].copy()
            if (values.view(np.uint64) == self.first.view(np.uint64)).all():
                return
            self.values = np.empty(self.capacity)
            self.values[:start] = self.first
        stop = min(start + len(values), self.capacity)
        self.values[start:stop] = values[:max(stop - start, 0)]

    def array(self, n: int) -> np.ndarray:
        """The channel of ``n`` samples: a zero-stride view of a constant, else the stored values."""
        return np.broadcast_to(self.first[0], n) if self.values is None else self.values


class _RecordRows:
    """What the reader keeps of a record file's rows, taken block by block in order.

    The channels, the row count, the file line where the next block begins,
    and the first non-finite cell and the first ``time`` or ``magnet_phase``
    cell off the grid of ``grid`` (a record without samples), each as
    ``(data_row, file_line, reason)`` numbered from 1, so the caller can raise
    the errors in the order the checks of the whole file raise them.
    """

    def __init__(self, capacity: int, grid: TimeSeriesRecord, line: int):
        self.grid = grid
        self.count = 0
        self.line = line
        self.non_finite = None
        self.off_grid = None
        self.channels = [_Channel(capacity, constant) for constant in (False, True, True)]

    def add(self, values: np.ndarray, lines) -> None:
        """Take a block's ``values`` and ``lines``, as :func:`_block_rows` returns them."""
        if len(values):
            if self.non_finite is None:
                finite = np.isfinite(values)
                if not finite.all():
                    row, col = divmod(int(np.argmin(finite)), len(RECORD_COLUMNS))
                    self.non_finite = self.at(row, lines[row],
                                              f"non-finite value in column {RECORD_COLUMNS[col]}")
            if self.off_grid is None:
                fault = _off_grid(self.grid, self.count, values)
                if fault is not None:
                    self.off_grid = self.at(fault[0], lines[fault[0]], fault[1])
            for channel, col in zip(self.channels, (1, 2, 3)):
                channel.add(self.count, values[:, col])
        self.count += len(values)
        self.line += lines[-1]

    def at(self, row: int | None, line: int, reason: str) -> tuple[int | None, int, str]:
        """``(data_row, file_line, reason)`` of 0-based ``row`` and ``line`` of the next block."""
        return None if row is None else self.count + row + 1, self.line + line, reason


def _not_utf8(text: bytes) -> str | None:
    """Why a line's bytes are not UTF-8 text, naming the first bad byte; None if they are."""
    try:
        text.decode()
    except UnicodeDecodeError as exc:
        return f"byte 0x{text[exc.start]:02x} is not UTF-8 text"
    return None


def _header(blocks, path) -> tuple[dict[str, str], int, np.ndarray]:
    """The header of a record file, the file line of its first row, and the rest of that block.

    ``blocks`` are the file's :func:`_text_blocks` from its first byte.  The
    header is its leading lines that are blank or start with ``#`` once ASCII
    whitespace is stripped; the walk stops at the first other line, a row, and
    the rest of its block from that line is returned behind ``_PAD`` newline
    bytes, as a block of rows over the same map.  A header line that is not
    UTF-8 text, a repeated key or no row is refused.
    """
    header: dict[str, str] = {}
    lines: dict[str, int] = {}
    lineno = 1
    for block in blocks:
        text, start = block.tobytes(), _PAD
        while start < len(text) - _PAD:
            end = text.index(b"\n", start)
            raw = text[start:end]
            stripped = raw.strip()
            if stripped and not stripped.startswith(b"#"):
                block[start - _PAD:start] = ord("\n")
                rows = np.ndarray(len(block) - start + _PAD, np.uint8, block.base, start - _PAD)
                return header, lineno, rows
            reason = _not_utf8(raw)
            if reason is not None:
                raise ValueError(f"record file {path} line {lineno}: {reason}")
            key, eq, value = stripped[1:].decode().partition("=")
            if eq:
                key = key.strip()
                if key in header:
                    raise ValueError(f"record file {path} line {lineno}: header key {key!r} "
                                     f"repeats line {lines[key]}")
                header[key], lines[key] = value.strip(), lineno
            start, lineno = end + 1, lineno + 1
    raise ValueError(f"record file {path} contains no samples")


def _row_error(path, row: int | None, line: int, reason: str) -> ValueError:
    """The error of a data row and its file line, or of a file line alone if ``row`` is None."""
    where = f"file line {line}" if row is None else f"data row {row} (file line {line})"
    return ValueError(f"record file {path}, {where}: {reason}")


def _number(text: str) -> float | None:
    """``float`` of a stripped cell, or None if that fails or the cell is not ASCII or has "_"."""
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _row_values(text: str) -> list[float]:
    """The 5 values of a row's text, or a ValueError that says why it is not a record row."""
    cells = text.split(",")
    if len(cells) != len(RECORD_COLUMNS):
        raise ValueError(f"{len(cells)} fields, expected {len(RECORD_COLUMNS)}")
    values = [_number(cell.strip()) for cell in cells]
    for name, cell, value in zip(RECORD_COLUMNS, cells, values):
        if value is None:
            raise ValueError(f"{cell.strip()!r} in column {name} is not a number")
    return values


def _block_rows(block: np.ndarray):
    """``(values, lines, fault)`` of the rows of a reader block, by the rules of any record row.

    The text of a line before its ``#`` is a row, whitespace included, and
    each line must be UTF-8 text.  A row has 5 cells split on ",", each of
    which, stripped, is a number by :func:`_number`.  ``values`` are the
    ``(rows, 5)`` values, and ``lines`` the 0-based line within the block of
    each row and, last, of the line after the block.
    At the first line that breaks a rule the result is ``(None, None, (row,
    line, reason))``, ``row`` counted from 0 in the block, None for a line
    that holds no row.  A block of canonical rows is read by the exact
    :func:`_decode_rows`, one row per line.
    """
    values = _decode_rows(block)
    if values is not None:
        return values, range(len(values) + 1), None
    values, lines = [], []
    for line, raw in enumerate(block[_PAD:-_PAD].tobytes().split(b"\n")):
        text = raw.partition(b"#")[0]
        reason = _not_utf8(raw)
        if reason is None and text:
            try:
                values += _row_values(text.decode())
                lines.append(line)
            except ValueError as exc:
                reason = str(exc)
        if reason is not None:
            return None, None, (len(lines) if text else None, line, reason)
    lines.append(line)  # the piece after the last "\n", where a next block begins
    return np.array(values).reshape(-1, len(RECORD_COLUMNS)), lines, None


def read_record(path) -> TimeSeriesRecord:
    """Read a record written by :func:`write_record`.

    The header is the leading lines :func:`_header` reads; ``#`` lines after
    the first data row are comments. A malformed or non-finite row, or one that
    is not UTF-8 text, is named by its 1-based data row and file line, a
    header line that is not UTF-8 text by its file line. A ``config_hash``
    that the header's config does not hash to, a header ``sample_rate_hz``
    more than 1e-8 away from the rate that the config and lock-in layout
    derive, and a ``time`` or ``magnet_phase`` cell off that grid are refused;
    the record keeps neither column, and uses only the derived rate, as a
    synthesized one does. Like a synthesized record, it stores ``I_OmegaPEM``
    as its own array, and ``I0`` and ``I_2OmegaPEM`` as zero-stride views
    when they are constant.

    The file is read once, from its first byte, in the blocks of
    :func:`_text_blocks`: :func:`_header` takes the header from the first of
    them, and the whole header is checked before any row is read.  The rows
    are in blocks that the :func:`_map_ordered` workers decode and that are
    checked in order, so the values and errors do not depend on the number
    of threads; a worker puts a block's map back once it has decoded it.
    :func:`_block_rows` reads every row by one set of rules, and a block of
    canonical rows exactly and fast by :func:`_decode_rows`.  Of a file with
    several faults, the one reported is the one these checks reach first:
    the header, a malformed row, a non-finite cell, ``n_samples``, the grid.
    """
    free = []  # the maps of decoded blocks: workers append, only _text_blocks pops

    def decode(block):
        decoded = _block_rows(block)
        free.append(block.base)
        return decoded

    with open(path, "rb") as fh:
        blocks = _text_blocks(fh, free)
        header, line, first = _header(blocks, path)
        record, n_samples = _header_record(header, path)
        # a data row holds at least 5 one-byte cells, 4 commas and a newline
        capacity = min(n_samples, (os.fstat(fh.fileno()).st_size + 1) // 10)
        rows = _RecordRows(capacity, record, line)
        for values, lines, fault in _map_ordered(decode, chain([first], blocks)):
            if fault is not None:
                raise _row_error(path, *rows.at(*fault))
            rows.add(values, lines)
    if rows.non_finite is not None:
        raise _row_error(path, *rows.non_finite)
    if n_samples != rows.count:
        raise ValueError(
            f"record file {path} has {rows.count} sample rows but its header says "
            f"n_samples = {header['n_samples']}"
        )
    if rows.off_grid is not None:
        raise _row_error(path, *rows.off_grid)
    omega, two_omega, i0 = (channel.array(rows.count) for channel in rows.channels)
    return replace(record, i_omega_pem=omega, i_2omega_pem=two_omega, i0=i0)


def _header_record(header: dict[str, str], path) -> tuple[TimeSeriesRecord, int]:
    """The record a record file's header describes, without samples, and its ``n_samples``.

    The header must hold ``fidelity``, ``source``, an integer ``seed``, a
    number ``sample_rate_hz`` and an integer ``n_samples`` >= 0; a refusal
    names the key.  Then the config must pass
    :meth:`ApparatusConfig.from_key_values`, and the 9-digit
    ``sample_rate_hz`` be within 1e-8 of the rate that the config and the
    lock-in layout derive; past this check only the derived rate is used.
    """
    def value(key: str, parse=str, rule: str = "", ok=lambda got: True):
        if key not in header:
            raise ValueError(f"record file {path}: key {key!r} is missing")
        try:
            if ok(got := parse(header[key])):
                return got
        except ValueError:
            pass
        raise ValueError(f"record file {path}: key {key!r} must be {rule}, got {header[key]!r}")

    fidelity, source = value("fidelity"), value("source")
    seed = value("seed", int, "an integer")
    header_rate = value("sample_rate_hz", float, "a number")
    n_samples = value("n_samples", int, "an integer >= 0", lambda n: n >= 0)
    try:
        config = ApparatusConfig.from_key_values(header)
    except ValueError as exc:
        raise ValueError(f"record file {path}: {exc}") from None
    metadata = {
        k: v
        for k, v in header.items()
        if not k.startswith("config.")
        and k not in ("tool_version", "fidelity", "sample_rate_hz", "n_samples", "source",
                      "seed", "config_hash", "columns")
    }
    none = np.empty(0)
    record = TimeSeriesRecord(i_omega_pem=none, i_2omega_pem=none, i0=none, fidelity=fidelity,
                              config=config, source_description=source, seed=seed,
                              metadata=metadata)
    rate = record.sample_rate_hz
    if not abs(header_rate - rate) <= 1e-8 * rate:
        raise ValueError(
            f"record file {path} has sample_rate_hz = {header['sample_rate_hz']}, but "
            f"its config and lock-in layout give {format_number(rate)}"
        )
    return record, n_samples


def _off_grid(record: TimeSeriesRecord, start: int, values: np.ndarray):
    """``(i, reason)`` of the first ``time`` or ``magnet_phase`` cell off the grid, else None.

    ``values`` are the ``(rows, 5)`` cells of the rows from ``start`` of a
    file of ``record``, and ``i`` is the row's index in ``values``.  A cell
    may differ from the derived value by its ``%.8e`` rounding, 5e-9 of the
    value.  A phase cell is compared with the unwrapped phase 2 pi f t +
    theta0 modulo whole turns, within 1e-8 of that phase plus one turn: the
    header config holds 9 digits too, so a rotation rate or polarizer angle
    with more digits moves the derived phase by up to 5e-9 of the unwrapped
    phase, across the wrap for samples next to 0.
    """
    rate = record.sample_rate_hz
    f = record.config.magnet_rotation_hz
    theta0 = record.config.polarizer_angle_rad
    # the expressions of the derived columns and their tolerances, taken in place
    t = np.arange(start, start + len(values), dtype=np.float64)
    t /= rate
    off_t = np.subtract(values[:, 0], t)
    np.abs(off_t, out=off_t)
    off_t = off_t > 1e-8 * t
    # on the grid, the cell minus the unwrapped phase is a whole number of turns
    turns = np.multiply(2.0 * math.pi * f, t)
    turns += theta0
    np.subtract(values[:, 4], turns, out=turns)
    turns /= 2.0 * math.pi
    miss = np.rint(turns)
    np.subtract(turns, miss, out=miss)
    np.abs(miss, out=miss)
    tolerance = np.multiply(f, t, out=turns)
    tolerance += 1.0
    tolerance += abs(theta0) / (2.0 * math.pi)
    tolerance *= 1e-8
    off = off_t | (miss > tolerance)
    if not off.any():
        return None
    i = int(np.argmax(off))
    t_i, phase_i = record.derived_columns(start + i, start + i + 1)
    col, derived = (0, t_i[0]) if off_t[i] else (4, phase_i[0])
    return i, (f"{RECORD_COLUMNS[col]} = {float(values[i, col])!r}, but the sample "
               f"grid of its config gives {float(derived)!r}")
