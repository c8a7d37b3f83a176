"""Instrument description, noise model, birefringence sources and run records.

The ApparatusConfig mirrors a rotating-magnet Fabry-Perot ellipsometer: a
linearly polarized beam stored in a high-finesse cavity crosses the bores of
rotating dipole magnets, a photoelastic modulator adds a carrier ellipticity,
and the analyser output is demodulated at the PEM frequency and its second
harmonic, then sampled synchronously with the magnet rotation.
"""

from __future__ import annotations

import copy
import hashlib
import io
import math
import mmap
import os
import threading
import warnings
from collections import deque
from dataclasses import dataclass, field, fields, replace
from itertools import count, islice

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

        A ``config.*`` key that names no field is refused, naming the key.
        """
        names = {f.name for f in fields(cls)}
        kwargs = {}
        for key, raw in kv.items():
            if not key.startswith("config."):
                continue
            name = key.removeprefix("config.")
            if name not in names:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[name] = int(raw) if name == "samples_per_revolution" else float(raw)
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


class _RawIntensity:
    """A synthesized record's varying channel, as the function of its samples it is.

    Both fidelities keep one: a full-fidelity record its raw detector
    intensity, ``samples_per_bin`` raw samples per output bin, and a fast
    record its ``I_OmegaPEM``, one sample per bin.  ``fill(c0, c1, out)``
    computes the samples of bins ``c0`` to ``c1`` in place in ``out``.  When
    ``rng`` is not None the samples are also a function of its standard
    normal stream, one draw per sample in sample order: ``out`` then holds
    the draws of those samples on entry.  Every pass over the channel draws
    from a copy of ``rng``, so it computes the same samples, bit for bit, and
    a block is a pure function of its bins and their draws: blocks may be
    filled in any order, on any thread.
    """

    def __init__(self, fill, n_bins: int, samples_per_bin: int, rng: np.random.Generator | None):
        self.fill = fill
        self.n_bins = n_bins
        self.samples_per_bin = samples_per_bin
        self.rng = rng

    def __len__(self) -> int:
        return self.n_bins * self.samples_per_bin

    def _draw(self):
        """``draw(out)``: fills ``out`` with the next draws of a new pass (None: no stream)."""
        if self.rng is None:
            return None
        rng = copy.deepcopy(self.rng)
        return lambda out: rng.standard_normal(out=out)

    def chunks(self, stops, out: np.ndarray | None = None):
        """Yield the samples of the bins from 0 to each of ``stops`` in turn, in order.

        The samples of bins ``c0`` to ``c1`` are computed into
        ``out[c0 * samples_per_bin:c1 * samples_per_bin]`` when ``out`` is
        given, and otherwise into a chunk-sized buffer that the caller may use
        until it asks for the next chunk.  ``fill`` runs in the
        calling thread.  With more than one chunk and more than one CPU, a
        helper thread draws the stream of the next chunks meanwhile
        (:func:`_drawn_ahead`); otherwise each chunk's share is drawn just
        before it is filled.
        """
        spb = self.samples_per_bin
        bounds = list(zip([0, *stops[:-1]], stops))
        draw = self._draw()
        threaded = draw is not None and len(bounds) > 1 and _chunk_workers() > 1
        ahead = _DRAWN_AHEAD if threaded else 0
        if out is None:
            ring = [np.empty(max(c1 - c0 for c0, c1 in bounds) * spb) for _ in range(ahead + 1)]
            targets = [ring[i % len(ring)][:(c1 - c0) * spb] for i, (c0, c1) in enumerate(bounds)]
        else:
            targets = [out[c0 * spb:c1 * spb] for c0, c1 in bounds]
        if ahead:
            targets = _drawn_ahead(draw, targets, ahead)
        elif draw is not None:
            targets = map(draw, targets)
        for samples, (c0, c1) in zip(targets, bounds):
            self.fill(c0, c1, samples)
            yield samples

    def map_rows(self, func):
        """Run ``func(c0, c1, rows)`` over the blocks of :func:`_map_chunks`; yield each chunk's bins.

        ``rows`` is the ``(c1 - c0, samples_per_bin)`` block of samples,
        computed on a worker thread into the array its draws were drawn into,
        or, without a stream, into a buffer of the worker thread that its next
        block overwrites.  The draws are taken a block at a time as
        :func:`_map_chunks` takes the block, so this holds the draws of the
        blocks in flight besides the buffers.
        """
        spb = self.samples_per_bin
        buffers = threading.local()
        draw = self._draw()

        def block(c0: int, c1: int, drawn: np.ndarray | None) -> None:
            raw = drawn
            if raw is None:
                n = (c1 - c0) * spb
                raw = getattr(buffers, "raw", None)
                if raw is None or len(raw) < n:
                    raw = buffers.raw = np.empty(n)
                raw = raw[:n]
            self.fill(c0, c1, raw)
            func(c0, c1, raw.reshape(c1 - c0, spb))

        return _map_chunks(block, self.n_bins, spb,
                           None if draw is None else lambda n: draw(np.empty(n)))

    def array(self) -> np.ndarray:
        """The channel as one array, computed in place in it, a block at a time.

        A fast channel's blocks hold ``_BLOCK_SAMPLES`` samples, a full one's
        are those of :func:`_map_chunks`, which hold at most ``_CHUNK_BINS``
        bins.  The working set besides the array is one block's.
        """
        out = np.empty(len(self))
        step = max(1, _BLOCK_SAMPLES // self.samples_per_bin)
        if self.samples_per_bin > 1:
            step = min(step, _CHUNK_BINS)
        for _ in self.chunks([*range(step, self.n_bins, step), self.n_bins], out):
            pass
        return out


class _Materialised:
    """``TimeSeriesRecord.i_omega_pem``: the stored array, built at the first read if needed.

    A record stores an array, or, if synthesized, a :class:`_RawIntensity`,
    which the first read turns into the array it computes and stores in its
    place.  Reading it on the class raises ``AttributeError``, so the field
    has no default.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            raise AttributeError(self.name)
        channel = vars(record)[self.name]
        if isinstance(channel, _RawIntensity):
            channel = vars(record)[self.name] = channel.array()
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
    function of its samples that computes it and the state of the generator
    it draws from (a ``_RawIntensity``).  The analysis reduces that channel
    chunk by chunk as it is computed, so the array never exists; reading
    ``i_omega_pem`` builds it, exactly as a whole-record synthesis would, and
    the record keeps it from then on.  ``len`` does not build it.
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


# Output bins per chunk of full-fidelity synthesis and lock-in, the unit of work
# of one worker thread: 64 bins are ~0.53 M raw samples at the default PEM grid.
_CHUNK_BINS = 64
# Most worker threads of :func:`_map_ordered`; each running item holds its own working set.
_MAX_CHUNK_WORKERS = 8
# Items per worker thread that :func:`_map_ordered` takes ahead of the result it yields.
_AHEAD_PER_WORKER = 2
# Chunks whose draws :func:`_drawn_ahead` takes ahead of the chunk its caller holds.
_DRAWN_AHEAD = 2
# Raw samples per block, the unit in which a chunk is computed (in whole bins).
# A worker's temporaries are a few block-sized arrays of ~0.5 MB, which stay in
# its core's cache and leave little behind in its thread's malloc arena: with
# chunk-sized ones (4 MB), two workers raised the peak RSS of a 64-revolution
# run by ~25 MB, and one-bin blocks (8336 samples) lose more to per-call
# overhead than they save.
_BLOCK_SAMPLES = 1 << 16


def _chunk_workers() -> int:
    """Worker threads of :func:`_map_ordered`: one per CPU this process may run on, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_CHUNK_WORKERS)


def _map_ordered(func, items):
    """Yield ``func(item)`` for each of ``items`` in order, computed on worker threads.

    The items run on up to :func:`_chunk_workers` threads, which overlap
    because numpy releases the interpreter lock inside its array loops.  At
    most ``_AHEAD_PER_WORKER`` items per thread are taken from ``items`` ahead
    of the result being yielded, so a lazy ``items`` is read only that far
    ahead, in the calling thread, and the results waiting for the caller stay
    bounded.  ``func`` must not depend on the order in which items run.
    """
    workers = _chunk_workers()
    if workers <= 1:
        yield from map(func, items)
        return
    # imported here: it costs every process that imports vmbsim ~8 ms otherwise
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    with ThreadPoolExecutor(workers) as pool:
        pending = deque(pool.submit(func, item)
                        for item in islice(items, _AHEAD_PER_WORKER * workers))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(func, item) for item in islice(items, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()


def _map_chunks(func, n_bins: int, samples_per_bin: int, draw=None):
    """Run ``func(c0, c1, drawn)`` over ``n_bins`` output bins; yield each chunk's ``(b0, b1)`` in order.

    The bins are cut into chunks of ``_CHUNK_BINS``, and each chunk into
    blocks of whole bins ``c0`` to ``c1`` of about ``_BLOCK_SAMPLES`` raw
    samples (``samples_per_bin`` each); ``func`` computes one block.  The
    chunks run through :func:`_map_ordered`, so a chunk's bins are yielded
    once it is done and the caller can finish the chunks in order while later
    ones are still running.  ``func`` must not depend on the order in which
    blocks run.  ``draw(n)``, if given, is called in the calling thread for
    each chunk, in chunk order, with the chunk's number of raw samples, and
    ``drawn`` is the block's slice of what it returned; else ``drawn`` is None.
    A chunk that draws is one block, so what is drawn ahead is the draws of
    the blocks in flight, not of whole chunks.
    """
    step = max(1, _BLOCK_SAMPLES // samples_per_bin)
    per_chunk = _CHUNK_BINS if draw is None else min(step, _CHUNK_BINS)

    def chunks():
        for b0 in range(0, n_bins, per_chunk):
            b1 = min(b0 + per_chunk, n_bins)
            yield b0, b1, None if draw is None else draw((b1 - b0) * samples_per_bin)

    def chunk(item) -> tuple[int, int]:
        b0, b1, drawn = item
        for c0 in range(b0, b1, step):
            c1 = min(c0 + step, b1)
            func(c0, c1, None if drawn is None
                 else drawn[(c0 - b0) * samples_per_bin:(c1 - b0) * samples_per_bin])
        return b0, b1

    return _map_ordered(chunk, chunks())


def _map_raw_rows(func, record: TimeSeriesRecord, samples_per_bin: int):
    """Run ``func(c0, c1, rows)`` over the raw channel of a full-fidelity record; yield chunks' bins.

    ``rows`` is the ``(c1 - c0, samples_per_bin)`` block of the raw samples
    of output bins ``c0`` to ``c1``, in the blocks and chunks of
    :func:`_map_chunks`: a view of a stored channel, or, for a channel kept
    as a ``_RawIntensity``, the block computed on the worker thread
    (:meth:`_RawIntensity.map_rows`), so that no raw array exists.
    """
    channel = _varying_channel(record)
    if isinstance(channel, _RawIntensity):
        if channel.samples_per_bin != samples_per_bin:
            raise ValueError(f"samples_per_output_bin = {samples_per_bin} is not the "
                             f"{channel.samples_per_bin} the record was synthesized with")
        return channel.map_rows(func)
    rows = channel.reshape(-1, samples_per_bin)
    return _map_chunks(lambda c0, c1, _: func(c0, c1, rows[c0:c1]), len(rows), samples_per_bin)


def _varying_channel(record: TimeSeriesRecord):
    """``i_omega_pem`` as the record keeps it: an array, or a ``_RawIntensity`` left unbuilt."""
    return vars(record)["i_omega_pem"]


def _spans(channel, stops):
    """Yield the samples of a fast record's channel from 0 to each of ``stops`` in turn.

    Views of a stored array, or, for a ``_RawIntensity`` (one sample per
    bin), the samples it computes (:meth:`_RawIntensity.chunks`), which the
    caller may use until it asks for the next span.
    """
    if isinstance(channel, _RawIntensity):
        return channel.chunks(stops)
    return (channel[start:stop] for start, stop in zip([0, *stops[:-1]], stops))


def _drawn_ahead(draw, targets: list, ahead: int):
    """Yield each of ``targets`` in order, once ``draw(target)`` has filled it on a helper thread.

    One helper thread draws the targets in order, at most ``ahead`` beyond
    the one the caller holds; the caller holds a target until it asks for the
    next.  So the caller's work on one target overlaps the draws of the next,
    and ``targets`` may reuse ``ahead + 1`` buffers in turn.  A draw that
    raises raises in the caller.
    """
    drawn = deque()
    ready = threading.Semaphore(0)
    free = threading.Semaphore(ahead + 1)
    stop = threading.Event()

    def helper() -> None:
        try:
            for target in targets:
                free.acquire()
                if stop.is_set():
                    return
                draw(target)
                drawn.append(target)
                ready.release()
        except BaseException as exc:  # raised in the caller
            drawn.append(exc)
            ready.release()

    # a daemon, so that a pass its caller abandons without closing cannot hold up the exit
    thread = threading.Thread(target=helper, name="vmbsim-draw-ahead", daemon=True)
    thread.start()
    try:
        for _ in targets:
            ready.acquire()
            target = drawn.popleft()
            if isinstance(target, BaseException):
                raise target
            yield target
            free.release()
    finally:
        stop.set()
        free.release()
        thread.join()


# Rows formatted per block, the writer's unit of work on one worker thread (~0.65 MB
# of text), and bytes read per block, completed to a whole row, the reader's (~6.6 k
# rows).  Larger blocks ran faster, but each worker thread's malloc arena keeps the
# block temporaries it held at its peak, which counts in the process's resident memory.
_WRITE_ROWS = 1 << 13
_READ_BYTES = 1 << 19
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


def _cell_words(values: np.ndarray, separator: np.uint64) -> np.ndarray:
    """The three words of each value's ``_FMT`` text and ``separator``, shape ``values.shape + (3,)``.

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
    ``_FMT`` itself.
    """
    a = np.abs(values)
    normal = (a >= 1e-290) & (a < 1e290)
    a = np.where(normal, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    scale = _POW10[_P0 + 8 - e]
    s = a * scale
    m = np.rint(s)
    off = np.abs(s - m)
    exact_scale = (e >= -14) & (e <= 8)
    tie = exact_scale & (off == 0.5)
    if tie.any():
        err = _product_error(a[tie], scale[tie], s[tie])
        m[tie] = np.where(err == 0.0, m[tie], s[tie] + np.copysign(0.5, err))
    exact = normal & (s >= 1e8) & (m < 1e9) & (exact_scale | (off <= 0.5 - 1e-5))
    # exact zeros keep m = 0 and e = 0, "0.00000000e+00" signed by signbit
    m = np.where(exact, m, 0.0).astype(np.uint64)
    # m // 10**8 and then // 10**4 as exact multiply-and-shift steps, for m < 10**9
    lead = (m * np.uint64(720_575_941)) >> 56
    m -= lead * np.uint64(100_000_000)
    hi = (m * np.uint64(109_951_163)) >> 40
    lo = m - hi * np.uint64(10_000)
    words = np.empty(values.shape + (3,), dtype="<u8")
    words[..., 0] = _LEAD.take(lead + np.uint64(10) * np.signbit(values))
    words[..., 1] = _DIGITS4.take(hi) | (_DIGITS4.take(lo) << 32)
    words[..., 2] = _EXP.take(_P0 + np.where(exact, e, 0)) | separator
    slow = ~exact & (values != 0.0)
    if slow.any():
        text = np.array([_FMT % v for v in values[slow].tolist()], dtype=f"S{_FIELD}")
        words[slow, :2] = text.view("<u8").reshape(-1, 2)
        words[slow, 2] = separator
    return words


def _format_rows(columns) -> bytes:
    """``np.savetxt(fh, np.column_stack(columns), fmt=_FMT, delimiter=", ")`` text of float columns.

    ``columns`` is a sequence of equal-length 1-D arrays, such as the
    transpose of a ``(rows, columns)`` array.  A zero-stride column, one
    value repeated, is formatted once.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    words = np.empty((len(columns[0]), len(columns), 3), dtype="<u8")
    for j, column in enumerate(columns):
        separator = _SEP[0] if j < len(columns) - 1 else _SEP[1]
        if column.strides == (0,):
            column = column[:1]
        words[:, j] = _cell_words(column, separator)
    text = words.view(np.uint8).reshape(-1)
    return text[text != 0].tobytes()


def write_record(record: TimeSeriesRecord, path) -> None:
    """Serialize to the columnar text format (header block, then fixed columns).

    Blocks of rows are formatted by :func:`_map_ordered` on worker threads
    and written in order, so the bytes do not depend on the number of threads.
    """
    header = "".join(
        f"# {key} = {format_number(value) if isinstance(value, float) else str(value)}\n"
        for key, value in record.header_items()
    )
    header += "# columns = " + ", ".join(RECORD_COLUMNS) + "\n"
    n = len(record)
    omega = record.i_omega_pem  # built here once, if the record keeps a function of its bins

    def block(start: int) -> bytes:
        stop = min(start + _WRITE_ROWS, n)
        t, phase = record.derived_columns(start, stop)
        return _format_rows((t, omega[start:stop], record.i_2omega_pem[start:stop],
                             record.i0[start:stop], phase))

    with open(path, "wb") as fh:
        fh.write(header.encode())
        for text in _map_ordered(block, range(0, n, _WRITE_ROWS)):
            fh.write(text)


# Newline bytes on either side of a reader block, which the decoder's loads of the
# 24 bytes from 16 before each "e" reach into.
_PAD = 24
# 10**(e - 8) for a cell of exponent e, |e - 8| <= 22, in one correctly rounded operation
# (Clinger's fast path): mantissa * _SCALE_MUL[i] / _SCALE_DIV[i] with i = e - 8 + 22,
# plus 45 for a negative cell, where one of the two factors is 1 and the other exact.
_TENS = [float(f"1e{k}") for k in range(23)]
_SCALE_MUL = np.array([1.0] * 22 + _TENS + [-1.0] * 22 + [-t for t in _TENS])
_SCALE_DIV = np.array(_TENS[:0:-1] + [1.0] * 23)


def _bytes_of(c: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(c * 8, "little"))


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(value, ok)`` of eight ASCII digits in each little-endian word, the first lowest.

    ``ok`` is False where a byte is not a digit.  The value is three
    multiply-and-add steps that join digits into pairs, quads and octets.
    """
    high = _bytes_of(b"\xf0")
    ok = ((words & high) | (((words + _bytes_of(b"\x06")) & high) >> 4)) == _bytes_of(b"\x33")
    d = words - _bytes_of(b"0")
    d = d * 10 + (d >> 8)
    quads = np.uint64(0x000000FF000000FF)
    d = ((d & quads) * np.uint64(100 + (1_000_000 << 32))
         + ((d >> 16) & quads) * np.uint64(1 + (10_000 << 32))) >> 32
    return d, ok


def _decode_rows(block: np.ndarray) -> np.ndarray | None:
    """Values of a padded reader block of canonical rows as ``(rows, 5)`` float64, else None.

    A canonical row is five ``-?D.DDDDDDDDe[+-]DD[D]`` cells joined by ", "
    and ended by "\\n", as :func:`write_record` writes them; ``block`` holds
    whole rows between ``_PAD`` newline bytes.  Each cell is found from its
    "e", and every byte of the block must fit the layout, else the result is
    None.  A cell is a 9-digit integer M times 10**(e - 8); where |e - 8| <= 22
    that is one correctly rounded operation on exact doubles, the value
    strtod (and so ``np.loadtxt``) returns, -0.0 included.  Other cells are
    read by ``float``.
    """
    p = np.flatnonzero(block == ord("e"))
    n = len(p)
    if n == 0 or n % len(RECORD_COLUMNS):
        return None
    # the 24 bytes from 16 before each "e", as three words: the byte before the
    # cell, the first digit and "." end the first; eight digits; then "e", the
    # exponent's sign and digits and the separator
    cells = np.ndarray((len(block) - 23,), dtype="V24", buffer=block, strides=(1,))
    head, digits, tail = cells[p - 16].view("<u8").reshape(n, 3).T.copy()
    mantissa, ok = _eight_digits(digits)
    # temporaries go as soon as they are used: a worker thread's malloc arena
    # keeps the peak of its block temporaries resident (~6.8 blocks of text)
    del digits
    negative = ((head >> 40) & 0xFF) == ord("-")
    # the first digit and ".": a digit value below 10 only if both bytes are right
    lead = (head >> 48) - int.from_bytes(b"0.", "little")
    del head
    ok &= lead < 10
    exp_sign = (tail >> 8) & 0xFF
    ok &= (exp_sign == ord("+")) | (exp_sign == ord("-"))
    e1 = ((tail >> 16) & 0xFF) - 48
    e2 = ((tail >> 24) & 0xFF) - 48
    e3 = ((tail >> 32) & 0xFF) - 48
    ok &= (e1 < 10) & (e2 < 10)
    three = e3 < 10
    separator = ((tail >> (32 + (three.astype(np.uint64) << 3))) & 0xFFFF).reshape(-1, 5)
    del tail
    # the cells tile the block: each starts where the one before ends
    start = p - 10 - negative
    end = p + 6 + three
    end[4::5] -= 1
    if not (ok.all() and (separator[:, :4] == int.from_bytes(b", ", "little")).all()
            and ((separator[:, 4] & 0xFF) == ord("\n")).all()
            and start[0] == _PAD and end[-1] == len(block) - _PAD
            and np.array_equal(start[1:], end[:-1])):
        return None
    del ok, separator, end
    mantissa += lead * 100_000_000
    values = mantissa.astype(np.float64)
    del mantissa, lead
    e = e1 * 10 + e2
    e[three] = e[three] * 10 + e3[three]
    # the scale index e - 8 + 22; below 0 it wraps past the end of the tables
    i = np.where(exp_sign == ord("-"), 14 - e, e + 14)
    slow = i > 44
    i[slow] = 22
    values *= _SCALE_MUL[i + np.uint64(45) * negative]
    values /= _SCALE_DIV[i]
    for j in np.flatnonzero(slow).tolist():
        values[j] = float(block[start[j]:p[j] + 4 + three[j]].tobytes())
    return values.reshape(-1, len(RECORD_COLUMNS))


def _text_blocks(fh):
    """The rest of binary ``fh`` in blocks of whole lines, each between ``_PAD`` newline bytes.

    Blocks are read into a fixed ring of anonymous memory maps, one per block
    that :func:`_map_ordered` can hold at once: the ``_AHEAD_PER_WORKER``
    blocks per worker it reads ahead, the block its caller holds and the one
    being read.  So a block is overwritten only once nothing reads it, and
    each map's pages are faulted in once, not once per block.  Maps, not heap
    blocks: heap blocks made and freed one after another in the calling
    thread while the record's arrays are allocated fragmented its heap and
    left ~15 MB of freed pages resident after a 6 h record.  A map is one
    page longer than a block, room for the start of a line carried over from
    the block before; a longer line gets a larger map.
    """
    pad = b"\n" * _PAD
    rest = b""
    ring = [b""] * (_AHEAD_PER_WORKER * _chunk_workers() + 2)
    for i in count():
        start = _PAD + len(rest)
        size = start + _READ_BYTES + _PAD
        block = ring[i % len(ring)]
        if len(block) < size:
            block = ring[i % len(ring)] = mmap.mmap(-1, size + mmap.PAGESIZE)
        block[:start] = pad + rest
        got = fh.readinto(memoryview(block)[start:start + _READ_BYTES])
        end = start + got
        # the block ends after its last newline, or at the end of the file
        cut = block.rfind(b"\n", _PAD, end) + 1 if got else end
        rest = block[max(cut, _PAD):end]
        if cut > _PAD:
            block[cut:cut + _PAD] = pad
            yield np.frombuffer(block, dtype=np.uint8, count=cut + _PAD)
        if not got:
            return


def _skip_header(fh) -> None:
    """Move binary ``fh`` past its leading ``#`` and blank lines.

    It stops early at a line with a "\\r", which text mode would split:
    every line skipped is one the text header and ``np.loadtxt`` skip too.
    """
    while True:
        start = fh.tell()
        line = fh.readline()
        text = line.strip()
        if not line or (text and not text.startswith(b"#")) or b"\r" in line:
            fh.seek(start)
            return


def _loadtxt_block(block: np.ndarray) -> np.ndarray | None:
    """``np.loadtxt`` of the rows of a reader block, as ``(rows, columns)``; None if it refuses them.

    This reads any block the canonical decoder does not, with the text
    decoding and newline handling of ``np.loadtxt`` on the whole file.
    """
    text = io.TextIOWrapper(io.BytesIO(block[_PAD:-_PAD].tobytes()))
    with warnings.catch_warnings():
        # a block of comment lines holds no rows
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        try:
            return np.loadtxt(text, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            return None


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

    The channels, the row count and width, and the first non-finite cell and
    the first ``time`` or ``magnet_phase`` cell off the grid of ``grid`` (a
    record without samples, or None when its header is unusable), each as
    ``(row, reason)``, so the caller can raise the errors in the order the
    checks of the whole file raise them.
    """

    def __init__(self, capacity: int, grid: TimeSeriesRecord | None):
        self.grid = grid
        self.count = 0
        self.width = None
        self.non_finite = None
        self.off_grid = None
        self.channels = [_Channel(capacity, constant) for constant in (False, True, True)]

    def add(self, values: np.ndarray) -> bool:
        """Take a block's ``(rows, columns)`` values; False if its rows are of another width."""
        if not len(values):
            return True
        if self.width is None:
            self.width = values.shape[1]
        if values.shape[1] != self.width:
            return False
        if self.width == len(RECORD_COLUMNS):
            if self.non_finite is None:
                finite = np.isfinite(values)
                if not finite.all():
                    row, col = divmod(int(np.argmin(finite)), self.width)
                    self.non_finite = (self.count + row,
                                       f"non-finite value in column {RECORD_COLUMNS[col]}")
            if self.off_grid is None and self.grid is not None:
                self.off_grid = _off_grid(self.grid, self.count, values)
            for channel, col in zip(self.channels, (1, 2, 3)):
                channel.add(self.count, values[:, col])
        self.count += len(values)
        return True


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
    """:func:`_row_error` for the sample at 0-based ``index`` of the data rows."""
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


def _parse_error(path) -> ValueError:
    """The error for a record file whose rows ``np.loadtxt`` refuses.

    It names the first malformed row, so the message does not depend on
    numpy's wording; failing that, it is numpy's message for the whole file.
    """
    error = _malformed_row(path)
    if error is None:
        try:
            np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            error = ValueError(f"record file {path}: {exc}")
    return error


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

    The rows are read in blocks, decoded on worker threads by
    :func:`_map_ordered` and checked in order, so the values and errors do not
    depend on the number of threads.  Blocks of canonical rows are decoded
    exactly by :func:`_decode_rows`, any other block by ``np.loadtxt``; of a
    file with several faults, the one reported is the one the checks of the
    whole file reach first: a malformed row, the width, a non-finite cell,
    ``n_samples``, ``config_hash``, ``sample_rate_hz``, the grid.
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
        record, header_error = _header_record(header, path), None
    except (KeyError, ValueError) as exc:
        record, header_error = None, exc  # raised after the checks of the rows, as before
    try:
        expected = int(header["n_samples"])
    except (KeyError, ValueError):
        expected = 0
    with open(path, "rb") as fh:
        _skip_header(fh)
        # a data row holds at least 5 one-byte cells, 4 commas and a newline
        capacity = max(0, min(expected, (os.fstat(fh.fileno()).st_size - fh.tell() + 1) // 10))
        rows = _RecordRows(capacity, record)
        for block, values in _map_ordered(lambda b: (b, _decode_rows(b)), _text_blocks(fh)):
            if values is None:
                values = _loadtxt_block(block)
            if values is None or not rows.add(values):
                raise _parse_error(path)
    if rows.width != len(RECORD_COLUMNS):
        raise ValueError(
            f"record file {path} has {rows.width} columns, expected {len(RECORD_COLUMNS)}"
        )
    if rows.non_finite is not None:
        raise _sample_error(path, *rows.non_finite)
    if int(header["n_samples"]) != rows.count:
        raise ValueError(
            f"record file {path} has {rows.count} sample rows but its header says "
            f"n_samples = {header['n_samples']}"
        )
    if header_error is not None:
        raise header_error
    if rows.off_grid is not None:
        raise _sample_error(path, *rows.off_grid)
    omega, two_omega, i0 = (channel.array(rows.count) for channel in rows.channels)
    return replace(record, i_omega_pem=omega, i_2omega_pem=two_omega, i0=i0)


def _header_record(header: dict[str, str], path) -> TimeSeriesRecord:
    """The record a record file's header describes, without samples, once its checks pass.

    The ``config_hash`` must be the hash of the header's config, and the
    9-digit ``sample_rate_hz`` within 1e-8 of the rate that the config and
    the lock-in layout derive; past this check only the derived rate is used.
    """
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
    none = np.empty(0)
    record = TimeSeriesRecord(
        i_omega_pem=none,
        i_2omega_pem=none,
        i0=none,
        fidelity=header["fidelity"],
        config=config,
        source_description=header.get("source", "unknown"),
        seed=int(header.get("seed", 0)),
        metadata=metadata,
    )
    rate = record.sample_rate_hz
    if not abs(float(header["sample_rate_hz"]) - rate) <= 1e-8 * rate:
        raise ValueError(
            f"record file {path} has sample_rate_hz = {header['sample_rate_hz']}, but "
            f"its config and lock-in layout give {format_number(rate)}"
        )
    return record


def _off_grid(record: TimeSeriesRecord, start: int, values: np.ndarray):
    """``(row, reason)`` of the first ``time`` or ``magnet_phase`` cell off the grid, else None.

    ``values`` are the ``(rows, 5)`` cells of the rows from ``start`` of a
    file of ``record``.  A cell may differ from the derived value by its
    ``%.8e`` rounding, 5e-9 of the value.  A phase cell is compared with the
    unwrapped phase 2 pi f t + theta0 modulo whole turns, within 1e-8 of that
    phase plus one turn: the header config holds 9 digits too, so a rotation
    rate or polarizer angle with more digits moves the derived phase by up to
    5e-9 of the unwrapped phase, across the wrap for samples next to 0.
    """
    rate = record.sample_rate_hz
    f = record.config.magnet_rotation_hz
    theta0 = record.config.polarizer_angle_rad
    t = np.arange(start, start + len(values)) / rate
    off_t = np.abs(values[:, 0] - t) > 1e-8 * t
    # on the grid, the cell minus the unwrapped phase is a whole number of turns
    turns = (values[:, 4] - (2.0 * math.pi * f * t + theta0)) / (2.0 * math.pi)
    tolerance = 1e-8 * (f * t + 1.0 + abs(theta0) / (2.0 * math.pi))
    off = off_t | (np.abs(turns - np.rint(turns)) > tolerance)
    if not off.any():
        return None
    i = int(np.argmax(off))
    t_i, phase_i = record.derived_columns(start + i, start + i + 1)
    col, derived = (0, t_i[0]) if off_t[i] else (4, phase_i[0])
    return start + i, (f"{RECORD_COLUMNS[col]} = {float(values[i, col])!r}, but the sample "
                       f"grid of its config gives {float(derived)!r}")


def truncated(record: TimeSeriesRecord, n: int) -> TimeSeriesRecord:
    """First n samples of a record (block-aligned truncation helper)."""
    return replace(
        record,
        i_omega_pem=record.i_omega_pem[:n],
        i_2omega_pem=record.i_2omega_pem[:n],
        i0=record.i0[:n],
    )
