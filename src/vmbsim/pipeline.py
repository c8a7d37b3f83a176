"""Analysis chain: demodulation, block FFTs, Rayleigh statistics and projections.

The run-level procedure mirrors the acquisition analysis: the ellipticity
series is cut into blocks of (by default) 8192 samples = 256 revolutions, each
block is Fourier transformed with a rectangular window (the sampling is
synchronous, so the signal tone sits exactly on a bin), the noise floor around
the signal bin is summarized by the Rayleigh-amplitude relation
<rho> = sigma*sqrt(pi/2), and the per-block complex amplitudes at twice the
magnet rotation frequency are combined by an inverse-variance vector average.
The same vector average combines runs.

Memory: :func:`analyze_record`, ``vmbsim analyze`` and ``calibrate`` run one
pass (``_analyze``) over the record, in chunks of whole blocks of about
``apparatus._BLOCK_SAMPLES`` samples.  Each chunk is divided by the lock-in
normalization, Fourier transformed and reduced to its blocks' 2*Omega_Mag
amplitudes, floored Rayleigh sigmas and leakage tests (every block is tested,
a record warns once) while it is in cache.  No analysis holds the ellipticity
series; ``vmbsim analyze`` keeps the spectra for the averaged spectrum it
writes.  A stored record is walked in views of it; a synthesized fast record
keeps no array, and its chunks are computed in turn while a helper thread
draws the noise of the next ones.  :func:`block_fft` and
:func:`with_rayleigh_sigma`, which the one pass equals bit for bit, run the
same chunk pass.

FFT normalization: one-sided amplitude spectrum; a real tone of ellipticity
amplitude A centered on a bin reports |c| = A.  A tone A*sin(w t + phi0)
sampled from t = 0 reports complex phase phi0 - pi/2, so for a rotating-field
signal psi*sin(2 theta(t)) with theta(0) = theta0 the positive-birefringence
phase is 2*theta0 - pi/2 ("analytic convention").
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .apparatus import (
    ApparatusConfig,
    GasSource,
    TimeSeriesRecord,
    _BLOCK_SAMPLES,
    _CHUNK_BINS,
    _blocks,
    _varying_channel,
    _walk,
    parse_source,
)

DEFAULT_BLOCK_SIZE = 8192
DEFAULT_NOISE_HALFWIDTH = 64
RAYLEIGH_MEAN_FACTOR = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class BlockSpectra:
    """One-sided amplitude spectra of consecutive analysis blocks, one row per block."""

    bins: np.ndarray                    # complex, (n_blocks, block_size//2 + 1)
    bin_of_2omega: int
    revs_per_block: int
    sample_rate_hz: float
    rayleigh_sigma: np.ndarray | None = None   # (n_blocks,) per-quadrature noise sigma

    def __len__(self) -> int:
        return len(self.bins)

    @property
    def block_size(self) -> int:
        return 2 * (self.bins.shape[1] - 1)

    @property
    def amplitude_2omega(self) -> np.ndarray:
        return self.bins[:, self.bin_of_2omega]

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.arange(self.bins.shape[1]) * self.sample_rate_hz / self.block_size


@dataclass(frozen=True)
class CalibrationPhase:
    """Physical-axis phase fixed by a Cotton-Mouton calibration.

    ``phase_rad`` points along positive birefringence (same sign as helium);
    the axis itself is only defined mod pi, exposed as ``axis_phase``.
    """

    phase_rad: float
    source_gas: str = ""
    fit_slope: float = float("nan")          # Delta n_u of the gas, T^-2 atm^-1
    fit_slope_sigma: float = float("nan")
    fit_intercept: float = float("nan")
    fit_intercept_sigma: float = float("nan")
    per_run_phases: tuple[float, ...] = ()   # logged for drift diagnostics

    @property
    def axis_phase(self) -> float:
        return self.phase_rad % math.pi


def analytic_calibration(config: ApparatusConfig) -> CalibrationPhase:
    """Phase a positive birefringence shows for synthetic records (2*theta0 - pi/2)."""
    return CalibrationPhase(
        phase_rad=(2.0 * config.polarizer_angle_rad - math.pi / 2.0) % (2.0 * math.pi),
        source_gas="analytic",
    )


@dataclass(frozen=True)
class RunEstimate:
    """What one run measured: complex 2*Omega_Mag amplitude with Rayleigh sigma.

    The estimate is calibration-free; project ``deltan_over_b2`` (or the
    ellipticity amplitude) onto a physical axis with :func:`project_physical`
    where a number is reported.
    """

    complex_amplitude_2omega: complex   # ellipticity units
    sigma: float                        # per-quadrature, ellipticity units
    deltan_over_b2: complex             # T^-2, same phase as the ellipticity amplitude
    deltan_over_b2_sigma: float
    duration_s: float
    n_blocks: int
    config: ApparatusConfig
    metadata: dict

    @property
    def hours(self) -> float:
        return self.duration_s / 3600.0

    @property
    def snr(self) -> float:
        return abs(self.complex_amplitude_2omega) / self.sigma if self.sigma > 0 else math.inf


# ---------------------------------------------------------------------------
# Demodulation
# ---------------------------------------------------------------------------

def demodulate(record: TimeSeriesRecord) -> np.ndarray:
    """Ellipticity series psi(t) = I_OmegaPEM / sqrt(8 I0 I_2OmegaPEM(DC)).

    Full-fidelity records are first passed through the digital lock-in at the
    PEM frequency and its second harmonic (boxcar over an integer number of
    carrier cycles per output sample, peak-amplitude gain convention).
    """
    series, root_norm = _lock_in(record)
    if not isinstance(series, np.ndarray):
        series = record.i_omega_pem  # a synthesized fast record builds its channel and keeps it
    return series / root_norm


def _lock_in(record: TimeSeriesRecord):
    """``(I_OmegaPEM on the output grid, sqrt(8 I0 I_2OmegaPEM(DC)))`` of a record.

    :func:`demodulate` divides the first by the second; the analysis divides
    it chunk by chunk.  A fast record's channel is returned as the record
    keeps it: an array, or, if synthesized, the function of its samples that
    the analysis computes chunk by chunk (see :func:`_block_spectra`).
    """
    if record.fidelity == "fast":
        series, dc_2omega = _varying_channel(record), float(np.mean(record.i_2omega_pem))
    elif record.fidelity == "full":
        series, dc_2omega = _digital_lock_in(record)
    else:
        raise ValueError(f"unknown fidelity {record.fidelity!r}")
    norm = 8.0 * float(np.mean(record.i0)) * dc_2omega
    if norm <= 0.0:
        raise ValueError("vanishing I0 * I_2OmegaPEM(DC) normalization")
    return series, math.sqrt(norm)


def _digital_lock_in(record: TimeSeriesRecord) -> tuple[np.ndarray, float]:
    """``(I_OmegaPEM, I_2OmegaPEM(DC))`` of a full-fidelity record on the output grid.

    Each block of bins is reduced on a worker thread (``apparatus._walk``):
    a view of a stored raw channel, or the block a synthesized record's kept
    function just computed.  No raw array is built.
    """
    oversample, samples_per_bin = record.lockin_layout()
    n = len(record)
    if n % samples_per_bin:
        raise ValueError("record length is not a whole number of output bins")
    # every output bin holds whole carrier cycles, so all bins share one reference row
    phase_idx = np.arange(samples_per_bin) % oversample
    ref1 = np.cos(2.0 * math.pi * phase_idx / oversample)
    ref2 = np.cos(4.0 * math.pi * phase_idx / oversample)
    ix1 = np.empty(n // samples_per_bin)
    ix2 = np.empty(n // samples_per_bin)

    def lock_in(start: int, stop: int, samples: np.ndarray) -> None:
        c0, c1 = start // samples_per_bin, stop // samples_per_bin
        rows = samples.reshape(c1 - c0, samples_per_bin)  # one row per output bin
        ix1[c0:c1] = 2.0 * np.mean(rows * ref1, axis=1)
        ix2[c0:c1] = 2.0 * np.mean(rows * ref2, axis=1)

    for _ in _walk(_varying_channel(record), _blocks(n, samples_per_bin, _BLOCK_SAMPLES),
                   lock_in, _CHUNK_BINS * samples_per_bin):
        pass
    return ix1, float(np.mean(ix2))


# ---------------------------------------------------------------------------
# Block FFTs and noise statistics
# ---------------------------------------------------------------------------

def block_fft(psi: np.ndarray, config: ApparatusConfig,
              block_size: int = DEFAULT_BLOCK_SIZE) -> BlockSpectra:
    """Rectangular-window amplitude FFTs of consecutive blocks.

    Blocks must hold an integer number of revolutions so the 2*Omega_Mag tone
    is bin-centered; a prominent off-bin tone (energy in the neighbours of the
    peak) in any block triggers one leakage warning. Trailing samples that
    do not fill a block are dropped with a warning that counts them.
    """
    n_blocks, revs_per_block = _whole_blocks(len(psi), config, block_size)
    bins = np.empty((n_blocks, block_size // 2 + 1), dtype=complex)
    for _ in _block_spectra(psi, 1.0, block_size, n_blocks, 2 * revs_per_block, out=bins):
        pass
    return BlockSpectra(bins, 2 * revs_per_block, revs_per_block, config.sample_rate_hz)


def _whole_blocks(n_samples: int, config: ApparatusConfig, block_size: int) -> tuple[int, int]:
    """``(n_blocks, revs_per_block)`` of a series; warns about a dropped tail."""
    spr = config.samples_per_revolution
    if block_size < spr or block_size % spr:
        raise ValueError(
            f"block_size {block_size} must be a positive multiple of "
            f"samples_per_revolution {spr}"
        )
    if n_samples < block_size:
        raise ValueError(f"series of {n_samples} samples is shorter than one block ({block_size})")
    n_blocks, tail = divmod(n_samples, block_size)
    if tail:
        warnings.warn(
            f"{tail} trailing samples do not fill a block of {block_size} and are dropped",
            stacklevel=3,
        )
    return n_blocks, block_size // spr


def _block_chunks(n_blocks: int, block_size: int):
    """``(r0, r1)`` of consecutive chunks of whole blocks of about ``_BLOCK_SAMPLES`` samples.

    A chunk holds at least two blocks unless the record has only one: numpy
    sums the noise bins gathered from several rows in index order, but those
    of a single row pairwise, so a one-block chunk of a longer record would
    round its Rayleigh mean otherwise than one pass over all the blocks does.
    """
    step = max(2, _BLOCK_SAMPLES // block_size)
    r0 = 0
    while r0 < n_blocks:
        # a last single block joins the chunk before it
        r1 = n_blocks if n_blocks - r0 <= step + 1 else r0 + step
        yield r0, r1
        r0 = r1


def _block_spectra(series, root_norm: float, block_size: int, n_blocks: int, k: int,
                   out: np.ndarray | None = None):
    """Yield ``(r0, r1, bins, abs(bins))`` for blocks ``r0:r1`` of ``series / root_norm``.

    The one pass over a record's blocks that every analysis runs, a chunk of
    :func:`_block_chunks` at a time, so a chunk's series and spectra stay in
    cache.  ``series`` is an array, whose chunks are views, or a synthesized
    fast channel, whose chunks are computed in turn in the calling thread
    while a helper thread draws the noise of the next ones (one
    ``apparatus._walk``).  ``bins`` is ``out[r0:r1]`` when ``out`` is given,
    and otherwise one chunk-sized buffer that the next chunk overwrites.
    Each value takes the same operations as in one pass over the whole
    record.  One warning at the end names the blocks whose tone is off the
    center of bin ``k``.
    """
    chunks = list(_block_chunks(n_blocks, block_size))
    if out is None:
        scratch = np.empty((max(r1 - r0 for r0, r1 in chunks), block_size // 2 + 1), dtype=complex)
    leaks = np.empty(n_blocks, dtype=bool)

    def spectra(start: int, stop: int, samples: np.ndarray):
        r0, r1 = start // block_size, stop // block_size
        bins = scratch[:r1 - r0] if out is None else out[r0:r1]
        rows = samples.reshape(r1 - r0, block_size)
        np.fft.rfft(rows / root_norm, axis=1, out=bins)
        # one-sided amplitude normalization: interior bins 2/N, DC and Nyquist 1/N
        bins *= 2.0 / block_size
        bins[:, 0] *= 0.5
        bins[:, -1] *= 0.5
        amps = np.abs(bins)
        leaks[r0:r1] = _off_bin(amps, k)
        return r0, r1, bins, amps

    bounds = [(r0 * block_size, r1 * block_size) for r0, r1 in chunks]
    yield from _walk(series, bounds, spectra, None)
    leaky = np.flatnonzero(leaks)
    if len(leaky):
        warnings.warn(f"significant spectral energy next to the 2*Omega_Mag bin in {len(leaky)} "
                      f"of {n_blocks} blocks (first: block {leaky[0]}, counting from 0); the "
                      "tone appears off bin center (asynchronous sampling or frequency drift)",
                      stacklevel=3)


def _off_bin(amps: np.ndarray, k: int) -> np.ndarray:
    """Which rows of ``amps`` (block amplitude spectra) show a tone off bin ``k``'s center.

    That is, the peak of bins ``k-2..k+2`` stands over 10 times above the median of the bins
    past DC, and a neighbour of ``k`` holds over 0.3 of bin ``k`` and over 4.5 times that
    median (5.3 sigma of Rayleigh noise, so that noise beside a strong on-bin tone does not
    pass).  A row with more than half of those bins at or above a tenth of its peak has a
    median at least that: only the rows that this count cannot settle take a median.
    """
    peak = amps[:, max(k - 2, 1): k + 3].max(axis=1)
    neighbour = np.maximum(amps[:, k - 1], amps[:, k + 1])
    leaks = (peak > 0) & (neighbour > 0.3 * amps[:, k])
    tenth = np.nextafter(peak / 10.0, np.inf)  # rounded up, so that 10 * tenth >= peak
    above = np.sum(amps[:, 1:] >= tenth[:, None], axis=1, dtype=np.int32)
    settled = (above > (amps.shape[1] - 1) // 2) & (10.0 * np.maximum(tenth, 1e-300) >= peak)
    leaks &= ~settled
    rows = np.flatnonzero(leaks)
    if len(rows):
        median = np.maximum(_median(amps[rows, 1:]), 1e-300)
        leaks[rows] = (peak[rows] > 10.0 * median) & (neighbour[rows] > 4.5 * median)
    return leaks


def _median(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)``, bit for bit, without its import of ``numpy.ma``."""
    h = rows.shape[1] // 2
    middle = np.partition(rows, (h - 1, h), axis=1)
    return middle[:, h] if rows.shape[1] % 2 else (middle[:, h - 1] + middle[:, h]) / 2.0


def parseval_residual(spectra: BlockSpectra, psi: np.ndarray) -> np.ndarray:
    """Per-block relative mismatch between time-domain and one-sided spectrum power."""
    amps = np.abs(spectra.bins)
    power_freq = amps[:, 0] ** 2 + 0.5 * np.sum(amps[:, 1:-1] ** 2, axis=1) + amps[:, -1] ** 2
    n = len(spectra) * spectra.block_size
    power_time = np.mean(psi[:n].reshape(len(spectra), -1) ** 2, axis=1)
    scale = np.maximum(power_time, power_freq)
    return np.abs(power_time - power_freq) / np.where(scale > 0.0, scale, 1.0)


def noise_bin_indices(
    spectra: BlockSpectra, exclusion_halfwidth: int = DEFAULT_NOISE_HALFWIDTH
) -> np.ndarray:
    """Bins around 2*Omega_Mag used for the noise estimate (the same for every block).

    The signal bin and every harmonic of the rotation frequency inside the
    window are excluded.
    """
    return _noise_bins(
        spectra.bin_of_2omega, spectra.bins.shape[1], spectra.revs_per_block, exclusion_halfwidth
    )


def _noise_bins(k: int, n_freqs: int, revs_per_block: int, exclusion_halfwidth: int) -> np.ndarray:
    lo = max(1, k - exclusion_halfwidth)
    hi = min(n_freqs - 1, k + exclusion_halfwidth)
    idx = np.arange(lo, hi + 1)
    harmonic = idx % revs_per_block == 0
    return idx[~harmonic]


def _enough_noise_bins(idx: np.ndarray) -> np.ndarray:
    if len(idx) < 50:
        raise ValueError(
            f"only {len(idx)} noise bins available around the signal bin; need >= 50"
        )
    return idx


def rayleigh_sigma(
    spectra: BlockSpectra, exclusion_halfwidth: int = DEFAULT_NOISE_HALFWIDTH
) -> np.ndarray:
    """Per-block, per-quadrature noise sigma: mean noise-bin amplitude <rho> / sqrt(pi/2)."""
    idx = _enough_noise_bins(noise_bin_indices(spectra, exclusion_halfwidth))
    return _rayleigh(np.abs(spectra.bins[:, idx]))


def _rayleigh(noise_amplitudes: np.ndarray) -> np.ndarray:
    return np.mean(noise_amplitudes, axis=1) / RAYLEIGH_MEAN_FACTOR


def with_rayleigh_sigma(
    spectra: BlockSpectra, exclusion_halfwidth: int = DEFAULT_NOISE_HALFWIDTH
) -> BlockSpectra:
    """Attach per-block noise sigmas, floored at the FFT's numerical precision.

    A noiseless synchronous record is exactly periodic per revolution, so its
    off-harmonic bins are identically zero; the floor (machine epsilon times
    the block's peak amplitude) keeps such records analyzable with an honest
    "numerical precision" uncertainty instead of an infinite weight.
    """
    idx = _enough_noise_bins(noise_bin_indices(spectra, exclusion_halfwidth))
    sigmas = np.empty(len(spectra))
    for r0, r1 in _block_chunks(len(spectra), spectra.block_size):
        sigmas[r0:r1] = _floored_sigma(np.abs(spectra.bins[r0:r1]), idx)
    return replace(spectra, rayleigh_sigma=sigmas)


def _floored_sigma(amps: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rayleigh sigma of each row of ``amps`` over the noise bins ``idx``, with its floor."""
    return np.maximum(_rayleigh(amps[:, idx]), np.finfo(float).eps * amps.max(axis=1))


# ---------------------------------------------------------------------------
# Averaging, projection, conversion
# ---------------------------------------------------------------------------

def weighted_average(values_and_sigmas) -> tuple[complex, float]:
    """Inverse-variance vector average of complex estimates.

    Returns (mean, sigma_combined) with sigma_combined = (sum sigma_i^-2)^(-1/2);
    both quadratures share each item's weight.
    """
    items = list(values_and_sigmas)
    if not items:
        raise ValueError("cannot average an empty list")
    weights = []
    for value, sigma in items:
        if not (sigma > 0 and math.isfinite(sigma)):
            raise ValueError(f"all sigmas must be positive and finite, got {sigma}")
        weights.append(1.0 / sigma**2)
    total = math.fsum(weights)
    mean = complex(
        math.fsum(w * complex(v).real for (v, _), w in zip(items, weights)) / total,
        math.fsum(w * complex(v).imag for (v, _), w in zip(items, weights)) / total,
    )
    return mean, 1.0 / math.sqrt(total)


def project_physical(estimate: complex, calibration: CalibrationPhase) -> tuple[float, float]:
    """Rotate onto the calibration axis: (physical, nonphysical) components.

    Positive physical = same sign as the calibration gas convention (helium).
    """
    rotated = complex(estimate) * np.exp(-1j * calibration.phase_rad)
    return float(rotated.real), float(rotated.imag)


def deltan_conversion(psi_amplitude, config: ApparatusConfig):
    """Ellipticity amplitude -> Delta n/B^2 (T^-2): psi * lambda/(N pi Int B^2 dl)."""
    if config.field_integral_t2m == 0.0:
        raise ValueError("zero field integral")
    factor = config.wavelength_m / (config.pass_count * math.pi * config.field_integral_t2m)
    return psi_amplitude * factor


def ellipticity_from_deltan(deltan_u, config: ApparatusConfig):
    """Inverse of :func:`deltan_conversion`."""
    return deltan_u * config.pass_count * math.pi * config.field_integral_t2m / config.wavelength_m


# ---------------------------------------------------------------------------
# Run-level analysis
# ---------------------------------------------------------------------------

def analyze_record(record: TimeSeriesRecord, block_size: int = DEFAULT_BLOCK_SIZE,
                   noise_halfwidth: int = DEFAULT_NOISE_HALFWIDTH) -> RunEstimate:
    """Demodulate and block-average one run.

    Equal, value for value, to ``estimate_from_spectra(with_rayleigh_sigma(
    block_fft(demodulate(record), ...)), record)``, but in one pass over
    chunks of blocks that keeps only each block's 2*Omega_Mag amplitude and
    sigma.
    """
    return _analyze(record, block_size, noise_halfwidth)[0]


def _analyze(record: TimeSeriesRecord, block_size: int, noise_halfwidth: int,
             keep_spectra: bool = False) -> tuple[RunEstimate, BlockSpectra | None]:
    """The one pass of every analysis: the run estimate, and with ``keep_spectra`` the spectra.

    The spectra carry their sigmas and are ``with_rayleigh_sigma(block_fft(demodulate(
    record), ...))`` bit for bit; without them, no record-sized array is built.
    """
    # full-fidelity records land on the same synchronous output grid after demodulation
    series, root_norm = _lock_in(record)
    n_blocks, revs_per_block = _whole_blocks(len(series), record.config, block_size)
    k = 2 * revs_per_block
    idx = _enough_noise_bins(_noise_bins(k, block_size // 2 + 1, revs_per_block, noise_halfwidth))
    bins = np.empty((n_blocks, block_size // 2 + 1), dtype=complex) if keep_spectra else None
    amplitudes = np.empty(n_blocks, dtype=complex)
    sigmas = np.empty(n_blocks)
    for r0, r1, chunk, amps in _block_spectra(series, root_norm, block_size, n_blocks, k, bins):
        amplitudes[r0:r1] = chunk[:, k]
        sigmas[r0:r1] = _floored_sigma(amps, idx)
    rate = record.config.sample_rate_hz
    spectra = None if bins is None else BlockSpectra(bins, k, revs_per_block, rate, sigmas)
    return _run_estimate(amplitudes, sigmas, block_size, rate, record), spectra


def estimate_from_spectra(spectra: BlockSpectra, record: TimeSeriesRecord) -> RunEstimate:
    """Vector-average the 2*Omega_Mag bin of a record's block spectra.

    ``spectra`` must carry Rayleigh sigmas (see :func:`with_rayleigh_sigma`)
    and set the duration by their sample rate; ``record`` supplies the config
    and the metadata.  No calibration is applied.
    """
    return _run_estimate(spectra.amplitude_2omega, spectra.rayleigh_sigma, spectra.block_size,
                         spectra.sample_rate_hz, record)


def _run_estimate(amplitudes: np.ndarray, sigmas: np.ndarray | None, block_size: int,
                  sample_rate_hz: float, record: TimeSeriesRecord) -> RunEstimate:
    """The run estimate of per-block 2*Omega_Mag amplitudes and sigmas."""
    config = record.config
    amp, sigma = weighted_average(zip(amplitudes.tolist(), _positive_sigmas(sigmas).tolist()))
    n_blocks = len(amplitudes)
    return RunEstimate(
        complex_amplitude_2omega=amp,
        sigma=sigma,
        deltan_over_b2=deltan_conversion(amp, config),
        deltan_over_b2_sigma=float(deltan_conversion(sigma, config)),
        duration_s=n_blocks * block_size / sample_rate_hz,
        n_blocks=n_blocks,
        config=config,
        metadata={
            "source": record.source_description,
            "seed": record.seed,
            "fidelity": record.fidelity,
            "phase_rad": float(np.angle(amp)) if abs(amp) > 0 else 0.0,
        },
    )


def combine_runs(estimates: list[RunEstimate]) -> tuple[complex, float, float]:
    """Weighted vector average over runs in Delta n/B^2 space.

    Returns (complex deltan_over_b2, sigma, total_hours); project the mean with
    :func:`project_physical`.  Runs may differ in finesse or field integral;
    the conversion to Delta n/B^2 happened per run.
    """
    if not estimates:
        raise ValueError("no run estimates to combine")
    mean, sigma = weighted_average(
        (e.deltan_over_b2, e.deltan_over_b2_sigma) for e in estimates
    )
    hours = sum(e.hours for e in estimates)
    return mean, sigma, hours


def averaged_spectrum(spectra: BlockSpectra) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-variance averaged complex spectrum over blocks: (freq_hz, complex amps)."""
    w = 1.0 / _positive_sigmas(spectra.rayleigh_sigma) ** 2
    return spectra.frequencies_hz, np.tensordot(w, spectra.bins, axes=1) / w.sum()


def _positive_sigmas(sigmas: np.ndarray | None) -> np.ndarray:
    if sigmas is None:
        raise ValueError("the blocks have no rayleigh_sigma (run with_rayleigh_sigma)")
    bad = np.count_nonzero(~((sigmas > 0) & np.isfinite(sigmas)))
    if bad:
        raise ValueError(f"{bad} of {len(sigmas)} blocks have a rayleigh_sigma that is not "
                         "positive and finite; a block whose samples are all zero has sigma 0")
    return sigmas


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def weighted_linear_fit(x: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least squares of y = a + b x; returns (a, b, sigma_a, sigma_b)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points for a linear fit")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate fit: all x values identical")
    w = 1.0 / sigma**2
    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = s * sxx - sx**2
    a = (sxx * sy - sx * sxy) / delta
    b = (s * sxy - sx * sy) / delta
    return a, b, math.sqrt(sxx / delta), math.sqrt(s / delta)


def calibrate(estimates: list[RunEstimate], gas_name: str) -> CalibrationPhase:
    """Derive the physical phase and the gas coefficient from pressure-scan runs.

    Each estimate's pressure is parsed from its ``metadata["source"]``, which
    must describe a gas.  The phase comes from the highest-SNR point,
    sign-corrected with the known sign of the gas coefficient; per-run phases
    are kept for drift diagnostics.
    """
    from .models import gas_species

    gas = gas_species(gas_name)
    pressures = []
    for est in estimates:
        source = parse_source(est.metadata["source"], est.config)
        if not isinstance(source, GasSource):
            raise ValueError(f"cannot infer pressure from source {est.metadata['source']!r}")
        pressures.append(source.pressure_atm)
    if len(pressures) < 2:
        raise ValueError("calibration needs at least two pressure points")
    pressures = np.array(pressures)
    if np.ptp(pressures) == 0.0:
        raise ValueError("degenerate calibration: all pressures identical")

    best = max(estimates, key=lambda est: est.snr)
    measured_phase = math.atan2(
        best.complex_amplitude_2omega.imag, best.complex_amplitude_2omega.real
    )
    phase = measured_phase if gas.deltan_u > 0 else measured_phase + math.pi
    phase %= 2.0 * math.pi
    cal = CalibrationPhase(phase_rad=phase, source_gas=gas_name)

    dn_phys = [project_physical(est.deltan_over_b2, cal)[0] for est in estimates]
    dn_sigma = [est.deltan_over_b2_sigma for est in estimates]
    a, b, sa, sb = weighted_linear_fit(pressures, np.array(dn_phys), np.array(dn_sigma))
    return CalibrationPhase(
        phase_rad=phase,
        source_gas=gas_name,
        fit_slope=b,
        fit_slope_sigma=sb,
        fit_intercept=a,
        fit_intercept_sigma=sa,
        per_run_phases=tuple(est.metadata["phase_rad"] for est in estimates),
    )
