"""Forward model: ideal ellipticity and synthetic detector time series.

Two fidelity levels:

* ``fast`` emits the lock-in output channels directly at the synchronous rate
  of ``samples_per_revolution`` per magnet turn.  This is the workhorse for
  long Monte-Carlo runs.  Only ``I_OmegaPEM`` varies from sample to sample,
  and the ``sin(2 theta)`` signal and the spurious tones are computed only
  when they are nonzero: the constant channels are zero-stride views and
  ``time`` and ``magnet_phase`` are derived by the record on demand.
  Synthesis does not build ``I_OmegaPEM`` either: the record keeps the
  function of its samples, noise included, and no noise array.
* ``full`` emits the raw analyser intensity (the exact squared-modulus form,
  extinction and PEM carrier included) at many samples per PEM cycle, so the
  digital lock-in in the analysis chain can be validated end to end.  The
  record keeps the ellipticity noise of its output bins and the function of
  its raw samples, detector noise included, not a raw array.

Each noise stream (the ellipticity noise on the output grid, the detector
noise on the channel's own grid) is cut into pages, the blocks of
``apparatus._blocks`` at ``apparatus._BLOCK_SAMPLES`` on its grid, and page p
draws from its own generator (:func:`_page`).  So samples are a pure function
of their indices, whatever the run length, and a pass over a kept channel
(``apparatus._walk``) computes its blocks on worker threads, in any order,
each with the same operations as one pass over whole-record arrays.

The magnets rotate together, so both levels carry one signal,
psi(t) = psi sin(2 (2 pi f_Mag t + theta0)), whose 2*Omega_Mag line is the
bin the analysis reads.  The fast level evaluates it at each output sample;
the full level copies carrier plus signal from a table of one signal period,
half a revolution, whose phase is reduced exactly from the sample index.

Lock-in gain convention: demodulated channels carry the full ("peak")
harmonic amplitude, I_X = 2 <I(t) cos(w t)>.  With a sinusoidal PEM drive
eta(t) = eta0 cos(w_pem t) this makes I_OmegaPEM = 2 I0 eta0 psi(t) and
I_2OmegaPEM(DC) = I0 eta0^2 / 2, so psi(t) = I_OmegaPEM / sqrt(8 I0 I_2OmegaPEM(DC))
recovers the ellipticity exactly.

To keep the digital lock-in exact, the full path quantizes the PEM frequency
to an integer number of cycles per output sample and uses an integer number of
raw samples per cycle; on that grid the DC, carrier and second-harmonic
references are exactly orthogonal, so polarizer extinction and the eta^2 term
leak nothing into the signal channel.
"""

from __future__ import annotations

import math

import numpy as np

from .apparatus import (
    ApparatusConfig,
    FixedEllipticitySource,
    NoiseModel,
    QUIET,
    TimeSeriesRecord,
    _BLOCK_SAMPLES,
    _RawIntensity,
    _step,
    grid_rate,
)

MIN_PEM_OVERSAMPLE = 8
# Raw samples per PEM cycle of a full-fidelity record, unless the caller chooses another.
DEFAULT_PEM_OVERSAMPLE = 16


def single_pass_ellipticity(config: ApparatusConfig, deltan_u: float, theta_rad: float) -> float:
    """Ellipticity acquired in one traversal: pi*deltan_u*Int(B^2 dl)/lambda * sin(2 theta)."""
    return (
        math.pi
        * deltan_u
        * config.field_integral_t2m
        / config.wavelength_m
        * math.sin(2.0 * theta_rad)
    )


def cavity_ellipticity(config: ApparatusConfig, deltan_u: float, theta_rad: float) -> float:
    """Cavity-amplified ellipticity, N = 2F/pi passes."""
    return config.pass_count * single_pass_ellipticity(config, deltan_u, theta_rad)


def source_ellipticity(source, config: ApparatusConfig) -> float:
    """Cavity-output ellipticity amplitude a source produces in this apparatus."""
    if isinstance(source, FixedEllipticitySource):
        return source.psi
    b = config.effective_field_t
    deltan_u_eff = source.deltan(b) / b**2
    return cavity_ellipticity(config, deltan_u_eff, math.pi / 4.0)


def _check_duration(config: ApparatusConfig, duration_s: float) -> int:
    revs = duration_s * config.magnet_rotation_hz
    n_revs = round(revs)
    if n_revs < 1 or abs(revs - n_revs) > 1e-9 * max(1.0, revs):
        raise ValueError(
            f"duration {duration_s} s is {revs:.6f} magnet revolutions; "
            "a positive integer number of revolutions is required"
        )
    return n_revs


def _sin_2theta(amp: float, f: float, theta0: float, t: np.ndarray) -> np.ndarray:
    """amp * sin(2 (2 pi f t + theta0)), operation by operation in one new array."""
    out = np.multiply(t, 2.0 * math.pi * f)
    out += theta0
    out *= 2.0
    np.sin(out, out=out)
    out *= amp
    return out


def _signal_period(psi: float, theta0: float, revolution: int) -> np.ndarray:
    """psi sin(2 (2 pi n / revolution + theta0)) over one signal period, n < revolution / 2."""
    return _sin_2theta(psi, 1.0 / revolution, theta0, np.arange(revolution // 2))


def _signal_and_alpha(config: ApparatusConfig, psi: float, noise: NoiseModel, s0: int, s1: int):
    """Signal plus spurious ellipticity of the output samples ``s0`` to ``s1``.

    An absent term is a scalar 0.0, which adds as the zero array it replaces
    (the sum turns a -0.0 into +0.0 either way).
    """
    t = np.arange(s0, s1) / config.sample_rate_hz if psi or noise.spurious_tones else None
    signal = (
        _sin_2theta(psi, config.magnet_rotation_hz, config.polarizer_angle_rad, t) if psi else 0.0
    )
    alpha = noise.alpha_of(t) if noise.spurious_tones else 0.0
    return signal + alpha


def _noise_sigma(noise: NoiseModel, sample_rate: float) -> float:
    """Per-output-sample sigma of white ellipticity noise with the requested one-sided ASD."""
    return noise.ellipticity_noise_density * math.sqrt(sample_rate / 2.0)


# noise streams: the ellipticity noise (output grid), the detector noise (channel's grid)
_ELLIPTICITY, _DETECTOR = 0, 1


def _page(seed: int, stream: int, page: int) -> np.random.Generator:
    """The generator of page ``page`` of noise stream ``stream`` of a run of seed ``seed``."""
    seeds = np.random.SeedSequence(seed, spawn_key=(stream, page))
    return np.random.Generator(np.random.PCG64(seeds))


def _normals(seed: int, stream: int, samples_per_bin: int, s0: int, s1: int, out: np.ndarray):
    """Fill ``out`` with the standard normals of samples ``s0`` to ``s1`` of a noise stream.

    A page is drawn from its start as far as they need: a generator's first
    normals do not depend on how many it draws, nor a sample on the run length.
    """
    size = _step(samples_per_bin, _BLOCK_SAMPLES)
    for p in range(s0 // size, -(-s1 // size)):
        start, stop = max(s0, p * size), min(s1, (p + 1) * size)
        rng = _page(seed, stream, p)
        if start == p * size:
            rng.standard_normal(out=out[start - s0:stop - s0])
        else:
            out[start - s0:stop - s0] = rng.standard_normal(stop - p * size)[start - p * size:]


def _fast_channel(config: ApparatusConfig, psi: float, noise: NoiseModel):
    """``fill(s0, s1, out)``: a fast record's I_OmegaPEM of samples ``s0`` to ``s1``, into ``out``.

    I_OmegaPEM = 2 I0 eta0 (signal + alpha + eps), plus the detector noise.
    Every sample takes the same operations as over whole-record arrays (a + b
    is b + a bit for bit), so the samples do not depend on the spans they are
    filled in.
    """
    gain = 2.0 * config.incident_power_w * config.pem_depth
    sigma_t = _noise_sigma(noise, config.sample_rate_hz)
    detector_sigma = config.incident_power_w * noise.detector_white_noise

    def fill(s0: int, s1: int, out: np.ndarray) -> None:
        if sigma_t > 0.0:
            _normals(noise.rng_seed, _ELLIPTICITY, 1, s0, s1, out)
            out *= sigma_t
        else:
            out[...] = 0.0  # the sum turns a -0.0 signal into +0.0, as adding the noise does
        out += _signal_and_alpha(config, psi, noise, s0, s1)
        out *= gain
        if detector_sigma > 0.0:
            detector = np.empty_like(out)
            _normals(noise.rng_seed, _DETECTOR, 1, s0, s1, detector)
            detector *= detector_sigma
            out += detector

    return fill


def synthesize_run(
    config: ApparatusConfig,
    source,
    noise: NoiseModel = QUIET,
    duration_s: float = 0.0,
    fidelity: str = "fast",
    pem_oversample: int = DEFAULT_PEM_OVERSAMPLE,
) -> TimeSeriesRecord:
    """Produce a deterministic synthetic run record.

    The noise realization depends only on (seed, sample index): a longer run
    of the same seed has the samples of a shorter one first, and a fast and a
    full synthesis of the same physics share the same ellipticity noise, which
    the full path holds constant across each output bin.
    """
    if fidelity not in ("fast", "full"):
        raise ValueError(f"fidelity must be 'fast' or 'full', got {fidelity!r}")
    n_revs = _check_duration(config, duration_s)
    n_out = n_revs * config.samples_per_revolution
    i0 = config.incident_power_w
    eta0 = config.pem_depth

    # a fast record holds the lock-in outputs: 1 sample per bin, I_2OmegaPEM at its DC level
    samples_per_bin, dc, layout = 1, 0.5 * i0 * eta0**2, {}
    if fidelity == "fast":
        fill = _fast_channel(config, source_ellipticity(source, config), noise)
    else:
        if pem_oversample < MIN_PEM_OVERSAMPLE:
            raise ValueError(
                f"pem_oversample must be >= {MIN_PEM_OVERSAMPLE} to resolve the "
                f"2*Omega_PEM harmonic, got {pem_oversample}"
            )
        cycles_per_bin = max(1, round(config.pem_frequency_hz / config.sample_rate_hz))
        samples_per_bin, dc = pem_oversample * cycles_per_bin, 0.0
        layout = {
            "pem_frequency_effective_hz": cycles_per_bin * config.sample_rate_hz,
            "pem_oversample": pem_oversample,
            "samples_per_output_bin": samples_per_bin,
        }
        # The record keeps the ellipticity noise of its output bins and the function of
        # its raw samples; the lock-in computes the samples block by block from them.
        eps_noise = np.broadcast_to(0.0, n_out)  # a zero-stride zero without the noise
        if noise.ellipticity_noise_density > 0.0:
            eps_noise = np.empty(n_out)
            _normals(noise.rng_seed, _ELLIPTICITY, 1, 0, n_out, eps_noise)
            eps_noise *= _noise_sigma(noise, config.sample_rate_hz)
        fill = _raw_intensity(config, source, noise, eps_noise, samples_per_bin, pem_oversample)
    n = n_out * samples_per_bin
    return TimeSeriesRecord(
        i_omega_pem=_RawIntensity(fill, n_out, samples_per_bin),
        i_2omega_pem=np.broadcast_to(dc, n),
        i0=np.broadcast_to(i0, n),
        fidelity=fidelity,
        config=config,
        source_description=source.describe(),
        seed=noise.rng_seed,
        metadata={"duration_s": duration_s, "revolutions": n_revs, **layout},
    )


def _raw_intensity(
    config: ApparatusConfig,
    source,
    noise: NoiseModel,
    eps_noise: np.ndarray,
    samples_per_bin: int,
    pem_oversample: int,
):
    """``fill(c0, c1, out)``: the raw intensity of output bins ``c0`` to ``c1``, into ``out``.

    ``out`` receives ``(c1 - c0) * samples_per_bin`` samples.  With the
    detector's intensity noise, each sample is multiplied by ``1 + rin * n``,
    ``n`` its draw of the detector noise, drawn into ``out`` first.
    Carrier plus signal repeat every half revolution, ``samples_per_revolution
    / 2`` bins: a block reads their rows from one read-only table of that
    period (1.07 MB at the defaults), its phase reduced exactly from the
    integer sample index (:func:`_signal_period`), in the add of the first
    other term (the tones, else the ellipticity noise), and adds the rest.
    Every sample takes the same operations wherever its block starts, so
    blocks may be filled in any order, on any thread.  Besides ``out`` and
    the table a block holds one array of its size with intensity noise, and
    two more with spurious tones.
    """
    i0 = config.incident_power_w
    rows = config.samples_per_revolution // 2
    table = _signal_period(source_ellipticity(source, config), config.polarizer_angle_rad,
                           2 * rows * samples_per_bin)
    # PEM carrier phase is exactly (i mod oversample)/oversample cycles -- no drift.
    table.reshape(-1, pem_oversample)[...] += config.pem_depth * np.cos(
        2.0 * math.pi * np.arange(pem_oversample) / pem_oversample
    )
    table = table.reshape(rows, samples_per_bin)
    table.flags.writeable = False

    rin = noise.detector_white_noise
    fs = grid_rate(config, (pem_oversample, samples_per_bin))

    def fill(c0: int, c1: int, out: np.ndarray) -> None:
        raw = out
        if rin > 0.0:
            raw = np.empty_like(out)
            _normals(noise.rng_seed, _DETECTOR, samples_per_bin, c0 * samples_per_bin,
                     c1 * samples_per_bin, out)
        per_bin = raw.reshape(c1 - c0, samples_per_bin)
        alpha = None
        if noise.spurious_tones:
            # t lives in raw until alpha exists; whole numbers in float64 are exact, so t
            # is the integer grid divided by fs
            t = np.divide(np.arange(c0 * samples_per_bin, c1 * samples_per_bin, dtype=np.float64),
                          fs, out=raw)
            alpha = noise.alpha_of(t).reshape(per_bin.shape)
        # the table's rows are read where the first term is added to them, one call per
        # run of bins whose rows are consecutive in the table
        c = c0
        while c < c1:
            r, i = c % rows, c - c0
            m = min(rows - r, c1 - c)
            term = eps_noise[c:c + m, None] if alpha is None else alpha[i:i + m]
            np.add(table[r:r + m], term, out=per_bin[i:i + m])
            c += m
        if alpha is not None:
            per_bin += eps_noise[c0:c1, None]
        np.square(raw, out=raw)
        raw += config.extinction
        raw *= i0
        if rin > 0.0:
            # the factor times the intensity is the intensity times the factor, bit for bit
            out *= rin
            out += 1.0
            out *= raw

    return fill
