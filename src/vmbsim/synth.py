"""Forward model: ideal ellipticity and synthetic detector time series.

Two fidelity levels:

* ``fast`` emits the lock-in output channels directly at the synchronous rate
  of ``samples_per_revolution`` per magnet turn.  This is the workhorse for
  long Monte-Carlo runs.  Only ``I_OmegaPEM`` varies from sample to sample,
  and the ``sin(2 theta)`` signal and the spurious tones are computed only
  when they are nonzero: the constant channels are zero-stride views and
  ``time`` and ``magnet_phase`` are derived by the record on demand.
  Synthesis does not build ``I_OmegaPEM`` either.  The record keeps the
  function of its samples and the generator state it draws from: the
  ellipticity noise's stream, or, with detector noise, the detector noise's,
  which follows the whole ellipticity draw, so that the ellipticity noise is
  then drawn at synthesis and kept.
* ``full`` emits the raw analyser intensity (the exact squared-modulus form,
  extinction and PEM carrier included) at many samples per PEM cycle, so the
  digital lock-in in the analysis chain can be validated end to end.  A block
  of a few output bins is a pure function of its bins and of the detector
  intensity noise's draws, which follow the ellipticity draw in the stream.
  So the record keeps that function and the generator state, not a raw
  array.

Every pass over a kept channel is one walk over its blocks
(``apparatus._walk``), which draws the stream in order and fills each block
on the thread that uses it: the fast analysis in the calling thread, with a
helper drawing ahead; the full lock-in, the record writer and the array
build (the first read of ``i_omega_pem``) on up to one worker per CPU.  So
they hold a few blocks per thread, whatever the run length.

Either way every sample takes the same operations as in one pass over
whole-record arrays, every pass draws from a copy of the generator state,
and the samples do not depend on the number of CPUs.

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
    _RawIntensity,
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
            "an integer number of revolutions is required"
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


def _ellipticity_noise(noise: NoiseModel, rng: np.random.Generator, n: int, sample_rate: float):
    """Per-output-sample white ellipticity noise: a new array, or a zero-stride zero without it."""
    if noise.ellipticity_noise_density == 0.0:
        return np.broadcast_to(0.0, n)
    draw = rng.standard_normal(n)
    draw *= _noise_sigma(noise, sample_rate)
    return draw


def _fast_channel(config: ApparatusConfig, psi: float, noise: NoiseModel, eps_noise):
    """``fill(s0, s1, out)``: a fast record's I_OmegaPEM of samples ``s0`` to ``s1``, into ``out``.

    I_OmegaPEM = 2 I0 eta0 (signal + alpha + eps), plus the detector noise.

    ``eps_noise`` None means that ``out`` holds on entry the standard normals
    of the ellipticity noise, which is scaled in place; otherwise the
    ellipticity noise is ``eps_noise``, and with detector noise ``out`` holds
    on entry that noise's standard normals.  Every sample takes the same
    operations as over whole-record arrays (a + b is b + a bit for bit), so
    the samples do not depend on the spans they are filled in.
    """
    gain = 2.0 * config.incident_power_w * config.pem_depth
    sigma_t = _noise_sigma(noise, config.sample_rate_hz)
    detector_sigma = config.incident_power_w * noise.detector_white_noise

    def fill(s0: int, s1: int, out: np.ndarray) -> None:
        if eps_noise is None:
            out *= sigma_t
            out += _signal_and_alpha(config, psi, noise, s0, s1)
            out *= gain
            return
        # an absent noise is a zero-stride zero, and the sum turns a -0.0 signal into +0.0
        psi_t = eps_noise[s0:s1] + _signal_and_alpha(config, psi, noise, s0, s1)
        if detector_sigma > 0.0:
            psi_t *= gain
            out *= detector_sigma
            out += psi_t
        else:
            np.multiply(psi_t, gain, out=out)

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

    The ellipticity noise realization depends only on (seed, number of output
    samples), so a fast and a full synthesis of the same physics share the
    same noise sequence; in the full path it is held constant across each
    output bin.
    """
    if fidelity not in ("fast", "full"):
        raise ValueError(f"fidelity must be 'fast' or 'full', got {fidelity!r}")
    n_revs = _check_duration(config, duration_s)
    rng = np.random.default_rng(noise.rng_seed)
    n_out = n_revs * config.samples_per_revolution
    i0 = config.incident_power_w
    eta0 = config.pem_depth

    if fidelity == "fast":
        # The record keeps the function of its samples and the stream it draws: the
        # ellipticity noise, or, with detector noise, that noise, which follows the whole
        # ellipticity draw in the stream; so the ellipticity noise is then drawn and kept here.
        if noise.detector_white_noise == 0.0 and noise.ellipticity_noise_density > 0.0:
            eps_noise, stream = None, rng
        else:
            eps_noise = _ellipticity_noise(noise, rng, n_out, config.sample_rate_hz)
            stream = rng if noise.detector_white_noise > 0.0 else None
        psi = source_ellipticity(source, config)
        return TimeSeriesRecord(
            i_omega_pem=_RawIntensity(_fast_channel(config, psi, noise, eps_noise), n_out, 1,
                                      stream),
            i_2omega_pem=np.broadcast_to(0.5 * i0 * eta0**2, n_out),
            i0=np.broadcast_to(i0, n_out),
            fidelity="fast",
            config=config,
            source_description=source.describe(),
            seed=noise.rng_seed,
            metadata={"duration_s": duration_s, "revolutions": n_revs},
        )

    # ---- full fidelity ----
    if pem_oversample < MIN_PEM_OVERSAMPLE:
        raise ValueError(
            f"pem_oversample must be >= {MIN_PEM_OVERSAMPLE} to resolve the "
            f"2*Omega_PEM harmonic, got {pem_oversample}"
        )
    cycles_per_bin = max(1, round(config.pem_frequency_hz / config.sample_rate_hz))
    samples_per_bin = pem_oversample * cycles_per_bin
    fs = grid_rate(config, (pem_oversample, samples_per_bin))
    n_raw = n_out * samples_per_bin
    # The record keeps the function of its bins and, with intensity noise, the
    # generator after the ellipticity draw, which that noise's stream follows;
    # the lock-in computes the samples block by block from them.
    eps_noise = _ellipticity_noise(noise, rng, n_out, config.sample_rate_hz)
    intensity = _RawIntensity(
        _raw_intensity(config, source, noise, eps_noise, samples_per_bin, pem_oversample, fs),
        n_out, samples_per_bin, rng if noise.detector_white_noise > 0.0 else None,
    )
    return TimeSeriesRecord(
        i_omega_pem=intensity,
        i_2omega_pem=np.broadcast_to(0.0, n_raw),
        i0=np.broadcast_to(i0, n_raw),
        fidelity="full",
        config=config,
        source_description=source.describe(),
        seed=noise.rng_seed,
        metadata={
            "duration_s": duration_s,
            "revolutions": n_revs,
            "pem_frequency_effective_hz": cycles_per_bin * config.sample_rate_hz,
            "pem_oversample": pem_oversample,
            "samples_per_output_bin": samples_per_bin,
        },
    )


def _raw_intensity(
    config: ApparatusConfig,
    source,
    noise: NoiseModel,
    eps_noise: np.ndarray,
    samples_per_bin: int,
    pem_oversample: int,
    fs: float,
):
    """``fill(c0, c1, out)``: the raw intensity of output bins ``c0`` to ``c1``, into ``out``.

    ``out`` receives ``(c1 - c0) * samples_per_bin`` samples.  With the
    detector's intensity noise, it holds on entry that noise's standard
    normals ``n``, and each sample is multiplied by ``1 + rin * n``.
    Carrier plus signal repeat every half revolution, ``samples_per_revolution
    / 2`` bins: a block copies their rows from one read-only table of that
    period (1.07 MB at the defaults), its phase reduced exactly from the
    integer sample index (:func:`_signal_period`), and adds the other terms.
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

    def fill(c0: int, c1: int, out: np.ndarray) -> None:
        raw = np.empty_like(out) if rin > 0.0 else out
        per_bin = raw.reshape(c1 - c0, samples_per_bin)
        alpha = None
        if noise.spurious_tones:
            # t lives in raw until alpha exists; whole numbers in float64 are exact, so t
            # is the integer grid divided by fs
            t = np.divide(np.arange(c0 * samples_per_bin, c1 * samples_per_bin, dtype=np.float64),
                          fs, out=raw)
            alpha = noise.alpha_of(t)
        # mode="wrap" copies into out directly; "raise" would buffer the whole block
        np.take(table, np.arange(c0, c1), axis=0, out=per_bin, mode="wrap")
        if alpha is not None:
            raw += alpha
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
