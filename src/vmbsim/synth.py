"""Forward model: ideal ellipticity and synthetic detector time series.

Two fidelity levels:

* ``fast`` emits the lock-in output channels directly at the synchronous rate
  of ``samples_per_revolution`` per magnet turn.  This is the workhorse for
  long Monte-Carlo runs.  Only ``I_OmegaPEM`` is computed per sample, and
  the ``sin(2 theta)`` signal and the spurious tones only when they are
  nonzero: the constant channels are zero-stride views and ``time`` and
  ``magnet_phase`` are derived by the record on demand.  ``I_OmegaPEM`` is
  built in place in the buffer of the ellipticity noise draw, the signal a
  block of samples at a time, so synthesis holds the record plus a block's
  working set.
* ``full`` emits the raw analyser intensity (the exact squared-modulus form,
  extinction and PEM carrier included) at many samples per PEM cycle, so the
  digital lock-in in the analysis chain can be validated end to end.  A block
  of a few output bins is a pure function of its bins, and the detector
  intensity noise is drawn from the generator's state after the ellipticity
  draw, chunk by chunk in chunk order.  So the record keeps that function and
  that state, not a raw array: the lock-in computes each block into a buffer
  of its worker thread and reduces it there, chunks of bins on up to one
  worker thread per available CPU (``apparatus._map_chunks``), and its memory
  is a block working set per worker, independent of the record length.
  Reading ``i_omega_pem`` builds the raw array the same way, in place.  The
  samples do not depend on the number of CPUs.

The magnets rotate together, so both levels carry one signal,
psi(t) = psi sin(2 (2 pi f_Mag t + theta0)), whose 2*Omega_Mag line is the
bin the analysis reads.

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


def _output_grid(config: ApparatusConfig, start: int, stop: int) -> np.ndarray:
    """Times of the output samples ``start`` to ``stop``."""
    return np.arange(start, stop) / config.sample_rate_hz


def _signal_and_alpha(config: ApparatusConfig, psi: float, noise: NoiseModel, s0: int, s1: int):
    """Signal plus spurious ellipticity of the output samples ``s0`` to ``s1``.

    An absent term is a scalar 0.0, which adds as the zero array it replaces
    (the sum turns a -0.0 into +0.0 either way).
    """
    t = _output_grid(config, s0, s1) if psi or noise.spurious_tones else None
    signal = (
        _sin_2theta(psi, config.magnet_rotation_hz, config.polarizer_angle_rad, t) if psi else 0.0
    )
    alpha = noise.alpha_of(t) if noise.spurious_tones else 0.0
    return signal + alpha


def _ellipticity_noise(noise: NoiseModel, rng: np.random.Generator, n: int, sample_rate: float):
    """Per-output-sample white ellipticity noise with the requested one-sided ASD, a new array."""
    if noise.ellipticity_noise_density == 0.0:
        return np.zeros(n)
    sigma_t = noise.ellipticity_noise_density * math.sqrt(sample_rate / 2.0)
    draw = rng.standard_normal(n)
    draw *= sigma_t
    return draw


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
    eps_noise = _ellipticity_noise(noise, rng, n_out, config.sample_rate_hz)
    i0 = config.incident_power_w
    eta0 = config.pem_depth

    if fidelity == "fast":
        # I_OmegaPEM = 2 I0 eta0 (signal + alpha + eps), built in place in the noise
        # draw's buffer, a block of samples at a time; a + b is b + a bit for bit, so
        # every sample is the sum and product of fresh whole-record arrays
        ch_omega = eps_noise
        psi = source_ellipticity(source, config)
        for s0 in range(0, n_out, _BLOCK_SAMPLES):
            s1 = min(s0 + _BLOCK_SAMPLES, n_out)
            ch_omega[s0:s1] += _signal_and_alpha(config, psi, noise, s0, s1)
        ch_omega *= 2.0 * i0 * eta0
        if noise.detector_white_noise > 0.0:
            detector = rng.standard_normal(n_out)
            detector *= i0 * noise.detector_white_noise
            ch_omega += detector
        return TimeSeriesRecord(
            i_omega_pem=ch_omega,
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
    # The record keeps the function of its bins and the generator after the
    # ellipticity draw, from which the intensity noise is drawn chunk by chunk
    # in chunk order; the lock-in computes the samples block by block from it.
    intensity = _RawIntensity(
        _raw_intensity(config, source, noise, eps_noise, samples_per_bin, pem_oversample, fs),
        n_out, samples_per_bin, noise.detector_white_noise, rng,
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

    ``out`` receives ``(c1 - c0) * samples_per_bin`` samples before the
    detector's intensity noise, which the caller applies.  Every sample is
    computed by the same operations, in the same order, as in one pass over
    the whole record, so a block is a pure function of its bins: blocks may be
    filled in any order, on any thread, and the samples do not depend on the
    block size.  Besides ``out`` the working set is at most three arrays of
    the block's size.
    """
    i0 = config.incident_power_w
    psi = source_ellipticity(source, config)
    # PEM carrier phase is exactly (i mod oversample)/oversample cycles -- no drift.
    # A block starts on a bin, and so on a whole carrier cycle.
    carrier = config.pem_depth * np.cos(
        2.0 * math.pi * np.arange(pem_oversample) / pem_oversample
    )

    def fill(c0: int, c1: int, out: np.ndarray) -> None:
        # t lives in out until the terms that need it exist, so a block frees one array:
        # freeing a t array with the signal made glibc return the heap top to the
        # system and fault it back in for every block (serial synthesis took 40% longer).
        # Whole numbers in float64 are exact, so t is the integer grid divided by fs.
        t = np.divide(np.arange(c0 * samples_per_bin, c1 * samples_per_bin, dtype=np.float64),
                      fs, out=out)
        signal = _sin_2theta(psi, config.magnet_rotation_hz, config.polarizer_angle_rad, t)
        # without tones alpha is +0.0, which changes at most the sign of a zero before the square
        alpha = noise.alpha_of(t) if noise.spurious_tones else None
        out.reshape(-1, pem_oversample)[...] = carrier
        out += signal
        if alpha is not None:
            out += alpha
        per_bin = out.reshape(c1 - c0, samples_per_bin)
        per_bin += eps_noise[c0:c1, None]
        np.square(out, out=out)
        out += config.extinction
        out *= i0

    return fill
