"""Forward model: ideal ellipticity and synthetic detector time series.

Two fidelity levels:

* ``fast`` emits the lock-in output channels directly at the synchronous rate
  of ``samples_per_revolution`` per magnet turn.  This is the workhorse for
  long Monte-Carlo runs.  Only ``I_OmegaPEM`` is computed per sample, and
  the ``sin(2 theta)`` signal and the spurious tones only when they are
  nonzero: the constant channels are zero-stride views and ``time`` and
  ``magnet_phase`` are derived by the record on demand.
* ``full`` emits the raw analyser intensity (the exact squared-modulus form,
  extinction and PEM carrier included) at many samples per PEM cycle, so the
  digital lock-in in the analysis chain can be validated end to end.  It is
  generated ``_CHUNK_BINS`` output bins at a time, each chunk in place in its
  slice of the record's one raw array, on up to one worker thread per
  available CPU, a block of a few bins at a time.  Its memory is that array
  plus a block working set per worker, independent of the record length.  A
  chunk is a pure function of its bins, and the detector intensity noise is
  drawn in chunk order, so the samples do not depend on the number of CPUs.

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
    _BLOCK_SAMPLES,
    _CHUNK_BINS,
    ApparatusConfig,
    FixedEllipticitySource,
    NoiseModel,
    QUIET,
    TimeSeriesRecord,
    _map_chunks,
    grid_rate,
)

MIN_PEM_OVERSAMPLE = 8


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


def _signal_ellipticity(config: ApparatusConfig, source, t: np.ndarray) -> np.ndarray:
    """psi(t) = psi * sin(2 theta(t)), summed over magnets when they co-rotate or not."""
    return _magnet_signal(config, source_ellipticity(source, config), t)


def _magnet_signal(config: ApparatusConfig, psi: float, t: np.ndarray) -> np.ndarray:
    """:func:`_signal_ellipticity` for a cavity-output ellipticity amplitude ``psi``."""
    theta0 = config.polarizer_angle_rad
    f1 = config.magnet_rotation_hz
    f2 = config.second_magnet_rotation_hz
    if f2 is None or f2 == f1:
        return _sin_2theta(psi, f1, theta0, t)
    # Diagnostic mode: each magnet carries half the field integral at its own frequency.
    half = 0.5 * psi
    out = _sin_2theta(half, f1, theta0, t)
    out += _sin_2theta(half, f2, theta0, t)
    return out


def _sin_2theta(amp: float, f: float, theta0: float, t: np.ndarray) -> np.ndarray:
    """amp * sin(2 (2 pi f t + theta0)), operation by operation in one new array."""
    out = np.multiply(t, 2.0 * math.pi * f)
    out += theta0
    out *= 2.0
    np.sin(out, out=out)
    out *= amp
    return out


def _output_grid(config: ApparatusConfig, n_revs: int) -> np.ndarray:
    n = n_revs * config.samples_per_revolution
    return np.arange(n) / config.sample_rate_hz


def _ellipticity_noise(noise: NoiseModel, rng: np.random.Generator, n: int, sample_rate: float):
    """Per-output-sample white ellipticity noise with the requested one-sided ASD."""
    if noise.ellipticity_noise_density == 0.0:
        return np.zeros(n)
    sigma_t = noise.ellipticity_noise_density * math.sqrt(sample_rate / 2.0)
    return sigma_t * rng.standard_normal(n)


def synthesize_run(
    config: ApparatusConfig,
    source,
    noise: NoiseModel = QUIET,
    duration_s: float = 0.0,
    fidelity: str = "fast",
    pem_oversample: int = 16,
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
        psi = source_ellipticity(source, config)
        t_out = _output_grid(config, n_revs) if psi or noise.spurious_tones else None
        # an absent term is a scalar 0.0, which adds as the zero array it replaces
        # (the sum turns a -0.0 into +0.0 either way)
        signal = _signal_ellipticity(config, source, t_out) if psi else 0.0
        alpha = noise.alpha_of(t_out) if noise.spurious_tones else 0.0
        psi_t = signal + alpha + eps_noise
        ch_omega = 2.0 * i0 * eta0 * psi_t
        if noise.detector_white_noise > 0.0:
            ch_omega = ch_omega + i0 * noise.detector_white_noise * rng.standard_normal(n_out)
        return TimeSeriesRecord(
            sample_rate_hz=grid_rate(config),
            i_omega_pem=ch_omega,
            i_2omega_pem=np.broadcast_to(0.5 * i0 * eta0**2, n_out),
            i0=np.broadcast_to(i0, n_out),
            fidelity="fast",
            config=config,
            source_description=_describe(source),
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

    intensity = np.empty(n_raw)
    fill = _raw_intensity(config, source, noise, eps_noise, samples_per_bin, pem_oversample, fs)

    def chunk(b0: int) -> slice:
        b1 = min(b0 + _CHUNK_BINS, n_out)
        rows = slice(b0 * samples_per_bin, b1 * samples_per_bin)
        fill(b0, b1, intensity[rows])
        return rows

    # The intensity noise is drawn here, chunk by chunk in chunk order, so the
    # random stream does not depend on which chunk finishes first.
    rin = noise.detector_white_noise
    for rows in _map_chunks(chunk, n_out):
        if rin > 0.0:
            factor = rng.standard_normal(rows.stop - rows.start)
            factor *= rin
            factor += 1.0
            intensity[rows] *= factor
    return TimeSeriesRecord(
        sample_rate_hz=fs,
        i_omega_pem=intensity,
        i_2omega_pem=np.broadcast_to(0.0, n_raw),
        i0=np.broadcast_to(i0, n_raw),
        fidelity="full",
        config=config,
        source_description=_describe(source),
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
    """``fill(b0, b1, out)``: the raw intensity of output bins ``b0`` to ``b1``, into ``out``.

    ``out`` receives ``(b1 - b0) * samples_per_bin`` samples before the
    detector's intensity noise, which the caller applies.  Every sample is
    computed by the same operations, in the same order, as in one pass over
    the whole record, so a chunk is a pure function of its bins: chunks may be
    filled in any order, on any thread, and the samples do not depend on the
    chunk size.  ``out`` is filled ``_BLOCK_SAMPLES`` raw samples (whole bins)
    at a time, and besides ``out`` the working set is at most three arrays of
    a block's size.
    """
    i0 = config.incident_power_w
    psi = source_ellipticity(source, config)
    # PEM carrier phase is exactly (i mod oversample)/oversample cycles -- no drift.
    # A block starts on a bin, and so on a whole carrier cycle.
    carrier = config.pem_depth * np.cos(
        2.0 * math.pi * np.arange(pem_oversample) / pem_oversample
    )

    step = max(1, _BLOCK_SAMPLES // samples_per_bin)

    def fill(b0: int, b1: int, out: np.ndarray) -> None:
        for c0 in range(b0, b1, step):
            c1 = min(c0 + step, b1)
            block = out[(c0 - b0) * samples_per_bin:(c1 - b0) * samples_per_bin]
            # whole numbers in float64 are exact, so t is the integer grid divided by fs
            t = np.arange(c0 * samples_per_bin, c1 * samples_per_bin, dtype=np.float64)
            t /= fs
            block.reshape(-1, pem_oversample)[...] = carrier
            block += _magnet_signal(config, psi, t)
            # without tones alpha is +0.0, which changes at most the sign of a zero before the square
            if noise.spurious_tones:
                block += noise.alpha_of(t)
            per_bin = block.reshape(c1 - c0, samples_per_bin)
            per_bin += eps_noise[c0:c1, None]
            np.square(block, out=block)
            block += config.extinction
            block *= i0

    return fill


def _describe(source) -> str:
    describe = getattr(source, "describe", None)
    return describe() if describe else str(source)
