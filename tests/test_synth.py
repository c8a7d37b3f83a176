"""Forward model: ellipticity formulas, determinism and the two fidelity paths."""

import io
import math
import mmap
import os
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vmbsim import apparatus, cli, pipeline, synth
from vmbsim.apparatus import (
    RECORD_COLUMNS,
    _BLOCK_SAMPLES,
    _CHUNK_BINS,
    _FMT,
    AlpSource,
    ApparatusConfig,
    FixedDeltanSource,
    FixedEllipticitySource,
    GasSource,
    McpSource,
    NoiseModel,
    NullSource,
    QUIET,
    QedVacuumSource,
    _PAD,
    _block_rows,
    _decode_rows,
    _format_rows,
    format_number,
    grid_rate,
    parse_source,
    read_record,
    write_record,
)
from vmbsim.pipeline import analyze_record, demodulate
from vmbsim.synth import (
    _check_duration,
    _signal_period,
    _sin_2theta,
    cavity_ellipticity,
    single_pass_ellipticity,
    source_ellipticity,
    synthesize_run,
)

CFG = ApparatusConfig()


def truncated(record, n):
    """First n samples of a record."""
    return replace(
        record,
        i_omega_pem=record.i_omega_pem[:n],
        i_2omega_pem=record.i_2omega_pem[:n],
        i0=record.i0[:n],
    )


# small full-fidelity test configuration: low PEM frequency keeps raw rates tame
SMALL_FULL = ApparatusConfig(pem_frequency_hz=960.0, magnet_rotation_hz=3.0)


class TestEllipticityFormulas:
    def test_single_pass_qed(self):
        psi = single_pass_ellipticity(CFG, 3.97e-24, math.pi / 4)
        assert psi == pytest.approx(1.2e-16, rel=0.02)

    def test_zero_angle(self):
        assert single_pass_ellipticity(CFG, 3.97e-24, 0.0) == pytest.approx(0.0, abs=1e-40)

    def test_22p5_degrees(self):
        full = single_pass_ellipticity(CFG, 3.97e-24, math.pi / 4)
        half = single_pass_ellipticity(CFG, 3.97e-24, math.pi / 8)
        assert half == pytest.approx(full / math.sqrt(2.0), rel=1e-12)

    def test_cavity_value(self):
        cfg = ApparatusConfig(finesse=6.7e5)
        assert cavity_ellipticity(cfg, 3.97e-24, math.pi / 4) == pytest.approx(5e-11, rel=0.05)

    def test_unit_finesse_reduces_to_single_pass(self):
        cfg = ApparatusConfig(finesse=math.pi / 2.0)
        assert cavity_ellipticity(cfg, 1e-20, 0.3) == pytest.approx(
            single_pass_ellipticity(cfg, 1e-20, 0.3), rel=1e-12
        )

    def test_helium_32ubar_forward_value(self):
        # Table-coefficient prediction is 8.6e-8; the corresponding measured
        # calibration peak was 1.13e-7 (a known ~25-30% mismatch whose per-run
        # F and field integral are not public) -- the forward model states the
        # former, round-trip consistency covers the rest.
        from vmbsim.constants import convert_pressure

        cfg = ApparatusConfig(finesse=6.7e5)
        p_atm = convert_pressure(32.0, "ubar", "atm")
        psi = cavity_ellipticity(cfg, 2.1e-16 * p_atm, math.pi / 4.0)
        assert psi == pytest.approx(8.6e-8, rel=0.01)
        assert psi / 1.13e-7 == pytest.approx(0.758, abs=0.01)


class TestConfigValidation:
    def test_pem_ratio_enforced(self):
        with pytest.raises(ValueError, match="100x"):
            ApparatusConfig(pem_frequency_hz=200.0, magnet_rotation_hz=3.0)

    def test_power_of_two_samples(self):
        with pytest.raises(ValueError, match="power of two"):
            ApparatusConfig(samples_per_revolution=24)

    def test_field_integral_bound(self):
        with pytest.raises(ValueError, match="field integral"):
            ApparatusConfig(field_integral_t2m=20.0, peak_field_t=2.5, field_length_m=1.92)

    @pytest.mark.parametrize("name", [f.name for f in fields(ApparatusConfig)
                                      if isinstance(f.default, float)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_refused(self, name, value):
        with pytest.raises(ValueError, match=f"config field {name} must be .*finite"):
            ApparatusConfig(**{name: value})

    @pytest.mark.parametrize("value", [32.5, 32.0, True, "32"])
    def test_samples_per_revolution_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="samples_per_revolution must be an integer"):
            ApparatusConfig(samples_per_revolution=value)

    def test_int_float_field_hashes_as_its_file_reads_back(self):
        cfg = ApparatusConfig(finesse=670000, magnet_rotation_hz=3)
        assert type(cfg.finesse) is float
        assert cfg.content_hash() == ApparatusConfig().content_hash()

    def test_checks_judge_the_nine_digits_a_file_holds(self):
        # the field integral is B_max^2*L in memory; written to 9 digits, the integral rounds
        # up to 12 T^2m and the length down to 1.91999999 m
        with pytest.raises(ValueError, match="field integral"):
            ApparatusConfig(field_length_m=1.919999994, field_integral_t2m=6.25 * 1.919999994)

    def test_huge_peak_field_does_not_overflow_the_check(self):
        assert ApparatusConfig(peak_field_t=1e200, field_integral_t2m=1.0).peak_field_t == 1e200

    def test_effective_field(self):
        assert CFG.effective_field_t == pytest.approx(math.sqrt(10.25 / 1.92), rel=1e-12)


class TestFastSynthesis:
    def test_null_source_channels(self):
        rec = synthesize_run(CFG, NullSource(), QUIET, 256 / 3.0)
        assert np.all(rec.i_omega_pem == 0.0)
        expected_dc = 0.5 * CFG.incident_power_w * CFG.pem_depth**2
        assert np.allclose(rec.i_2omega_pem, expected_dc)
        assert len(rec) == 256 * 32

    def test_magnet_phase_wraps(self):
        rec = synthesize_run(CFG, NullSource(), QUIET, 256 / 3.0)
        assert np.all(rec.magnet_phase >= 0.0)
        assert np.all(rec.magnet_phase < 2.0 * math.pi)
        # increments of 2*pi/32 modulo wrap
        d = np.diff(rec.magnet_phase) % (2.0 * math.pi)
        assert np.allclose(d, 2.0 * math.pi / 32.0)

    def test_determinism(self):
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=11)
        a = synthesize_run(CFG, QedVacuumSource(), noise, 256 / 3.0)
        b = synthesize_run(CFG, QedVacuumSource(), noise, 256 / 3.0)
        assert np.array_equal(a.i_omega_pem, b.i_omega_pem)
        assert np.array_equal(a.time, b.time)

    def test_different_seed_differs(self):
        a = synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=1), 256 / 3.0)
        b = synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=2), 256 / 3.0)
        assert not np.array_equal(a.i_omega_pem, b.i_omega_pem)

    def test_non_integer_revolutions_rejected(self):
        with pytest.raises(ValueError, match="integer number of revolutions"):
            synthesize_run(CFG, NullSource(), QUIET, 100.1)

    def test_pem_scaling_invariant(self):
        # doubling eta0 doubles I_OmegaPEM, quadruples I_2OmegaPEM(DC),
        # leaves the recovered ellipticity unchanged
        from vmbsim.pipeline import demodulate

        src = FixedEllipticitySource(1e-7)
        r1 = synthesize_run(CFG, src, QUIET, 16 / 3.0)
        cfg2 = ApparatusConfig(pem_depth=2e-3)
        r2 = synthesize_run(cfg2, src, QUIET, 16 / 3.0)
        assert np.allclose(r2.i_omega_pem, 2.0 * r1.i_omega_pem)
        assert np.allclose(r2.i_2omega_pem, 4.0 * r1.i_2omega_pem)
        assert np.allclose(demodulate(r2), demodulate(r1))

    def test_polarization_rotation_flips_sign(self):
        src = FixedDeltanSource(1e-20)
        r1 = synthesize_run(CFG, src, QUIET, 16 / 3.0)
        cfg_rot = ApparatusConfig(polarizer_angle_rad=math.pi / 2.0)
        r2 = synthesize_run(cfg_rot, src, QUIET, 16 / 3.0)
        scale = np.abs(r1.i_omega_pem).max()
        assert np.allclose(r2.i_omega_pem, -r1.i_omega_pem, atol=1e-12 * scale)


class TestFullSynthesis:
    def test_energy_floor(self):
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=3)
        rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-5), noise, 4 / 3.0,
                             fidelity="full")
        floor = SMALL_FULL.incident_power_w * SMALL_FULL.extinction
        assert np.mean(rec.i_omega_pem) >= floor

    def test_metadata_and_rates(self):
        rec = synthesize_run(SMALL_FULL, NullSource(), QUIET, 4 / 3.0, fidelity="full")
        pem_eff = rec.metadata["pem_frequency_effective_hz"]
        assert pem_eff % SMALL_FULL.sample_rate_hz == 0
        assert rec.sample_rate_hz == pem_eff * 16

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError, match="pem_oversample"):
            synthesize_run(SMALL_FULL, NullSource(), QUIET, 4 / 3.0, fidelity="full",
                           pem_oversample=4)

    def test_full_determinism(self):
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=5)
        a = synthesize_run(SMALL_FULL, NullSource(), noise, 2 / 3.0, fidelity="full")
        b = synthesize_run(SMALL_FULL, NullSource(), noise, 2 / 3.0, fidelity="full")
        assert np.array_equal(a.i_omega_pem, b.i_omega_pem)


CHANNELS = ("time", "i_omega_pem", "i_2omega_pem", "i0", "magnet_phase")


def page_normals(seed, stream, samples_per_bin, n):
    """Reference noise stream: its whole pages, each drawn from its own seed, concatenated.

    A page is 65 536 samples of the output grid, or as many whole bins of a
    raw grid, at most 64.
    """
    bins = max(1, _BLOCK_SAMPLES // samples_per_bin)
    size = samples_per_bin * (min(bins, _CHUNK_BINS) if samples_per_bin > 1 else bins)
    pages = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed, spawn_key=(stream, p)))).standard_normal(size) for p in range(-(-n // size))]
    return np.concatenate(pages + [np.empty(0)])[:n]


def whole_array_noise(config, noise, n_out):
    """Reference ellipticity noise: the density times the pages of stream 0 on the output grid."""
    if noise.ellipticity_noise_density == 0.0:
        return np.zeros(n_out)
    sigma_t = noise.ellipticity_noise_density * math.sqrt(config.sample_rate_hz / 2.0)
    return sigma_t * page_normals(noise.rng_seed, 0, 1, n_out)


def whole_array_full(config, source, noise, duration_s, pem_oversample):
    """Reference full synthesis: the same formulas, each over whole-record arrays."""
    n_out = _check_duration(config, duration_s) * config.samples_per_revolution
    eps_noise = whole_array_noise(config, noise, n_out)
    cycles_per_bin = max(1, round(config.pem_frequency_hz / config.sample_rate_hz))
    samples_per_bin = pem_oversample * cycles_per_bin
    fs = cycles_per_bin * config.sample_rate_hz * pem_oversample
    n_raw = n_out * samples_per_bin
    t_raw = np.arange(n_raw) / fs
    carrier = config.pem_depth * np.cos(
        2.0 * math.pi * (np.arange(n_raw) % pem_oversample) / pem_oversample
    )
    # the phase reduced exactly: raw sample n of a revolution of R takes n mod R/2, its
    # sample in the signal period
    revolution = config.samples_per_revolution * samples_per_bin
    signal = source_ellipticity(source, config) * np.sin(
        2.0 * (np.arange(n_raw) % (revolution // 2) * (2.0 * math.pi * (1.0 / revolution))
               + config.polarizer_angle_rad)
    )
    total = carrier + signal + noise.alpha_of(t_raw) + np.repeat(eps_noise, samples_per_bin)
    intensity = config.incident_power_w * (config.extinction + total**2)
    if noise.detector_white_noise > 0.0:
        detector = page_normals(noise.rng_seed, 1, samples_per_bin, n_raw)
        intensity = intensity * (1.0 + noise.detector_white_noise * detector)
    theta_raw = (
        2.0 * math.pi * config.magnet_rotation_hz * t_raw + config.polarizer_angle_rad
    ) % (2.0 * math.pi)
    channels = (t_raw, intensity, np.zeros(n_raw), np.full(n_raw, config.incident_power_w),
                theta_raw)
    return dict(zip(CHANNELS, channels)), samples_per_bin


def whole_array_demodulate(intensity, i0, pem_oversample, samples_per_bin):
    """Reference lock-in: the per-bin kernel in one call over the whole raw record.

    ``i0`` is the value of the constant I0 channel, which the lock-in reads as that value.
    """
    phase_idx = np.arange(samples_per_bin) % pem_oversample
    refs = np.stack([np.cos(2.0 * math.pi * phase_idx / pem_oversample),
                     np.cos(4.0 * math.pi * phase_idx / pem_oversample)])
    rows = intensity.reshape(len(intensity) // samples_per_bin, samples_per_bin)
    ix1, ix2 = 2.0 * (np.einsum("ij,kj->ki", rows, refs) / samples_per_bin)
    return ix1 / math.sqrt(8.0 * i0 * float(np.mean(ix2)))


RIN_AND_TONE = NoiseModel(1e-6, 1e-4, ((0.7, 1e-6, 0.3),), rng_seed=5)


class TestChunkedFullSynthesis:
    # 3 revolutions are 96 output bins: a whole chunk of _CHUNK_BINS = 64 and a partial one
    @pytest.mark.parametrize("config, source, noise, revolutions, oversample", [
        (SMALL_FULL, GasSource("He", 3e-5), NoiseModel(1e-6, rng_seed=3), 4, 8),
        (SMALL_FULL, FixedEllipticitySource(1e-6), RIN_AND_TONE, 8, 16),
        (SMALL_FULL, QedVacuumSource(), RIN_AND_TONE, 3, 8),
        (CFG, FixedEllipticitySource(1e-6), RIN_AND_TONE, 3, 16),
    ], ids=["oversample_8", "oversample_16_rin_tone", "partial_chunk_8", "partial_chunk_default"])
    def test_bit_identical_to_whole_array(self, config, source, noise, revolutions, oversample):
        rec = synthesize_run(config, source, noise, revolutions / 3.0, fidelity="full",
                             pem_oversample=oversample)
        ref, samples_per_bin = whole_array_full(config, source, noise, revolutions / 3.0,
                                                oversample)
        assert rec.metadata["samples_per_output_bin"] == samples_per_bin
        for name in CHANNELS:
            assert np.array_equal(getattr(rec, name), ref[name]), name
        psi = whole_array_demodulate(ref["i_omega_pem"], config.incident_power_w, oversample,
                                     samples_per_bin)
        assert np.array_equal(demodulate(rec), psi)

    def test_memory_is_bounded(self, monkeypatch):
        rec, synth_peak, demod_peak = memory_peaks(monkeypatch, workers=1)
        chunk_bytes = _CHUNK_BINS * rec.metadata["samples_per_output_bin"] * 8
        assert len(rec) >= 16 * _CHUNK_BINS * rec.metadata["samples_per_output_bin"]
        # a serial synthesis holds ~3.5 chunks above the record
        assert synth_peak < rec.i_omega_pem.nbytes + 8 * chunk_bytes
        assert demod_peak < 0.1 * rec.i_omega_pem.nbytes

    def test_memory_is_bounded_on_four_workers(self, monkeypatch):
        # measured on the second run: the first also pays the thread pool's one-time imports
        for _ in range(2):
            rec, synth_peak, demod_peak = memory_peaks(monkeypatch, workers=4)
        chunk_bytes = _CHUNK_BINS * rec.metadata["samples_per_output_bin"] * 8
        assert len(rec) >= 16 * _CHUNK_BINS * rec.metadata["samples_per_output_bin"]
        assert synth_peak < rec.i_omega_pem.nbytes + 16 * chunk_bytes
        # each worker's lock-in holds what the serial lock-in holds
        assert demod_peak < 4 * 0.1 * rec.i_omega_pem.nbytes


class TestSignalTable:
    """Carrier plus signal of a full record come from one signal period, its phase reduced exactly."""

    def test_sin_sees_one_signal_period_whatever_the_length(self, monkeypatch):
        sin = np.sin
        counts = []

        def counting_sin(x, *args, **kwargs):
            counts[-1] += np.size(x)
            return sin(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counting_sin)
        # blocks of 5 revolutions, the fewest with 50 noise bins
        for revolutions in (5, 20):
            counts.append(0)
            rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), RIN_AND_TONE,
                                 revolutions / 3.0, fidelity="full")
            analyze_record(rec, block_size=5 * SMALL_FULL.samples_per_revolution)
        period = SMALL_FULL.samples_per_revolution // 2 * rec.metadata["samples_per_output_bin"]
        assert 0 < counts[0] == counts[1] <= period

    def test_bins_half_a_revolution_apart_are_bit_identical_without_noise(self):
        rec = synthesize_run(CFG, FixedEllipticitySource(1e-6), QUIET, 2 / 3.0, fidelity="full")
        raw = rec.i_omega_pem.reshape(-1, rec.metadata["samples_per_output_bin"])
        half = CFG.samples_per_revolution // 2
        assert raw[half:].tobytes() == raw[:-half].tobytes()
        assert not np.array_equal(raw[0], raw[1])

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
    @pytest.mark.parametrize("config", [CFG, replace(SMALL_FULL, polarizer_angle_rad=1.2)],
                             ids=["default", "small_tilted"])
    def test_signal_is_within_4_ulp_over_64_revolutions(self, config):
        rec = synthesize_run(config, NullSource(), QUIET, 1 / config.magnet_rotation_hz,
                             fidelity="full")
        revolution = config.samples_per_revolution * rec.metadata["samples_per_output_bin"]
        n = np.linspace(0, 64 * revolution - 1, 4097).astype(np.int64)
        psi, theta0 = 1e-6, config.polarizer_angle_rad
        pi = np.longdouble("3.14159265358979323846264338327950288")
        ref = psi * np.sin(2 * (2 * pi * n.astype(np.longdouble) / revolution
                                + np.longdouble(theta0)))
        # 4 ulp of 2 pi in phase
        bound = 4 * psi * np.spacing(2 * math.pi)
        table = _signal_period(psi, theta0, revolution)
        assert np.max(np.abs(table[n % (revolution // 2)] - ref)) <= bound
        # the phase of the time grid is not, by revolution 64
        t = n / grid_rate(config, rec.lockin_layout())
        assert np.max(np.abs(_sin_2theta(psi, config.magnet_rotation_hz, theta0, t) - ref)) > bound


# The cases of TestChunkedFullSynthesis, each at a length the analysis can take (a
# block of at least 5 revolutions has 50 noise bins): 5 and 7 revolutions are 160 and
# 224 output bins, whole chunks of _CHUNK_BINS = 64 and a partial one.
FUSED_CASES = [
    (SMALL_FULL, GasSource("He", 3e-5), NoiseModel(1e-6, rng_seed=3), 5, 8),
    (SMALL_FULL, FixedEllipticitySource(1e-6), RIN_AND_TONE, 8, 16),
    (SMALL_FULL, QedVacuumSource(), RIN_AND_TONE, 7, 8),
    (CFG, FixedEllipticitySource(1e-6), RIN_AND_TONE, 7, 16),
]
FUSED_IDS = ["oversample_8", "oversample_16_rin_tone", "partial_chunk_8", "partial_chunk_default"]
ESTIMATE_FIELDS = ("complex_amplitude_2omega", "sigma", "deltan_over_b2", "deltan_over_b2_sigma",
                   "duration_s", "n_blocks", "config", "metadata")


def is_stored(rec) -> bool:
    """Whether a record holds its raw channel as an array, not as the function of its bins."""
    return not isinstance(vars(rec)["i_omega_pem"], apparatus._RawIntensity)


class TestFusedLockIn:
    """The lock-in of a synthesized full record reduces each block as it is computed."""

    @pytest.mark.parametrize("chunk_map", ["one_worker", "four_workers", "reversed_chunks"])
    @pytest.mark.parametrize("config, source, noise, revolutions, oversample", FUSED_CASES,
                             ids=FUSED_IDS)
    def test_bit_identical_to_the_stored_channel(self, monkeypatch, chunk_map, config, source,
                                                 noise, revolutions, oversample):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: 4 if chunk_map == "four_workers"
                            else 1)
        if chunk_map == "reversed_chunks":
            monkeypatch.setattr(apparatus, "_map_ordered", reversed_map_ordered)

        def run():
            return synthesize_run(config, source, noise, revolutions / 3.0, fidelity="full",
                                  pem_oversample=oversample)

        fused, stored = run(), run()
        assert not is_stored(stored)
        stored.i_omega_pem
        assert is_stored(stored)
        ref, samples_per_bin = whole_array_full(config, source, noise, revolutions / 3.0,
                                                oversample)
        psi = whole_array_demodulate(ref["i_omega_pem"], config.incident_power_w, oversample,
                                     samples_per_bin)
        assert np.array_equal(demodulate(fused), psi)
        assert np.array_equal(demodulate(stored), psi)
        block_size = config.samples_per_revolution * revolutions
        est = analyze_record(fused, block_size=block_size)
        est_stored = analyze_record(stored, block_size=block_size)
        for name in ESTIMATE_FIELDS:
            assert getattr(est, name) == getattr(est_stored, name), name
        assert not is_stored(fused)
        # read after the analysis, the channel has the bytes of a whole-record synthesis
        assert fused.i_omega_pem.tobytes() == ref["i_omega_pem"].tobytes()
        assert is_stored(fused)

    def test_memory_does_not_depend_on_the_length(self, monkeypatch):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: 2)
        np.random.default_rng()  # numpy imports numpy.random lazily; keep that out of the peaks
        for revolutions in (64, 256):
            tracemalloc.start()
            try:
                rec = synthesize_run(CFG, FixedEllipticitySource(1e-6), RIN_AND_TONE,
                                     revolutions / 3.0, fidelity="full")
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                n = len(rec)
                len_peak = tracemalloc.get_traced_memory()[1] - held
                analyze_record(rec, block_size=CFG.samples_per_revolution * revolutions)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            samples_per_bin = rec.metadata["samples_per_output_bin"]
            chunk_bytes = _CHUNK_BINS * samples_per_bin * 8
            assert n == revolutions * CFG.samples_per_revolution * samples_per_bin
            # len allocates no more than the int it returns
            assert len_peak < 100
            assert not is_stored(rec)
            # up to 6 block-sized arrays per worker, the detector noise drawn into one of
            # them, a block being ~0.11 chunk: measured 0.94-0.96 chunks at both lengths
            assert peak < 2 * chunk_bytes, revolutions


def lock_in_record(oversample):
    """Three revolutions of the default config with a tone, ellipticity and detector noise."""
    return synthesize_run(CFG, FixedEllipticitySource(1e-6), RIN_AND_TONE, 3 / 3.0,
                          fidelity="full", pem_oversample=oversample)


def mean_lock_in(rows, oversample):
    """The lock-in kernel before einsum: ``2 np.mean(rows * ref)`` per reference."""
    phase_idx = np.arange(rows.shape[1]) % oversample
    return np.stack([2.0 * np.mean(rows * np.cos(k * math.pi * phase_idx / oversample), axis=1)
                     for k in (2.0, 4.0)])


class TestLockInKernel:
    """Each output bin is reduced by one multiply-accumulate pass over its raw samples."""

    # at 32 raw samples per PEM cycle a bin holds 16 672
    @pytest.mark.parametrize("oversample", [8, 16, 32])
    def test_bins_do_not_depend_on_the_block_partition(self, monkeypatch, oversample):
        blocks = pipeline._blocks
        sizes = []

        def recorded_blocks(n, samples_per_bin, size):
            bounds = list(blocks(n, samples_per_bin, size))
            sizes.append({(stop - start) // samples_per_bin for start, stop in bounds[:-1]})
            return bounds

        monkeypatch.setattr(pipeline, "_blocks", recorded_blocks)
        spb = None
        results = []
        for bins in (None, 1, _CHUNK_BINS):  # None: the default block
            if bins is not None:
                for module in (apparatus, pipeline):
                    monkeypatch.setattr(module, "_BLOCK_SAMPLES", bins * spb)
            rec = lock_in_record(oversample)
            spb = rec.metadata["samples_per_output_bin"]
            fused = demodulate(rec)
            rec.i_omega_pem  # stored: demodulated from views of the array
            assert is_stored(rec)
            results += [fused, demodulate(rec)]
        assert sizes[0] == sizes[1] == {_BLOCK_SAMPLES // spb}
        assert sizes[2] == sizes[3] == {1}
        assert sizes[4] == sizes[5] == {_CHUNK_BINS}
        assert 1 < _BLOCK_SAMPLES // spb < _CHUNK_BINS
        for psi in results[1:]:
            assert psi.tobytes() == results[0].tobytes()

    @pytest.mark.parametrize("oversample", [8, 16, 32])
    def test_bins_are_within_1e_13_of_the_terms_of_an_exact_sum(self, oversample):
        rec = lock_in_record(oversample)
        lock = pipeline._digital_lock_in(rec)
        rows = rec.i_omega_pem.reshape(lock.shape[1], -1)
        spb = rows.shape[1]
        phase_idx = np.arange(spb) % oversample
        for k, (einsum_row, mean_row) in enumerate(zip(lock, mean_lock_in(rows, oversample))):
            terms = rows * np.cos(2.0 * (k + 1) * math.pi * phase_idx / oversample)
            exact = np.array([2.0 * math.fsum(row) / spb for row in terms])
            bound = 1e-13 * 2.0 * np.sum(np.abs(terms), axis=1) / spb
            assert np.all(np.abs(einsum_row - exact) <= bound), k
            assert np.all(np.abs(mean_row - exact) <= bound), k


def memory_peaks(monkeypatch, workers):
    """``(record, synthesis peak, lock-in peak above the record)`` of a 64-revolution full run.

    The synthesis peak includes building the raw array, which synthesis
    itself leaves to the first read of ``i_omega_pem``; the lock-in runs on
    that stored array.
    """
    monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
    np.random.default_rng()  # numpy imports numpy.random lazily; keep that out of the peaks
    tracemalloc.start()
    try:
        rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), RIN_AND_TONE, 64 / 3.0,
                             fidelity="full")
        rec.i_omega_pem
        synth_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        demodulate(rec)
        demod_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return rec, synth_peak, demod_peak


def reversed_map_ordered(func, items):
    """A ``_map_ordered`` that runs the items it may hold in flight last first.

    It takes the items in windows of ``_in_flight()``, the most
    ``_map_ordered`` holds in flight, runs each window's items in reverse
    order and yields their results in order.
    """
    items = iter(items)
    window = apparatus._in_flight()
    while taken := list(islice(items, window)):
        yield from reversed([func(item) for item in reversed(taken)])


class TestChunkWorkers:
    # 24 revolutions are 768 output bins, 12 blocks of _CHUNK_BINS = 64 bins
    def full_run(self, path):
        rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), RIN_AND_TONE,
                             24 / 3.0, fidelity="full", pem_oversample=8)
        assert len(rec) >= 8 * _CHUNK_BINS * rec.metadata["samples_per_output_bin"]
        write_record(rec, path)  # the writer computes the blocks as it formats them
        psi = demodulate(rec)  # so does the lock-in, then the array is built
        assert not is_stored(rec)
        return path.read_bytes(), rec.i_omega_pem, psi

    def test_samples_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        ref, samples_per_bin = whole_array_full(SMALL_FULL, FixedEllipticitySource(1e-6),
                                                RIN_AND_TONE, 24 / 3.0, 8)
        psi = whole_array_demodulate(ref["i_omega_pem"], SMALL_FULL.incident_power_w, 8,
                                     samples_per_bin)
        written = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out shared writes
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
                text, raw, psi_workers = self.full_run(tmp_path / f"w{workers}.csv")
                written.append(text)
                assert np.array_equal(raw, ref["i_omega_pem"]), workers
                assert np.array_equal(psi_workers, psi), workers
        finally:
            sys.setswitchinterval(interval)
        assert written[1] == written[0] and written[2] == written[0]


class TestDrawnAhead:
    """The blocks of a pass are computed ahead of the caller on the ``_map_ordered`` workers."""

    @staticmethod
    def lazy_and_stored(monkeypatch, workers):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        lazy, stored = (synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=3),
                                       5 * _BLOCK_SAMPLES / 32 / 3.0) for _ in range(2))
        return vars(lazy)["i_omega_pem"], stored.i_omega_pem

    def test_a_block_in_flight_is_not_drawn_over(self, monkeypatch):
        channel, stored = self.lazy_and_stored(monkeypatch, 2)
        # 40 blocks: many more than the 4 in flight on 2 workers
        bounds = list(apparatus._blocks(len(stored), 1, _BLOCK_SAMPLES // 8))
        assert len(bounds) == 40

        def held(start: int, stop: int, samples: np.ndarray) -> bool:
            filled = samples.copy()
            time.sleep(0.005)  # the other worker computes the blocks ahead meanwhile
            return np.array_equal(samples, filled) and np.array_equal(filled, stored[start:stop])

        assert all(apparatus._walk(channel, bounds, held))

    def test_a_failed_draw_raises_and_a_closed_pass_stops_its_helper(self, monkeypatch):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: 2)

        def draw(target):
            if target[0] == 3:
                raise ArithmeticError("draw 3")
            return target

        targets = [np.full(2, float(i)) for i in range(8)]
        before = set(threading.enumerate())
        with pytest.raises(ArithmeticError, match="draw 3"):
            for _ in apparatus._map_ordered(draw, targets):
                pass
        assert set(threading.enumerate()) <= before
        drawn = apparatus._map_ordered(lambda t: t, targets)
        next(drawn)
        assert not set(threading.enumerate()) <= before  # the pass runs on worker threads
        drawn.close()
        assert set(threading.enumerate()) <= before


def whole_array_fast(config, source, noise, duration_s):
    """Reference fast synthesis: every channel built over the whole record and stored."""
    n_out = _check_duration(config, duration_s) * config.samples_per_revolution
    t_out = np.arange(n_out) / config.sample_rate_hz
    eps_noise = whole_array_noise(config, noise, n_out)
    i0 = config.incident_power_w
    eta0 = config.pem_depth
    theta = (2.0 * math.pi * config.magnet_rotation_hz * t_out + config.polarizer_angle_rad) % (
        2.0 * math.pi
    )
    signal = source_ellipticity(source, config) * np.sin(
        2.0 * (2.0 * math.pi * config.magnet_rotation_hz * t_out + config.polarizer_angle_rad)
    )
    psi_t = signal + noise.alpha_of(t_out) + eps_noise
    ch_omega = 2.0 * i0 * eta0 * psi_t
    if noise.detector_white_noise > 0.0:
        ch_omega = ch_omega + i0 * noise.detector_white_noise * page_normals(
            noise.rng_seed, 1, 1, n_out)
    channels = (t_out, ch_omega, np.full(n_out, 0.5 * i0 * eta0**2), np.full(n_out, i0), theta)
    return dict(zip(CHANNELS, channels))


# (config, source, noise) of fast records, one per combination of terms
LEAN_FAST_CASES = [
    (CFG, NullSource(), NoiseModel(1e-6, rng_seed=3)),
    (CFG, NullSource(), QUIET),
    (CFG, GasSource("He", 3e-5), NoiseModel(1e-6, rng_seed=4)),
    # negative, so the signal starts at -0.0
    (CFG, FixedEllipticitySource(-1e-7), QUIET),
    (CFG, NullSource(), NoiseModel(1e-6, 0.0, ((0.7, 1e-6, 0.3), (5.0, 2e-7, 1.0)), 5)),
    (CFG, GasSource("He", 3e-5), NoiseModel(1e-6, 1e-4, rng_seed=7)),
    (CFG, FixedEllipticitySource(1e-7), NoiseModel(0.0, 1e-4, rng_seed=8)),
    (CFG, GasSource("He", 3e-5), NoiseModel(1e-6, 1e-4, ((0.7, 1e-6, 0.3),), 9)),
]
LEAN_FAST_IDS = ["null_noise", "null_quiet", "gas", "fixed_ellipticity", "spurious_tones",
                 "detector_noise", "detector_noise_only", "every_term"]


class TestLeanFastSynthesis:
    @pytest.mark.parametrize("config, source, noise", LEAN_FAST_CASES, ids=LEAN_FAST_IDS)
    def test_bit_identical_to_whole_array(self, config, source, noise):
        rec = synthesize_run(config, source, noise, 32 / 3.0)
        ref = whole_array_fast(config, source, noise, 32 / 3.0)
        for name in CHANNELS:
            assert np.array_equal(getattr(rec, name), ref[name]), name
        assert np.array_equal(np.signbit(rec.i_omega_pem), np.signbit(ref["i_omega_pem"]))

    @pytest.mark.parametrize("source, noise", [
        (NullSource(), NoiseModel(1e-6, rng_seed=3)),
        (GasSource("He", 3e-5), NoiseModel(1e-6, 1e-4, ((0.7, 1e-6, 0.3),), 9)),
    ], ids=["null_noise", "every_term"])
    def test_bit_identical_across_blocks(self, source, noise):
        # 4128 revolutions span two blocks of _BLOCK_SAMPLES samples and part of a third
        rec = synthesize_run(CFG, source, noise, 4128 / 3.0)
        ref = whole_array_fast(CFG, source, noise, 4128 / 3.0)
        assert len(rec) > 2 * apparatus._BLOCK_SAMPLES
        assert np.array_equal(rec.i_omega_pem, ref["i_omega_pem"])
        assert np.array_equal(np.signbit(rec.i_omega_pem), np.signbit(ref["i_omega_pem"]))

    @pytest.mark.parametrize("source, noise", [
        (NullSource(), NoiseModel(3e-7, rng_seed=5)),
        (GasSource("He", 3e-5), NoiseModel(3e-7, 0.0, ((0.7, 1e-6, 0.3), (5.0, 2e-7, 1.0)), 6)),
    ], ids=["null", "gas_and_tones"])
    def test_channel_is_built_in_the_draw(self, source, noise):
        np.random.default_rng()  # numpy imports numpy.random lazily; keep that out of the peak
        tracemalloc.start()
        try:
            # the run length of the null campaign: 211 blocks
            rec = synthesize_run(CFG, source, noise, 211 * 256 / 3.0)
            assert not is_stored(rec)
            channel = rec.i_omega_pem  # the first read builds the channel
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * channel.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_analysis_memory_does_not_depend_on_the_length(self, monkeypatch, workers):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        # a first analysis pays numpy's lazy imports and the FFT's one-time set-up
        analyze_record(synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=1), 256.0))
        # each worker's chunk, drawn and divided in place, its spectra and their
        # amplitudes: measured 2.8 (1 worker) and 5.2-6.0 (2 workers) chunks at both lengths
        bound = 7 * _BLOCK_SAMPLES * 8
        assert bound < 0.5 * 211 * 8192 * 8
        for n_blocks in (211, 844):
            tracemalloc.start()
            try:
                rec = synthesize_run(CFG, NullSource(), NoiseModel(3e-7, rng_seed=5),
                                     n_blocks * 256 / 3.0)
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                n = len(rec)
                len_peak = tracemalloc.get_traced_memory()[1] - held
                analyze_record(rec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert n == n_blocks * 8192
            # len allocates no more than the int it returns
            assert len_peak < 100
            assert not is_stored(rec)
            assert peak < bound, n_blocks

    def test_records_store_only_the_varying_channel(self, tmp_path):
        fast = synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=1), 8 / 3.0)
        full = synthesize_run(SMALL_FULL, NullSource(), QUIET, 2 / 3.0, fidelity="full")
        varying_i0 = replace(fast, i0=fast.i0 * (1.0 + 1e-6 * np.arange(len(fast))))
        read = []
        for name, rec in (("fast", fast), ("full", full), ("varying_i0", varying_i0)):
            write_record(rec, tmp_path / f"{name}.csv")
            read.append(read_record(tmp_path / f"{name}.csv"))
        synthesized = (fast, full, truncated(fast, 64))
        for rec in synthesized + tuple(read):
            assert not {"time", "magnet_phase"} & set(vars(rec))
        for rec in synthesized + tuple(read[:2]):
            assert rec.i0.strides == (0,) and rec.i_2omega_pem.strides == (0,)
        # a read record does not keep the whole (n, 5) array of the file alive
        for rec in read:
            for name in ("i_omega_pem", "i0"):
                base = getattr(rec, name).base
                assert base is None or base.shape != (len(rec), len(RECORD_COLUMNS)), name
        back = read[2]
        assert back.i0.flags.c_contiguous and back.i_2omega_pem.strides == (0,)
        written = np.array([float(_FMT % v) for v in varying_i0.i0])
        assert np.array_equal(back.i0, written)


# a fast record with every term, and a full one with ellipticity and detector noise
EVERY_TERM = NoiseModel(1e-6, 1e-4, ((0.7, 1e-6, 0.3),), rng_seed=9)
NOISY_FULL = NoiseModel(1e-6, 1e-4, rng_seed=6)


def walked(rec, block_samples):
    """``(start, stop, copy of the samples)`` of a ``_walk`` in blocks of whole bins."""
    spb = rec.metadata.get("samples_per_output_bin", 1)
    bounds = apparatus._blocks(len(rec), spb, block_samples)
    return list(apparatus._walk(vars(rec)["i_omega_pem"], bounds,
                                lambda start, stop, samples: (start, stop, samples.copy())))


class TestNoisePages:
    """Each noise stream is a pure function of (seed, stream, page)."""

    @settings(max_examples=25, deadline=None)
    @given(revolutions=st.integers(1, 4200), block=st.one_of(
        st.integers(1000, 140_000), st.sampled_from([1 << k for k in range(10, 18)])),
        workers=st.sampled_from([1, 2, 4]))
    def test_fast_blocks_equal_the_reference(self, revolutions, block, workers):
        rec = synthesize_run(CFG, GasSource("He", 3e-5), EVERY_TERM, revolutions / 3.0)
        ref = whole_array_fast(CFG, GasSource("He", 3e-5), EVERY_TERM, revolutions / 3.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(apparatus, "_chunk_workers", lambda: workers)
            blocks = walked(rec, block)
        assert blocks[-1][1] == len(rec)
        for start, stop, samples in blocks:
            assert samples.tobytes() == ref["i_omega_pem"][start:stop].tobytes(), start

    @settings(max_examples=15, deadline=None)
    @given(revolutions=st.integers(1, 9), bins=st.integers(1, 200),
           workers=st.sampled_from([1, 2, 4]))
    def test_full_blocks_equal_the_reference(self, revolutions, bins, workers):
        rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), NOISY_FULL,
                             revolutions / 3.0, fidelity="full", pem_oversample=8)
        ref, spb = whole_array_full(SMALL_FULL, FixedEllipticitySource(1e-6), NOISY_FULL,
                                    revolutions / 3.0, 8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(apparatus, "_chunk_workers", lambda: workers)
            blocks = walked(rec, bins * spb)
        assert blocks[-1][1] == len(rec)
        for start, stop, samples in blocks:
            assert samples.tobytes() == ref["i_omega_pem"][start:stop].tobytes(), start

    @pytest.mark.parametrize("fidelity, short, long", [("fast", 2500, 4096), ("full", 3, 8)])
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, fidelity, short, long):
        # 2500 revolutions end partway through the second page of 65 536 samples; 3 revolutions
        # of SMALL_FULL end partway through the second page of 64 bins
        config, noise = (CFG, EVERY_TERM) if fidelity == "fast" else (SMALL_FULL, NOISY_FULL)
        a, b = (synthesize_run(config, FixedEllipticitySource(1e-6), noise, revs / 3.0,
                               fidelity=fidelity) for revs in (short, long))
        page = apparatus._step(a.metadata.get("samples_per_output_bin", 1), _BLOCK_SAMPLES)
        assert page < len(a) < 2 * page
        assert a.i_omega_pem.tobytes() == b.i_omega_pem[:len(a)].tobytes()
        assert not np.array_equal(b.i_omega_pem[len(a):2 * len(a)], a.i_omega_pem)

    def test_fast_and_full_records_share_the_ellipticity_noise(self):
        # without extinction, signal or tones, raw sample 0 of each bin is I0 (eta0 + eps)**2
        config = replace(SMALL_FULL, extinction=0.0)
        noise = NoiseModel(1e-6, rng_seed=12)
        # 4200 revolutions are 134 400 output samples: two pages and part of a third
        fast = synthesize_run(config, NullSource(), noise, 4200 / 3.0)
        full = synthesize_run(config, NullSource(), noise, 4200 / 3.0, fidelity="full")
        eps_fast = fast.i_omega_pem / (2.0 * config.incident_power_w * config.pem_depth)
        first = full.i_omega_pem[::full.metadata["samples_per_output_bin"]]
        eps_full = np.sqrt(first / config.incident_power_w) - config.pem_depth
        assert len(eps_full) == len(eps_fast) > 2 * _BLOCK_SAMPLES
        assert np.allclose(eps_full, eps_fast, rtol=1e-8, atol=0.0)

    @staticmethod
    def count_pages(monkeypatch) -> list:
        """The ``(stream, page)`` of each page drawn from here on."""
        drawn = []
        page = synth._page

        def counted(seed, stream, p):
            drawn.append((stream, p))
            return page(seed, stream, p)

        monkeypatch.setattr(synth, "_page", counted)
        return drawn

    @staticmethod
    def pages(rec, stream, n=None) -> list:
        """Each ``(stream, page)`` of the first ``n`` samples (default: all) of a stream."""
        bin_samples = rec.metadata.get("samples_per_output_bin", 1)
        size = apparatus._step(bin_samples if stream else 1, _BLOCK_SAMPLES)
        n = (len(rec) if stream else len(rec) // bin_samples) if n is None else n
        return [(stream, p) for p in range(-(-n // size))]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_each_pass_draws_each_page_once(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        drawn = self.count_pages(monkeypatch)
        # 4128 revolutions are 132 096 samples: two pages and part of a third
        fast = synthesize_run(CFG, GasSource("He", 3e-5), EVERY_TERM, 4128 / 3.0)
        both = self.pages(fast, 0) + self.pages(fast, 1)
        assert drawn == [] and len(both) == 6
        for block_size in (512, 8192, 1 << 16, 1 << 17):
            drawn.clear()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message=".* trailing samples")
                analyze_record(fast, block_size=block_size)
            covered = len(fast) // block_size * block_size
            assert sorted(drawn) == self.pages(fast, 0, covered) + self.pages(fast, 1, covered)
        for kind in ("fast", "full"):
            rec = fast if kind == "fast" else synthesize_run(
                SMALL_FULL, FixedEllipticitySource(1e-6), NOISY_FULL, 9 / 3.0, fidelity="full")
            detector = self.pages(rec, 1)
            expected = sorted(both if kind == "fast" else detector)
            if kind == "full":
                assert len(detector) > 3
                drawn.clear()
                demodulate(rec)
                assert sorted(drawn) == expected, "lock-in"
            drawn.clear()
            write_record(rec, tmp_path / f"{kind}.csv")
            assert sorted(drawn) == expected, f"{kind} write"
            drawn.clear()
            rec.i_omega_pem
            assert sorted(drawn) == expected, f"{kind} array build"


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=8)
        rec = synthesize_run(CFG, GasSource("He", 3e-5), noise, 8 / 3.0)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        back = read_record(path)
        assert len(back) == len(rec)
        assert back.fidelity == "fast"
        assert back.config.content_hash() == rec.config.content_hash()
        assert back.seed == 8
        assert back.source_description == rec.source_description
        for name in ("i_omega_pem", "i_2omega_pem", "i0"):
            written = np.array([float(_FMT % v) for v in getattr(rec, name)])
            np.testing.assert_array_equal(getattr(back, name), written, err_msg=name)
        # the reader checks the written time and phase columns, then derives them again
        for name in ("time", "magnet_phase"):
            np.testing.assert_array_equal(getattr(back, name), getattr(rec, name), err_msg=name)

    def test_write_is_deterministic(self, tmp_path):
        rec = synthesize_run(CFG, NullSource(), NoiseModel(1e-7, rng_seed=1), 8 / 3.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_record(rec, p1)
        write_record(rec, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_full_fidelity_round_trip(self, tmp_path):
        rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), QUIET, 2 / 3.0,
                             fidelity="full", pem_oversample=8)
        path = tmp_path / "full.csv"
        write_record(rec, path)
        back = read_record(path)
        assert back.fidelity == "full"
        assert int(float(back.metadata["pem_oversample"])) == 8
        from vmbsim.pipeline import demodulate

        assert np.allclose(demodulate(back), demodulate(rec), rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("rotation_hz", [2.71828183, 3.14159265])
    @pytest.mark.parametrize("fidelity", ["fast", "full"])
    def test_duration_does_not_change_on_a_read(self, tmp_path, rotation_hz, fidelity):
        # both rates round-trip through the header's 9 digits, the grid rate does not
        full = {"pem_frequency_hz": 960.0} if fidelity == "full" else {}
        config = ApparatusConfig(magnet_rotation_hz=rotation_hz, **full)
        rec = synthesize_run(config, NullSource(), NoiseModel(1e-6, rng_seed=4),
                             32 / rotation_hz, fidelity=fidelity)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        back = read_record(path)
        assert back.config == config
        assert (analyze_record(back, block_size=1024).duration_s
                == analyze_record(rec, block_size=1024).duration_s)


def savetxt_record(record, path):
    """Reference writer: the header lines, then np.savetxt formatting row by row."""
    buf = io.StringIO()
    for key, value in record.header_items():
        value_s = format_number(value) if isinstance(value, float) else str(value)
        buf.write(f"# {key} = {value_s}\n")
    buf.write("# columns = " + ", ".join(RECORD_COLUMNS) + "\n")
    cols = np.column_stack(
        [record.time, record.i_omega_pem, record.i_2omega_pem, record.i0, record.magnet_phase]
    )
    np.savetxt(buf, cols, fmt=_FMT, delimiter=", ")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _text(values, columns=1) -> bytes:
    rows = np.array(values, dtype=float).reshape(-1, columns)
    return "".join(", ".join(_FMT % v for v in row) + "\n" for row in rows.tolist()).encode()


FORMAT_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),                   # whole exponent range, nan, inf
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda k, m: k / 2**m, st.integers(-(2**53), 2**53), st.integers(0, 80)),
    st.floats(min_value=1e100, max_value=1.7e308) | st.floats(min_value=1e-300, max_value=1e-100),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf,
                     math.nan, 10000.03125, 9.999999995e5, 1e290, -1e-290, 1e22, 1e23]),
)


class TestRecordFormatter:
    @given(st.lists(FORMAT_VALUES, min_size=1, max_size=40))
    @example([10000.03125, 0.5 ** 30, 3 / 2**40, 0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan])
    @example([1.23456789e-100, -9.87654321e+255, 1e-308, 1.7976931348623157e308])
    def test_matches_percent_format(self, values):
        assert _format_rows([np.array(values)]) == _text(values)

    @given(st.lists(FORMAT_VALUES, min_size=5, max_size=40).map(lambda v: v[: len(v) // 5 * 5]))
    def test_rows_match_savetxt_layout(self, values):
        assert _format_rows(np.array(values).reshape(-1, 5).T) == _text(values, columns=5)

    def test_bulk_against_percent_format(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
            rng.integers(1, 2**40, 20_000) / 2.0 ** rng.integers(0, 40, 20_000),  # decimal ties
            np.arange(20_000) / 96.0,                                              # a time column
            10.0 ** np.arange(-300, 300),
            np.nextafter(10.0 ** np.arange(-300, 300), 0.0),                       # under 10**k
        ])
        assert _format_rows([values]) == _text(values)

    def test_write_record_matches_savetxt(self, tmp_path):
        # 9/8 of the writer's row blocks: more than one, the last one partial
        rows = apparatus._WRITE_ROWS * 9 // 8
        fast = synthesize_run(CFG, GasSource("He", 3e-5), NoiseModel(1e-6, rng_seed=8),
                              rows / CFG.sample_rate_hz)
        assert apparatus._WRITE_ROWS < len(fast) < 2 * apparatus._WRITE_ROWS
        full = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), QUIET, 4 / 3.0,
                              fidelity="full", pem_oversample=8)
        for rec in (fast, full):
            new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
            write_record(rec, new)
            savetxt_record(rec, ref)
            assert new.read_bytes() == ref.read_bytes()

    def test_reader_memory_is_bounded(self, tmp_path, monkeypatch):
        rec = synthesize_run(CFG, NullSource(), NoiseModel(1e-7, rng_seed=2), 8192 / 3.0)
        path = tmp_path / "long.csv"
        write_record(rec, path)
        assert path.stat().st_size > 16 * apparatus._READ_BYTES
        np.random.default_rng()  # numpy imports numpy.random lazily; keep that out of the peak
        for workers in (1, 2):
            monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
            tracemalloc.start()
            try:
                back = read_record(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the stored column, plus 9 reader blocks of 512 KiB per worker: the bound of
            # 512 KiB blocks, in bytes, so that larger blocks must keep their temporaries
            assert peak < back.i_omega_pem.nbytes + 9 * workers * 2**19, workers

    def test_a_record_with_cr_line_ends_reads_as_its_newline_copy(self, tmp_path, monkeypatch):
        rec = synthesize_run(CFG, NullSource(), NoiseModel(1e-7, rng_seed=2), 8192 / 3.0)
        path = tmp_path / "long.csv"
        write_record(rec, path)
        expected = read_record(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert path.stat().st_size > 16 * apparatus._READ_BYTES
        np.random.default_rng()  # numpy imports numpy.random lazily; keep that out of the peak
        for workers in (1, 2):
            monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
            tracemalloc.start()
            try:
                back = read_record(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the bound of the "\n" read above
            assert peak < back.i_omega_pem.nbytes + 9 * workers * 2**19, workers
            assert back.metadata == expected.metadata
            for name in ("i_omega_pem", "i_2omega_pem", "i0"):
                assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(expected, name)))

    def test_writer_memory_is_bounded(self, tmp_path, monkeypatch):
        rec = synthesize_run(CFG, NullSource(), NoiseModel(1e-7, rng_seed=2), 8192 / 3.0)
        rec.i_omega_pem  # a held record: the peak is the writer's working set above it
        assert len(rec) >= 16 * apparatus._WRITE_ROWS
        # float64 rows of 8192-row pieces: the bound of those pieces, in bytes, so that
        # larger pieces must keep their temporaries
        block_bytes = 8192 * len(RECORD_COLUMNS) * 8
        for workers in (1, 2):
            monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
            tracemalloc.start()
            try:
                write_record(rec, tmp_path / "long.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # independent of the record length; the pieces' words and text are in the
            # writer's maps, which tracemalloc does not see (and which
            # test_pieces_are_formatted_in_maps_put_back_once_written counts)
            assert peak < 14 * workers * block_bytes, workers

    @pytest.mark.parametrize("rin", [0.0, 1e-4], ids=["quiet_detector", "detector_noise"])
    def test_a_kept_record_is_written_without_its_array(self, tmp_path, monkeypatch, rin):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: 1)
        # small blocks, so that a short record's array is many times the writer's working set
        monkeypatch.setattr(apparatus, "_WRITE_ROWS", 1024)
        np.random.default_rng()  # numpy imports numpy.random lazily; keep that out of the peak
        noise = NoiseModel(1e-6, rin, ((0.7, 1e-6, 0.3),), rng_seed=5)
        bound = 14 * apparatus._WRITE_ROWS * len(RECORD_COLUMNS) * 8
        for revolutions in (30, 120):
            rec = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), noise,
                                 revolutions / 3.0, fidelity="full")
            if revolutions == 30:
                assert bound < 0.5 * 8 * len(rec)
            tracemalloc.start()
            try:
                write_record(rec, os.devnull)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # ~12.6 blocks of float64 rows, a noise page (10 blocks) and the rows being
            # formatted, at both lengths
            assert peak < bound, revolutions
            assert not is_stored(rec)
        stored = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), noise, 30 / 3.0,
                                fidelity="full")
        stored.i_omega_pem
        kept = synthesize_run(SMALL_FULL, FixedEllipticitySource(1e-6), noise, 30 / 3.0,
                              fidelity="full")
        write_record(kept, tmp_path / "kept.csv")
        write_record(stored, tmp_path / "stored.csv")
        assert not is_stored(kept) and is_stored(stored)
        assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "stored.csv").read_bytes()


def _block(text: bytes) -> np.ndarray:
    """A reader block: whole rows between the padding newlines."""
    return np.frombuffer(b"\n" * _PAD + text + b"\n" * _PAD, dtype=np.uint8)


def _loadtxt(text: bytes) -> np.ndarray:
    return np.loadtxt(io.StringIO(text.decode()), delimiter=",", comments="#", ndmin=2)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


FINITE_VALUES = FORMAT_VALUES.filter(math.isfinite)


class TestRecordDecoder:
    @given(st.lists(FINITE_VALUES, min_size=5, max_size=60).map(lambda v: v[: len(v) // 5 * 5]))
    # 3-digit exponents, |e - 8| > 22 on both sides, -0.0 and the edges of the fast path
    @example([1.23456789e-100, -9.87654321e+255, 1e-308, 5e-324, -0.0,
              1e-15, -9.99999999e-15, 1e-14, 1e30, 9.99999999e30,
              1e31, -1.7976931348623157e308, 0.0, 123456789.0, 1e22])
    def test_canonical_rows_match_loadtxt(self, values):
        text = _text(values, columns=5)
        decoded = _decode_rows(_block(text))
        assert decoded is not None
        assert np.array_equal(_bits(decoded), _bits(_loadtxt(text)))

    def test_bulk_matches_loadtxt(self):
        rng = np.random.default_rng(12)
        values = np.concatenate([
            rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(40_000) * 10.0 ** rng.integers(-40, 40, 40_000),
        ])
        values = values[np.isfinite(values)][:75_000]
        text = _text(values, columns=5)
        assert np.array_equal(_bits(_decode_rows(_block(text))), _bits(_loadtxt(text)))

    @pytest.mark.parametrize("row", [
        b"0.5, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"1.00000000e+00,1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"+1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"1.00000000e+00, 1.00000000E+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"1.00000000e+00, 1.0000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"1.00000000e+00, 1.00000000e+0, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00 \n",
        b"1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\r\n",
        b"1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
        b"# 1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00, 1.0e+00\n",
        b"\n",
        b"1.00000000e+00, nan, 1.00000000e+00, 1.00000000e+00, 1.00000000e+00\n",
    ], ids=["short_cell", "no_space", "plus_sign", "capital_e", "eight_digits",
            "one_exponent_digit", "trailing_space", "crlf", "four_cells", "comment", "blank", "nan"])
    def test_other_rows_are_left_to_loadtxt(self, row):
        canonical = _text(np.arange(10.0), columns=5)
        assert _decode_rows(_block(canonical)) is not None
        assert _decode_rows(_block(canonical + row + canonical)) is None


# cells that np.loadtxt reads, and cells it refuses, in the text of a record row
READ_CELLS = ["1.5", "-0.0", ".5", "5.", "+1", "1E3", "00012", "1e-400", "4.9e-324", "1e500",
              "-1e500", "Infinity", "iNf", "-inf", "+nan", "-nan", "NaN",
              "1.00000000e+00", "-1.23456789e-100", "1.7976931348623157e308"]
REFUSED_CELLS = ["nan(1)", "1_0", "0x10", "\u0661", "\uff11", "abc", "", "--1", "1e"]
# padding on either side of a cell: ASCII, C1 and Unicode blanks, none of them a line end
# in a reader block
PADDING = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2000",
           "\u2028", "\u3000"]


def _padded(cells):
    return st.builds(lambda a, cell, b: a + cell + b, st.sampled_from(PADDING), cells,
                     st.sampled_from(PADDING))


ROW_LINES = st.builds(lambda cells, comment: ",".join(cells) + comment,
                      st.lists(_padded(st.sampled_from(READ_CELLS + REFUSED_CELLS)),
                               min_size=4, max_size=6)
                      | st.lists(_padded(st.sampled_from(READ_CELLS)), min_size=5, max_size=5),
                      st.sampled_from(["", "#", " # a, b"]))
# comment lines, blank lines and lines of blanks, which are rows of one field
OTHER_LINES = st.sampled_from(["# note = x", "#", "", "  # indented", " ", "\t", "\xa0"])


class TestBlockParser:
    """Rows that are not canonical are read by one set of rules, those of ``np.loadtxt``."""

    @given(st.lists(ROW_LINES | OTHER_LINES, min_size=1, max_size=8))
    @example(["# a comment", ",".join(READ_CELLS[:5]), "", ",".join(READ_CELLS[5:10]) + "# c",
              ",".join(READ_CELLS[10:15]), ",".join(READ_CELLS[15:])])
    @example(["1, 2, 3, 4"] * 3)
    @example(["1.5,2,3,4,5", "abc,1,2,3,4"])  # a refused cell in the first column
    @example(["\xa01.5\u3000,\x1c-0.0\x1f,\x85+1, 5. ,\u2000Infinity\u2028"])
    def test_rows_are_those_loadtxt_reads(self, lines):
        text = "".join(line + "\n" for line in lines).encode()
        values, at, fault = _block_rows(_block(text))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a block of comment lines holds no data
                expected = _loadtxt(text)
        except ValueError:
            expected = None
        if expected is not None and expected.size and expected.shape[1] != 5:
            expected = None  # a record row has 5 fields
        assert (fault is None) == (expected is not None), fault
        if fault is None:
            assert np.array_equal(_bits(values), _bits(expected.reshape(-1, 5)))
            # each row's line in the block, then the line that follows the block
            rows = [i for i, line in enumerate(lines) if line.partition("#")[0]]
            assert list(at) == rows + [len(lines)]
        else:
            row, line, reason = fault
            assert line < len(lines) and reason
            assert row == sum(bool(before.partition("#")[0]) for before in lines[:line])


class TestStreamingReader:
    """A record read in many small blocks, with faults placed in different blocks."""

    @pytest.fixture()
    def lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(apparatus, "_READ_BYTES", 4096)  # ~50 rows per block
        rec = synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=4), 64 / 3.0)
        write_record(rec, tmp_path / "rec.csv")
        lines = (tmp_path / "rec.csv").read_bytes().splitlines(keepends=True)
        self.first = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
        return lines

    def edit(self, lines, row, col, cell: bytes):
        cells = lines[self.first + row].rstrip(b"\n").split(b", ")
        cells[col] = cell
        lines[self.first + row] = b", ".join(cells) + b"\n"

    @given(st.lists(st.sampled_from([b"a", b"#", b"\r", b"\n", b"\r\n"]), max_size=30)
           .map(b"".join), st.integers(1, 8))
    def test_lines_end_where_text_mode_ends_them(self, data, read_bytes):
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
        with mock.patch.object(apparatus, "_READ_BYTES", read_bytes):
            blocks = [bytes(b[apparatus._PAD:-apparatus._PAD])
                      for b in apparatus._text_blocks(io.BytesIO(data))]
        # every block holds whole lines, each ended by "\n" but the file's last
        assert [line for b in blocks for line in b.decode().splitlines(keepends=True)] == text

    def test_a_crlf_across_two_blocks_is_one_line_end(self, monkeypatch):
        monkeypatch.setattr(apparatus, "_READ_BYTES", 64)
        # the first 64 bytes end in the "\r" of a "\r\n"
        data = b"w\r" + b"x" * 61 + b"\r\n" + b"y" * 60 + b"\r" + b"z" * 70 + b"\r"
        blocks = [bytes(b[apparatus._PAD:-apparatus._PAD])
                  for b in apparatus._text_blocks(io.BytesIO(data))]
        # that "\r" goes with the next block, and every line end becomes "\n"
        assert blocks == [b"w\n", b"x" * 61 + b"\n" + b"y" * 60 + b"\n", b"z" * 70 + b"\n"]

    def test_crlf_record_with_an_indented_header_line(self, tmp_path, lines):
        # the header and the rows begin where one rule puts them, so the indented line is
        # a header line and not also a row of one field, with "\r\n" line ends and with
        # "\r" alone, where the whole file is one physical line
        expected = read_record(tmp_path / "rec.csv")
        lines.insert(3, b"  # note = x\n")
        for end in (b"\r\n", b"\r"):
            path = tmp_path / "crlf.csv"
            path.write_bytes(b"".join(line.replace(b"\n", end) for line in lines))
            back = read_record(path)
            assert back.metadata == {**expected.metadata, "note": "x"}
            for name in ("i_omega_pem", "i_2omega_pem", "i0"):
                assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(expected, name)))

    @pytest.mark.parametrize("end", [b"\n", b"\r"], ids=["lf", "cr"])
    def test_a_header_longer_than_a_block(self, tmp_path, lines, end):
        expected = read_record(tmp_path / "rec.csv")
        pad = [b"# pad_%d = x\n" % i for i in range(1000)]
        lines[1:1] = pad
        self.first += len(pad)
        assert len(b"".join(lines[:self.first])) > 3 * apparatus._READ_BYTES
        path = tmp_path / "padded.csv"
        path.write_bytes(b"".join(line.replace(b"\n", end) for line in lines))
        back = read_record(path)
        assert back.metadata == {**expected.metadata, **{f"pad_{i}": "x" for i in range(1000)}}
        for name in ("i_omega_pem", "i_2omega_pem", "i0"):
            assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(expected, name)))
        # the first row begins the rows of the block where the header ends
        self.edit(lines, 0, 1, b"abc")
        path.write_bytes(b"".join(line.replace(b"\n", end) for line in lines))
        with pytest.raises(ValueError) as err:
            read_record(path)
        assert (f"data row 1 (file line {self.first + 1}): 'abc' in column I_OmegaPEM is not "
                "a number") in str(err.value)

    @pytest.mark.parametrize("key, replacement", [
        (b"config_hash", b"# config_hash = 0123456789abcdef\n"),
        (b"sample_rate_hz", b"# sample_rate_hz = 1.00000000e+00\n"),
        (b"seed", b"#\n"),
    ], ids=["config_hash", "sample_rate_hz", "no_seed"])
    def test_a_bad_header_costs_only_its_own_blocks(self, tmp_path, lines, monkeypatch, key,
                                                    replacement):
        lines[1:1] = [b"# pad_%d = x\n" % i for i in range(1000)]
        at = next(i for i, line in enumerate(lines) if line.startswith(b"# %s = " % key))
        lines[at] = replacement
        path = tmp_path / "bad.csv"
        path.write_bytes(b"".join(lines))
        read = []
        text_blocks = apparatus._text_blocks

        def counted(fh, *free):
            for block in text_blocks(fh, *free):
                read.append(len(block))
                yield block

        monkeypatch.setattr(apparatus, "_text_blocks", counted)
        with pytest.raises(ValueError, match=key.decode()):
            read_record(path)
        refused_after = len(read)
        # the blocks that the header spans, as the header walk alone reads them
        read.clear()
        with open(path, "rb") as fh:
            apparatus._header(counted(fh), path)
        assert refused_after == len(read) >= 3
        assert path.stat().st_size > 8 * len(read) * apparatus._READ_BYTES

    @pytest.mark.parametrize("fault", ["malformed", "non_finite", "off_grid", "not_utf8",
                                       "repeated_key", "no_config_hash", "short"])
    def test_a_record_with_cr_line_ends_fails_as_its_newline_copy(self, tmp_path, lines, fault):
        row = self.first + 1500
        if fault == "malformed":
            self.edit(lines, 1500, 1, b"abc")
        elif fault == "non_finite":
            self.edit(lines, 1500, 2, b"inf")
        elif fault == "off_grid":
            self.edit(lines, 1500, 4, b"5.00000000e-01")
        elif fault == "not_utf8":
            lines[row] = b"\xff" + lines[row]
        elif fault == "repeated_key":
            lines.insert(3, lines[2])
        elif fault == "no_config_hash":
            lines = [line for line in lines if not line.startswith(b"# config_hash")]
        else:
            del lines[row]
        path = tmp_path / "bad.csv"
        errors = []
        for end in (b"\n", b"\r"):
            path.write_bytes(b"".join(line.replace(b"\n", end) for line in lines))
            with pytest.raises(ValueError) as err:
                read_record(path)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_non_canonical_cells_read_as_loadtxt_reads_them(self, tmp_path, lines):
        # a middle block holds a valid cell in another notation and another I0
        self.edit(lines, 1000, 1, repr(float(lines[self.first + 1000].split(b", ")[1])).encode())
        self.edit(lines, 1001, 3, b"0.0011")
        path = tmp_path / "edited.csv"
        path.write_bytes(b"".join(lines))
        back = read_record(path)
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        for name, col in (("i_omega_pem", 1), ("i_2omega_pem", 2), ("i0", 3)):
            assert np.array_equal(_bits(getattr(back, name)), _bits(data[:, col])), name
        assert back.i0.flags.c_contiguous and back.i_2omega_pem.strides == (0,)

    @pytest.mark.parametrize("late_cell, message", [
        (b"abc", "data row 1801 (file line {}): 'abc' in column I_OmegaPEM is not a number"),
        (b"inf", "data row 1801 (file line {}): non-finite value in column I_OmegaPEM"),
    ], ids=["malformed", "non_finite"])
    def test_a_late_fault_is_reported_before_an_early_grid_fault(self, tmp_path, lines,
                                                               late_cell, message):
        self.edit(lines, 20, 4, b"5.00000000e-01")
        self.edit(lines, 1800, 1, late_cell)
        path = tmp_path / "bad.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError) as err:
            read_record(path)
        assert message.format(self.first + 1801) in str(err.value)
        # the early grid fault alone is named as before
        self.edit(lines, 1800, 1, b"0.00000000e+00")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="data row 21 .*: magnet_phase = 0.5"):
            read_record(path)

    @pytest.mark.parametrize("cell, reason", [
        (b"abc", "'abc' in column I_OmegaPEM is not a number"),
        (b"inf", "non-finite value in column I_OmegaPEM"),
    ], ids=["malformed", "non_finite"])
    def test_a_fault_in_the_last_row_is_named_from_one_reading(self, tmp_path, lines,
                                                              monkeypatch, cell, reason):
        n = len(lines) - self.first
        self.edit(lines, n - 1, 1, cell)
        path = tmp_path / "bad.csv"
        path.write_bytes(b"".join(lines))
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(apparatus, "_header", counted("_header", apparatus._header))
        monkeypatch.setattr(apparatus, "open", counted("open", open), raising=False)
        with pytest.raises(ValueError) as err:
            read_record(path)
        assert f"data row {n} (file line {self.first + n}): {reason}" in str(err.value)
        assert sorted(calls) == ["_header", "open"]

    @staticmethod
    def count_maps(monkeypatch) -> list:
        """The anonymous maps made from here on, as they are made."""
        maps = []
        make = mmap.mmap

        def counted(*args, **kwargs):
            maps.append(make(*args, **kwargs))
            return maps[-1]

        monkeypatch.setattr(mmap, "mmap", counted)
        return maps

    @pytest.mark.parametrize("workers", [1, 4])
    def test_blocks_are_read_into_maps_put_back_once_decoded(self, tmp_path, lines, monkeypatch,
                                                             capsys, workers):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        path = tmp_path / "rec.csv"
        path.write_bytes(b"".join(lines))
        maps = self.count_maps(monkeypatch)
        back = read_record(path)
        # the blocks that _map_ordered holds at once, and one on one worker
        held = apparatus._AHEAD_PER_WORKER * workers if workers > 1 else 1
        assert path.stat().st_size > 3 * held * apparatus._READ_BYTES
        assert len(maps) == held
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        for name, col in (("i_omega_pem", 1), ("i_2omega_pem", 2), ("i0", 3)):
            assert np.array_equal(_bits(getattr(back, name)), _bits(data[:, col])), name
        # a malformed row in a late block is named, and analyze exits 2
        self.edit(lines, 1800, 1, b"abc")
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert (f"data row 1801 (file line {self.first + 1801}): 'abc' in column I_OmegaPEM "
                "is not a number") in capsys.readouterr().err

    def test_a_line_longer_than_a_block_gets_a_larger_map(self, tmp_path, lines, monkeypatch):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: 2)
        lines.insert(self.first + 1000, b"# " + b"x" * (3 * apparatus._READ_BYTES) + b"\n")
        path = tmp_path / "long_line.csv"
        path.write_bytes(b"".join(lines))
        maps = self.count_maps(monkeypatch)
        back = read_record(path)
        assert max(len(m) for m in maps) > 3 * apparatus._READ_BYTES
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        assert np.array_equal(_bits(back.i_omega_pem), _bits(data[:, 1]))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("blocks", [4, 5, 9])
    def test_a_line_of_several_blocks_leaves_the_blocks_in_flight_alone(self, tmp_path, lines,
                                                                       monkeypatch, blocks,
                                                                       workers):
        # the reads that end no line of it yield no block, and take no other map; on one
        # worker the one map grows for it
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        lines.insert(self.first + 1000, b"# " + b"x" * (blocks * apparatus._READ_BYTES) + b"\n")
        path = tmp_path / "long_line.csv"
        path.write_bytes(b"".join(lines))
        back = read_record(path)
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        for name, col in (("i_omega_pem", 1), ("i_2omega_pem", 2), ("i0", 3)):
            assert np.array_equal(_bits(getattr(back, name)), _bits(data[:, col])), name

    def test_bytes_and_values_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(apparatus, "_WRITE_ROWS", 1000)
        monkeypatch.setattr(apparatus, "_READ_BYTES", 16384)
        rec = synthesize_run(CFG, GasSource("He", 3e-5), NoiseModel(1e-6, 1e-4, rng_seed=6),
                             256 / 3.0)
        written, read = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out shared writes
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
                path = tmp_path / f"w{workers}.csv"
                write_record(rec, path)
                written.append(path.read_bytes())
                read.append(read_record(path))
        finally:
            sys.setswitchinterval(interval)
        assert written[0].count(b"\n") > 8 * 1000
        assert written[1] == written[0] and written[2] == written[0]
        for back in read[1:]:
            for name in ("i_omega_pem", "i_2omega_pem", "i0"):
                assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(read[0], name)))


def odd_cells_record(rows: int):
    """A fast record whose I_OmegaPEM holds cells that the codec's fast paths leave to ``%``
    and ``float``: decimal ties, three-digit exponents, -0.0 and exponents past 10**22."""
    rng = np.random.default_rng(21)
    base = synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=21),
                          rows / CFG.sample_rate_hz)
    omega = np.array(base.i_omega_pem)
    k = np.arange(rows)
    ties = k % 7 == 1
    omega[ties] = rng.integers(1, 2**40, ties.sum()) / 2.0 ** rng.integers(0, 40, ties.sum())
    omega[k % 11 == 2] *= 1e-110
    omega[k % 13 == 3] = -0.0
    omega[k % 17 == 4] *= 1e-5
    return replace(base, i_omega_pem=omega, i_2omega_pem=np.broadcast_to(-0.0, rows))


class TestWorkUnits:
    """The bytes written, the values read and the errors reported do not depend on the
    writer's piece, the reader's block or the number of workers."""

    ROWS = 40_000  # past two pieces of 16384 rows, and three 1 MiB blocks of text

    @pytest.fixture(scope="class")
    def expected(self, tmp_path_factory):
        rec = odd_cells_record(self.ROWS)
        path = tmp_path_factory.mktemp("units") / "ref.csv"
        savetxt_record(rec, path)
        text = path.read_bytes()
        assert b"e-11" in text and b"-0.00000000e+00" in text  # "e-11x", three digits
        return rec, text, np.loadtxt(path, delimiter=",", comments="#", ndmin=2)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("read_bytes", [4096, 1 << 19, 1 << 20])
    @pytest.mark.parametrize("write_rows", [1000, 1 << 13, 1 << 14])
    def test_bytes_values_and_errors(self, tmp_path, monkeypatch, expected, write_rows,
                                     read_bytes, workers):
        rec, text, data = expected
        monkeypatch.setattr(apparatus, "_WRITE_ROWS", write_rows)
        monkeypatch.setattr(apparatus, "_READ_BYTES", read_bytes)
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        path = tmp_path / "rec.csv"
        write_record(rec, path)
        assert path.read_bytes() == text
        back = read_record(path)
        for name, col in (("i_omega_pem", 1), ("i_2omega_pem", 2), ("i0", 3)):
            assert np.array_equal(_bits(getattr(back, name)), _bits(data[:, col])), name
        # one malformed row, late in the file
        lines = text.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith(b"#"))
        row = self.ROWS - 123
        cells = lines[first + row].split(b", ")
        cells[1] = b"abc"
        lines[first + row] = b", ".join(cells)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError) as err:
            read_record(path)
        assert str(err.value) == (f"record file {path}, data row {row + 1} (file line "
                                  f"{first + row + 1}): 'abc' in column I_OmegaPEM is not a number")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pieces_are_formatted_in_maps_put_back_once_written(self, tmp_path, monkeypatch,
                                                                expected, workers):
        rec, text, _ = expected
        monkeypatch.setattr(apparatus, "_WRITE_ROWS", 1000)  # 40 pieces
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        maps = TestStreamingReader.count_maps(monkeypatch)
        write_record(rec, tmp_path / "rec.csv")
        # the pieces that _map_ordered holds at once and the one being written, and one
        # on one worker
        assert len(maps) == (apparatus._AHEAD_PER_WORKER * workers + 1 if workers > 1 else 1)
        assert (tmp_path / "rec.csv").read_bytes() == text

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            NoiseModel(rng_seed=-1)


class TestSourceParsing:
    def test_round_trip_specs(self):
        for spec, cls in [
            ("none", NullSource),
            ("qed", QedVacuumSource),
            ("fixed-deltanu:3.97e-24", FixedDeltanSource),
            ("fixed-ellipticity:1e-7", FixedEllipticitySource),
            ("gas:He:32ubar", GasSource),
        ]:
            src = parse_source(spec, CFG)
            assert isinstance(src, cls)

    @pytest.mark.parametrize("config", [CFG, ApparatusConfig(wavelength_m=532e-9,
                                                             field_length_m=2.4)],
                             ids=["default", "green"])
    def test_describe_parses_back_to_the_same_source(self, config):
        from vmbsim.constants import convert_pressure
        from vmbsim.models import AlpParams, McpParams

        energy = config.photon_energy_ev
        sources = [
            NullSource(),
            QedVacuumSource(),
            FixedDeltanSource(4e-23 / 3),
            FixedEllipticitySource(-1e-7 / 7),
            GasSource("He", convert_pressure(32.0, "ubar", "atm")),
            AlpSource(AlpParams(1e-6 / 3, 1e-3 / 7, energy, config.field_length_m)),
            McpSource(McpParams(1e-7 / 3, 0.5 / 7, energy, "scalar")),
        ]
        assert len({type(source) for source in sources}) == 7
        for source in sources:
            assert parse_source(source.describe(), config) == source

    def test_gas_pressure_units(self):
        src = parse_source("gas:He:32ubar", CFG)
        assert src.pressure_atm == pytest.approx(3.158154e-5, rel=1e-6)

    def test_alp_and_mcp(self):
        alp = parse_source("alp:g=1e-16,m=1e-3", CFG)
        assert alp.params.photon_energy_ev == pytest.approx(CFG.photon_energy_ev)
        mcp = parse_source("mcp:scalar:eps=1e-8,m=0.5", CFG)
        assert mcp.params.statistics == "scalar"

    def test_bad_specs(self):
        for spec in ("", "gas:He", "gas:He:32psi", "alp:g=1e-16", "blah:1"):
            with pytest.raises(ValueError):
                parse_source(spec, CFG)
