"""Analysis chain: demodulation, FFT normalization, noise statistics, fits."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vmbsim import apparatus, pipeline
from vmbsim.apparatus import (
    ApparatusConfig,
    FixedDeltanSource,
    FixedEllipticitySource,
    GasSource,
    NoiseModel,
    NullSource,
    QUIET,
    TimeSeriesRecord,
    read_record,
    write_record,
)
from vmbsim.constants import convert_pressure
from vmbsim.pipeline import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_NOISE_HALFWIDTH,
    BlockSpectra,
    CalibrationPhase,
    analytic_calibration,
    _analyze,
    _lock_in,
    _median,
    _off_bin,
    analyze_record,
    averaged_spectrum,
    block_fft,
    calibrate,
    combine_runs,
    deltan_conversion,
    demodulate,
    ellipticity_from_deltan,
    estimate_from_spectra,
    noise_bin_indices,
    parseval_residual,
    project_physical,
    rayleigh_sigma,
    weighted_average,
    weighted_linear_fit,
    with_rayleigh_sigma,
)
from vmbsim.synth import synthesize_run

from test_synth import LEAN_FAST_CASES, LEAN_FAST_IDS, is_stored, whole_array_fast

CFG = ApparatusConfig()


def _tone_block(amplitude, cycles, block_size=8192, phase=0.0):
    n = np.arange(block_size)
    return amplitude * np.sin(2.0 * math.pi * cycles * n / block_size + phase)


class TestDemodulate:
    def test_noiseless_fixed_psi_recovery(self):
        rec = synthesize_run(CFG, FixedEllipticitySource(1e-7), QUIET, 16 / 3.0)
        psi = demodulate(rec)
        theta = 2.0 * math.pi * 3.0 * rec.time
        expected = 1e-7 * np.sin(2.0 * theta)
        assert np.allclose(psi, expected, atol=1e-10 * 1e-7 + 1e-22)

    def test_fixed_psi_256_revolution_fft_recovery(self):
        rec = synthesize_run(CFG, FixedEllipticitySource(1e-7), QUIET, 256 / 3.0)
        amp = abs(block_fft(demodulate(rec), CFG).amplitude_2omega[0])
        assert amp == pytest.approx(1e-7, rel=1e-3, abs=0.0)

    def test_zero_signal_noise_statistics(self):
        asd = 2e-6
        noise = NoiseModel(ellipticity_noise_density=asd, rng_seed=21)
        rec = synthesize_run(CFG, NullSource(), noise, 512 / 3.0)
        psi = demodulate(rec)
        expected_std = asd * math.sqrt(CFG.sample_rate_hz / 2.0)
        assert np.std(psi) == pytest.approx(expected_std, rel=0.03)

    def test_full_vs_fast_cross_path(self):
        src = FixedEllipticitySource(1.13e-7)
        rec_fast = synthesize_run(CFG, src, QUIET, 16 / 3.0)
        rec_full = synthesize_run(CFG, src, QUIET, 16 / 3.0, fidelity="full")
        a_fast = abs(block_fft(demodulate(rec_fast), CFG, block_size=512).amplitude_2omega[0])
        a_full = abs(block_fft(demodulate(rec_full), CFG, block_size=512).amplitude_2omega[0])
        assert a_full == pytest.approx(a_fast, rel=0.01, abs=0.0)

    def test_vanishing_normalization(self):
        rec = synthesize_run(CFG, NullSource(), QUIET, 8 / 3.0)
        broken = type(rec)(
            **{**rec.__dict__, "i_2omega_pem": np.zeros(len(rec))}
        )
        with pytest.raises(ValueError, match="normalization"):
            demodulate(broken)

    def test_constant_dc_channels_are_read_as_their_value(self):
        # 2**40 samples: a pass over the copies would not end within the test's time
        n, i0, dc = 1 << 40, 1e-3, 0.5e-3 * 1.2**2 / 7.0
        rec = TimeSeriesRecord(i_omega_pem=np.broadcast_to(1e-9, n),
                               i_2omega_pem=np.broadcast_to(dc, n), i0=np.broadcast_to(i0, n),
                               fidelity="fast", config=CFG, source_description="null", seed=0)
        start = time.perf_counter()
        series, root_norm = _lock_in(rec)
        assert time.perf_counter() - start < 1.0
        assert series is vars(rec)["i_omega_pem"]
        assert root_norm == math.sqrt(8 * i0 * dc)

    def test_stored_dc_channels_are_averaged(self):
        rec = synthesize_run(CFG, NullSource(), QUIET, 8 / 3.0)
        n = len(rec)
        # a stored channel is averaged, even when each of its values is the same
        varying = np.linspace(0.5e-3, 1.5e-3, n)
        constant = np.full(n, rec.i_2omega_pem[0])
        stored = replace(rec, i0=varying, i_2omega_pem=constant)
        assert _lock_in(stored)[1] == math.sqrt(
            8.0 * float(np.mean(varying)) * float(np.mean(constant)))
        assert _lock_in(rec)[1] == math.sqrt(8.0 * rec.i0[0] * rec.i_2omega_pem[0])

    @pytest.mark.parametrize("key, value, match", [
        ("pem_oversample", "16.5", "pem_oversample"),
        ("pem_oversample", 0, "pem_oversample"),
        ("samples_per_output_bin", -160, "samples_per_output_bin"),
        ("samples_per_output_bin", "nan", "samples_per_output_bin"),
        ("pem_oversample", "abc", "pem_oversample"),
        ("pem_oversample", 12, "not a multiple of pem_oversample"),
    ])
    def test_inconsistent_lockin_layout_refused(self, key, value, match):
        small = ApparatusConfig(pem_frequency_hz=960.0)
        rec = synthesize_run(small, NullSource(), QUIET, 2 / 3.0, fidelity="full")
        broken = type(rec)(**{**rec.__dict__, "metadata": {**rec.metadata, key: value}})
        with pytest.raises(ValueError, match=match):
            demodulate(broken)

    def test_noise_realization_shared_across_fidelities(self):
        # same seed -> identical per-output-sample noise in both paths; with no
        # signal the demodulated series must agree to numerical precision
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=77)
        rec_fast = synthesize_run(CFG, NullSource(), noise, 4 / 3.0)
        rec_full = synthesize_run(CFG, NullSource(), noise, 4 / 3.0, fidelity="full")
        psi_fast = demodulate(rec_fast)
        psi_full = demodulate(rec_full)
        assert np.allclose(psi_full, psi_fast, rtol=0, atol=1e-9 * np.abs(psi_fast).max())


class TestBlockFFT:
    def test_pure_tone_normalization(self):
        psi = _tone_block(1e-7, cycles=512)
        spectra = block_fft(psi, CFG)
        assert abs(spectra.amplitude_2omega[0]) == pytest.approx(1e-7, abs=1e-10)

    def test_fig2_amplitude(self):
        psi = _tone_block(1.13e-7, cycles=512)
        assert abs(block_fft(psi, CFG).amplitude_2omega[0]) == pytest.approx(1.13e-7, abs=1e-10)

    def test_half_bin_tone_warns(self):
        psi = _tone_block(1e-7, cycles=512.5)
        with pytest.warns(UserWarning, match="off bin center"):
            block_fft(psi, CFG)

    def test_dropped_tail_warns(self):
        # 300 revolutions: one 8192-sample block and 1408 samples left over
        with pytest.warns(UserWarning, match="1408 trailing samples"):
            assert len(block_fft(np.zeros(300 * 32), CFG)) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block_fft(np.zeros(2 * 8192), CFG)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter than one block"):
            block_fft(np.zeros(100), CFG)

    def test_block_must_be_integer_revolutions(self):
        with pytest.raises(ValueError, match="multiple"):
            block_fft(np.zeros(8192), CFG, block_size=100)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(8192) * 1e-8 + _tone_block(1e-7, 512)
        spectra = block_fft(psi, CFG)
        assert parseval_residual(spectra, psi).max() < 1e-9

    def test_phase_convention(self):
        # A*sin(w t) from t=0 reports phase -pi/2
        psi = _tone_block(1e-7, cycles=512)
        c = block_fft(psi, CFG).amplitude_2omega[0]
        assert np.angle(c) == pytest.approx(-math.pi / 2.0, abs=1e-9)


class TestRayleighSigma:
    def test_known_noise_density(self):
        asd = 1e-6
        noise = NoiseModel(ellipticity_noise_density=asd, rng_seed=31)
        rec = synthesize_run(CFG, NullSource(), noise, 20 * 256 / 3.0)
        spectra = with_rayleigh_sigma(block_fft(demodulate(rec), CFG))
        expected = asd / math.sqrt(8192 / CFG.sample_rate_hz)
        est = np.mean(spectra.rayleigh_sigma)
        assert est == pytest.approx(expected, rel=0.05, abs=0.0)

    def test_all_zero_spectrum(self):
        spectra = BlockSpectra(np.zeros((1, 4097), dtype=complex), 512, 256, 96.0)
        assert np.all(rayleigh_sigma(spectra) == 0.0)

    def test_rayleigh_mean_identity(self):
        rng = np.random.default_rng(7)
        draws = np.hypot(rng.standard_normal(4000), rng.standard_normal(4000))
        assert np.mean(draws) / math.sqrt(math.pi / 2.0) == pytest.approx(1.0, abs=0.05)

    def test_mean_is_a_sum_in_bin_order_for_any_number_of_blocks(self):
        rng = np.random.default_rng(3)
        bins = rng.standard_normal((5, 4097)) + 1j * rng.standard_normal((5, 4097))
        spectra = BlockSpectra(bins, 512, 256, 96.0)
        idx = noise_bin_indices(spectra, 64)
        expected = []
        for row in np.abs(bins[:, idx]):  # the reference: one bin at a time, in bin order
            total = 0.0
            for amplitude in row:
                total += amplitude
            expected.append(total / len(idx) / math.sqrt(math.pi / 2.0))
        assert rayleigh_sigma(spectra).tobytes() == np.array(expected).tobytes()
        for r, sigma in enumerate(expected):
            assert rayleigh_sigma(BlockSpectra(bins[r:r + 1], 512, 256, 96.0))[0] == sigma

    def test_signal_and_harmonics_excluded(self):
        spectra = BlockSpectra(np.zeros((1, 4097), dtype=complex), 512, 256, 96.0)
        idx = noise_bin_indices(spectra, 64)
        assert 512 not in idx
        assert len(idx) == 128

    def test_too_few_bins(self):
        spectra = BlockSpectra(np.zeros((1, 40), dtype=complex), 16, 8, 96.0)
        with pytest.raises(ValueError, match="noise bins"):
            rayleigh_sigma(spectra, exclusion_halfwidth=20)


def _fsum_reference(values, sigmas):
    """The inverse-variance vector average of complex values, item by item in Python floats."""
    weights = [1.0 / sigma**2 for sigma in sigmas]
    total = math.fsum(weights)
    mean = complex(math.fsum(w * complex(v).real for v, w in zip(values, weights)) / total,
                   math.fsum(w * complex(v).imag for v, w in zip(values, weights)) / total)
    return mean, 1.0 / math.sqrt(total)


_AVERAGE_ITEMS = st.lists(
    st.tuples(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.floats(min_value=1e-3, max_value=1e3),
    ),
    min_size=1,
    max_size=20,
)


class TestWeightedAverage:
    def test_two_equal_values(self):
        mean, sigma = weighted_average(np.array([1.0 + 2.0j, 1.0 + 2.0j]), np.array([0.5, 0.5]))
        assert mean == pytest.approx(1.0 + 2.0j)
        assert sigma == pytest.approx(0.5 / math.sqrt(2.0))

    def test_orthogonal_unit_values(self):
        mean, sigma = weighted_average([1.0 + 0.0j, 0.0 + 1.0j], [1.0, 1.0])
        assert mean == pytest.approx(0.5 + 0.5j)
        assert sigma == pytest.approx(1.0 / math.sqrt(2.0))

    def test_sqrt_n_scaling_and_chi2(self):
        rng = np.random.default_rng(12)
        n = 400
        draws = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mean, sigma = weighted_average(draws, np.ones(n))
        assert sigma == pytest.approx(1.0 / math.sqrt(n), rel=1e-12)
        # scatter consistency: |mean|^2/sigma^2 ~ chi2(2), almost surely < 25
        assert abs(mean) ** 2 / sigma**2 < 25.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="one or more values"):
            weighted_average(np.empty(0, dtype=complex), np.empty(0))

    def test_one_sigma_per_value(self):
        with pytest.raises(ValueError, match=r"shapes \(2,\) and \(1,\)"):
            weighted_average([1.0, 2.0], [1.0])

    def test_nonpositive_sigma_rejected(self):
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="1 of 2 blocks have a rayleigh_sigma that is "
                                                 "not positive and finite"):
                weighted_average([1.0, 2.0], [1.0, sigma])

    @given(_AVERAGE_ITEMS)
    def test_agrees_with_the_per_item_sums(self, items):
        values, sigmas = zip(*items)
        mean, sigma = weighted_average(np.array(values), np.array(sigmas))
        ref_mean, ref_sigma = _fsum_reference(values, sigmas)
        # numpy's square and Python's ** may round a weight one unit apart
        scale = max(abs(v) for v in values)
        assert abs(mean.real - ref_mean.real) <= 1e-15 * scale
        assert abs(mean.imag - ref_mean.imag) <= 1e-15 * scale
        assert sigma == pytest.approx(ref_sigma, rel=1e-15)

    @given(_AVERAGE_ITEMS)
    def test_permutation_invariance(self, items):
        values, sigmas = np.array([v for v, _ in items]), np.array([s for _, s in items])
        m1, s1 = weighted_average(values, sigmas)
        m2, s2 = weighted_average(values[::-1], sigmas[::-1])
        assert m1 == pytest.approx(m2, rel=1e-12, abs=1e-12)
        assert s1 == pytest.approx(s2, rel=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_sigma_scaling_leaves_mean(self, items, k):
        values, sigmas = np.array([v for v, _ in items]), np.array([s for _, s in items])
        m1, s1 = weighted_average(values, sigmas)
        m2, s2 = weighted_average(values, k * sigmas)
        assert m2 == pytest.approx(m1, rel=1e-9, abs=1e-12)
        assert s2 == pytest.approx(k * s1, rel=1e-9)


class TestProjection:
    def test_aligned(self):
        cal = CalibrationPhase(phase_rad=0.7)
        c = 3.0 * np.exp(1j * 0.7)
        phys, nonphys = project_physical(c, cal)
        assert phys == pytest.approx(3.0, rel=1e-12)
        assert nonphys == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        cal = CalibrationPhase(phase_rad=0.7)
        c = 2.0 * np.exp(1j * (0.7 + math.pi / 2.0))
        phys, nonphys = project_physical(c, cal)
        assert phys == pytest.approx(0.0, abs=1e-12)
        assert abs(nonphys) == pytest.approx(2.0, rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_norm_preserved(self, r, angle, cal_phase):
        cal = CalibrationPhase(phase_rad=cal_phase)
        c = r * np.exp(1j * angle)
        phys, nonphys = project_physical(c, cal)
        assert phys**2 + nonphys**2 == pytest.approx(abs(c) ** 2, rel=1e-12, abs=1e-15)

    def test_axis_phase_mod_pi(self):
        cal = CalibrationPhase(phase_rad=4.0)
        assert cal.axis_phase == pytest.approx(4.0 - math.pi)

    def test_negative_gas_projects_negative(self):
        p = convert_pressure(10.0, "ubar", "atm")
        rec = synthesize_run(CFG, GasSource("O2", p),
                             NoiseModel(ellipticity_noise_density=1e-7, rng_seed=4), 256 / 3.0)
        est = analyze_record(rec)
        assert project_physical(est.deltan_over_b2, analytic_calibration(CFG))[0] < 0


class TestDeltanConversion:
    def test_headline_round_trip_value(self):
        cfg = ApparatusConfig(finesse=6.7e5)
        assert deltan_conversion(5e-11, cfg) == pytest.approx(4e-24, rel=0.05, abs=0.0)

    def test_zero(self):
        assert deltan_conversion(0.0, CFG) == 0.0

    @given(st.floats(min_value=1e-26, max_value=1e-18))
    def test_forward_inverse_identity(self, dn):
        assert deltan_conversion(ellipticity_from_deltan(dn, CFG), CFG) == pytest.approx(
            dn, rel=1e-12, abs=0.0
        )


class TestAnalyzeRecord:
    def test_run_estimate_invariants(self):
        noise = NoiseModel(ellipticity_noise_density=5e-7, rng_seed=17)
        rec = synthesize_run(CFG, FixedDeltanSource(1e-21), noise, 4 * 256 / 3.0)
        est = analyze_record(rec)
        assert est.sigma > 0
        physical, nonphysical = project_physical(
            est.complex_amplitude_2omega, analytic_calibration(CFG)
        )
        norm = physical**2 + nonphysical**2
        assert norm == pytest.approx(abs(est.complex_amplitude_2omega) ** 2, rel=1e-12, abs=0.0)
        assert est.n_blocks == 4
        assert est.hours == pytest.approx(4 * 8192 / 96.0 / 3600.0, rel=1e-9)

    def test_linearity_over_four_decades(self):
        # recovered vs injected Delta n_u: log-log slope 1.000 +/- 0.005
        injected = [1e-24, 1e-23, 1e-22, 1e-21, 1e-20]
        recovered = []
        for dn in injected:
            rec = synthesize_run(CFG, FixedDeltanSource(dn), QUIET, 256 / 3.0)
            measured = analyze_record(rec).deltan_over_b2
            recovered.append(project_physical(measured, analytic_calibration(CFG))[0])
        slope = np.polyfit(np.log10(injected), np.log10(recovered), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.005)

    def test_combine_runs_weighting(self):
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=23)
        recs = [
            synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=s), 256 / 3.0)
            for s in (1, 2, 3, 4)
        ]
        ests = [analyze_record(r) for r in recs]
        mean, sigma, hours = combine_runs(ests)
        assert hours == pytest.approx(sum(e.hours for e in ests))
        expected_sigma = 1.0 / math.sqrt(sum(1.0 / e.deltan_over_b2_sigma**2 for e in ests))
        assert sigma == pytest.approx(expected_sigma, rel=1e-12, abs=0.0)

    def test_combine_runs_refuses_a_zero_run_sigma_as_a_run(self):
        est = analyze_record(synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=1),
                                            256 / 3.0))
        with pytest.raises(ValueError) as refusal:
            combine_runs([est, replace(est, deltan_over_b2_sigma=0.0)])
        message = str(refusal.value)
        assert message == ("1 of 2 runs have a deltan_over_b2_sigma that is not positive "
                           "and finite")
        assert "block" not in message


def spectra_chain(rec, block_size=8192, noise_halfwidth=64):
    """The spectra chain, which keeps every block's spectrum."""
    spectra = block_fft(demodulate(rec), rec.config, block_size=block_size)
    return with_rayleigh_sigma(spectra, noise_halfwidth)


def whole_array_spectra(rec, block_size=8192, noise_halfwidth=64):
    """Reference spectra with sigmas: each step over the arrays of all the blocks at once."""
    psi = demodulate(rec)
    n_blocks = len(psi) // block_size
    bins = np.fft.rfft(psi[:n_blocks * block_size].reshape(n_blocks, block_size), axis=1)
    bins *= 2.0 / block_size
    bins[:, 0] *= 0.5
    bins[:, -1] *= 0.5
    revs = block_size // rec.config.samples_per_revolution
    spectra = BlockSpectra(bins, 2 * revs, revs, rec.config.sample_rate_hz)
    idx = noise_bin_indices(spectra, noise_halfwidth)
    sigmas = np.maximum(np.mean(np.abs(bins[:, idx]), axis=1) / math.sqrt(math.pi / 2.0),
                        np.finfo(float).eps * np.abs(bins).max(axis=1))
    return replace(spectra, rayleigh_sigma=sigmas)


def one_pass(rec, block_size=DEFAULT_BLOCK_SIZE, noise_halfwidth=DEFAULT_NOISE_HALFWIDTH):
    """``(estimate, (frequencies, averaged spectrum))`` of the one pass over ``rec``."""
    return _analyze(rec, block_size, noise_halfwidth, spectrum=True)


def warning_messages(func, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = func(*args, **kwargs)
    return result, [str(w.message) for w in caught]


SMALL_FULL = ApparatusConfig(pem_frequency_hz=960.0)
ESTIMATE_FIELDS = ("complex_amplitude_2omega", "sigma", "deltan_over_b2", "deltan_over_b2_sigma",
                   "duration_s", "n_blocks", "config", "metadata")
HELIUM = GasSource("He", 3e-5)


# The cases of the one-pass analysis: (config, source, noise, revolutions, fidelity, kwargs)
ONE_PASS_CASES = [
    # 9 blocks: a chunk of 8 and a last chunk of one block
    (CFG, HELIUM, NoiseModel(1e-6, rng_seed=4), 9 * 256, "fast", {}),
    (SMALL_FULL, FixedEllipticitySource(1e-6),
     NoiseModel(1e-8, 1e-4, ((0.7, 1e-7, 0.1),), rng_seed=16), 96, "full",
     {"block_size": 1024}),
    (CFG, NullSource(), NoiseModel(1e-6, 1e-4, ((0.7, 1e-6, 0.3), (5.0, 2e-7, 1.0)), 5),
     17 * 256, "fast", {}),
    # 9 blocks and 1408 trailing samples
    (CFG, HELIUM, NoiseModel(1e-6, rng_seed=10), 9 * 256 + 44, "fast", {}),
    (CFG, HELIUM, NoiseModel(1e-6, rng_seed=12), 9 * 256, "fast",
     {"block_size": 512, "noise_halfwidth": 40}),
    (CFG, HELIUM, NoiseModel(1e-6, rng_seed=13), 3 * 256, "fast",
     {"block_size": 8192, "noise_halfwidth": 100}),
    # three chunks of one block of _BLOCK_SAMPLES samples each
    (CFG, HELIUM, NoiseModel(1e-6, rng_seed=25), 3 * 2048, "fast", {"block_size": 65536}),
    (CFG, FixedEllipticitySource(-1e-7), QUIET, 5 * 256, "fast", {}),
    # a tone half a bin above 2*Omega_Mag
    (CFG, NullSource(), NoiseModel(1e-9, 0.0, ((6.0 + 0.5 * 96.0 / 8192, 1e-5, 0.2),), 15),
     3 * 256, "fast", {}),
]
ONE_PASS_IDS = ["fast", "full", "tones_and_detector_noise", "trailing_samples", "block_512",
                "halfwidth_100", "block_65536", "noiseless", "leaky_block_0"]


class TestOnePassAnalysis:
    @pytest.mark.parametrize("config, source, noise, revolutions, fidelity, kwargs",
                             ONE_PASS_CASES, ids=ONE_PASS_IDS)
    def test_equals_the_spectra_chain(self, config, source, noise, revolutions, fidelity, kwargs):
        rec = synthesize_run(config, source, noise, revolutions / config.magnet_rotation_hz,
                             fidelity=fidelity)
        (est, (freqs, avg)), one_pass_warnings = warning_messages(one_pass, rec, **kwargs)
        spectra, chain_warnings = warning_messages(spectra_chain, rec, **kwargs)
        whole = whole_array_spectra(rec, **kwargs)
        assert np.array_equal(spectra.bins, whole.bins)
        assert np.array_equal(spectra.rayleigh_sigma, whole.rayleigh_sigma)
        chain, ref = estimate_from_spectra(spectra, rec), estimate_from_spectra(whole, rec)
        for name in ESTIMATE_FIELDS:
            assert getattr(est, name) == getattr(ref, name), name
            assert getattr(chain, name) == getattr(ref, name), name
        assert one_pass_warnings == chain_warnings
        # the averaged spectrum, bit for bit, and near an average taken another way
        ref_freqs, ref_avg = averaged_spectrum(spectra)
        assert np.array_equal(freqs, ref_freqs) and np.array_equal(freqs, spectra.frequencies_hz)
        assert np.array_equal(avg.view(np.uint64), ref_avg.view(np.uint64))
        weights = 1.0 / whole.rayleigh_sigma**2
        total = np.zeros(whole.bins.shape[1], dtype=complex)
        for row, weight in zip(whole.bins, weights):  # the sum in block order, a row at a time
            total += weight * row
        assert np.array_equal(avg.view(np.uint64), (total / weights.sum()).view(np.uint64))
        other = np.sum(weights[:, None] * whole.bins, axis=0) / np.sum(weights)
        scale = np.sum(weights[:, None] * np.abs(whole.bins), axis=0) / np.sum(weights)
        assert np.all(np.abs(avg - other) <= 1e-14 * scale)

    # 211 blocks of 4097 bins (the null campaign's run), and 64 blocks of 129 bins: a BLAS
    # reduction of either (np.tensordot) rounds otherwise on one thread than on two
    @pytest.mark.parametrize("config, revolutions, fidelity, analysis", [
        ("ApparatusConfig()", 211 * 256, "fast", "8192, 64"),
        ("ApparatusConfig(pem_frequency_hz=960.0)", 512, "full", "256, 60"),
    ], ids=["fast", "full"])
    def test_spectrum_does_not_depend_on_the_blas_thread_count(self, config, revolutions,
                                                               fidelity, analysis):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import vmbsim

        src = str(Path(vmbsim.__file__).parents[1])
        script = (
            "import hashlib, numpy as np\n"
            "from vmbsim.apparatus import ApparatusConfig, NoiseModel, NullSource\n"
            "from vmbsim.pipeline import _analyze\n"
            "from vmbsim.synth import synthesize_run\n"
            f"rec = synthesize_run({config}, NullSource(), NoiseModel(3e-7, 1e-4, rng_seed=5),\n"
            f"                     {revolutions} / 3.0, fidelity={fidelity!r})\n"
            f"_, (_, avg) = _analyze(rec, {analysis}, spectrum=True)\n"
            "print(hashlib.sha256(avg.view(np.uint64).tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True)
            digests.append(done.stdout.split()[-1])
        assert digests[0] == digests[1]

    def test_warnings_of_the_one_pass(self):
        tail = synthesize_run(CFG, HELIUM, NoiseModel(1e-6, rng_seed=10), (9 * 256 + 44) / 3.0)
        with pytest.warns(UserWarning, match="1408 trailing samples"):
            analyze_record(tail)
        tone = (6.0 + 0.5 * 96.0 / 8192, 1e-5, 0.2)
        leaky = synthesize_run(CFG, NullSource(), NoiseModel(1e-9, 0.0, (tone,), 15), 256.0)
        with pytest.warns(UserWarning, match="off bin center"):
            analyze_record(leaky)

    def test_noiseless_record_takes_the_floor(self):
        rec = synthesize_run(CFG, FixedEllipticitySource(-1e-7), QUIET, 5 * 256 / 3.0)
        # one revolution repeated: every off-harmonic bin is exactly zero
        periodic = replace(rec, i_omega_pem=np.tile(rec.i_omega_pem[:32], 5 * 256))
        spectra = with_rayleigh_sigma(block_fft(demodulate(periodic), CFG))
        floor = np.finfo(float).eps * np.abs(spectra.bins).max(axis=1)
        assert np.all(rayleigh_sigma(spectra) < floor)
        assert np.array_equal(spectra.rayleigh_sigma, floor)
        est, ref = analyze_record(periodic), estimate_from_spectra(spectra, periodic)
        for name in ESTIMATE_FIELDS:
            assert getattr(est, name) == getattr(ref, name), name

    def test_missing_and_zero_sigmas_are_told_apart(self):
        zero = synthesize_run(CFG, NullSource(), QUIET, 2 * 256 / 3.0)
        spectra = block_fft(demodulate(zero), CFG)
        with pytest.raises(ValueError, match=r"no rayleigh_sigma \(run with_rayleigh_sigma\)"):
            estimate_from_spectra(spectra, zero)
        with pytest.raises(ValueError, match="2 of 2 blocks have a rayleigh_sigma that is not "
                                             "positive and finite"):
            estimate_from_spectra(with_rayleigh_sigma(spectra), zero)

    def test_memory_is_one_chunk_above_the_record(self):
        analyze_record(synthesize_run(CFG, NullSource(), NoiseModel(1e-6, rng_seed=1), 256.0))
        # the run length of the null campaign: 211 blocks
        rec = synthesize_run(CFG, NullSource(), NoiseModel(3e-7, rng_seed=5), 211 * 256 / 3.0)
        rec.i_omega_pem  # a held record, as one read from a file: the analysis takes views of it
        tracemalloc.start()  # traces what is allocated from here on, not the held record
        try:
            analyze_record(rec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * rec.i_omega_pem.nbytes


def bits(*values):
    """The float64 bits of ``values`` (numbers or arrays, real or complex), as one byte string."""
    return b"".join(np.asarray(v, dtype=complex).ravel().view(np.uint64).tobytes() for v in values)


class TestBlockStatisticsArePerBlock:
    """A block's sigma, 2*Omega_Mag amplitude and weighted spectrum depend on its bins alone."""

    def test_last_block_alone_among_others_and_in_any_chunks(self, monkeypatch):
        tone = NoiseModel(1e-6, 0.0, ((0.7, 1e-6, 0.3),), rng_seed=4)
        rec = synthesize_run(CFG, HELIUM, tone, 9 * 256 / 3.0)
        # the DC channels stay zero-stride views of one value, so both records share one norm
        alone = replace(rec, i_omega_pem=rec.i_omega_pem[-8192:], i0=rec.i0[-8192:],
                        i_2omega_pem=rec.i_2omega_pem[-8192:])
        assert alone.i0.strides == alone.i_2omega_pem.strides == (0,)
        assert _lock_in(alone)[1] == _lock_in(rec)[1]
        # the last block of the 9, as the spectra chain gives it, and that block analysed alone
        spectra = spectra_chain(rec)
        last = replace(spectra, bins=spectra.bins[8:], rayleigh_sigma=spectra.rayleigh_sigma[8:])
        own = spectra_chain(alone)
        assert bits(own.bins, own.rayleigh_sigma) == bits(last.bins, last.rayleigh_sigma)
        est, (_, avg) = one_pass(alone)
        ref = estimate_from_spectra(last, alone)
        for name in ESTIMATE_FIELDS:
            assert getattr(est, name) == getattr(ref, name), name
        assert bits(est.complex_amplitude_2omega, est.sigma, avg) == bits(
            ref.complex_amplitude_2omega, ref.sigma, averaged_spectrum(last)[1])
        # the record cut into chunks of 1, 8 and all 9 blocks
        runs = []
        for samples in (8192, 65536, 1 << 20):
            for module in (apparatus, pipeline):
                monkeypatch.setattr(module, "_BLOCK_SAMPLES", samples)
            est, (_, avg) = one_pass(rec)
            chain = spectra_chain(rec)
            runs.append(bits(est.complex_amplitude_2omega, est.sigma, avg, chain.rayleigh_sigma,
                             chain.amplitude_2omega))
            assert bits(chain.rayleigh_sigma[8], chain.amplitude_2omega[8]) == bits(
                own.rayleigh_sigma[0], own.amplitude_2omega[0])
        assert runs[0] == runs[1] == runs[2]


HALF_BIN_TONE_HZ = 6.0 + 0.5 * 96.0 / 8192  # half a bin above 2*Omega_Mag at 8192-sample blocks


def off_bin_reference(amps, k):
    """The leakage test of each row, with ``np.median`` of every row."""
    peak = amps[:, max(k - 2, 1): k + 3].max(axis=1)
    median = np.maximum(np.median(amps[:, 1:], axis=1), 1e-300)
    neighbour = np.maximum(amps[:, k - 1], amps[:, k + 1])
    return ((peak > 0) & (peak > 10.0 * median) & (neighbour > 0.3 * amps[:, k])
            & (neighbour > 4.5 * median))


class TestLeakage:
    """One leakage warning per record, from a test of every block."""

    # 17 blocks are chunks of 8, 8 and 1 blocks, and block 13 is in the second
    @pytest.mark.parametrize("n_blocks, leaky_block", [(8, 5), (17, 13)])
    def test_an_off_bin_tone_in_a_later_block_warns(self, n_blocks, leaky_block):
        rec = synthesize_run(CFG, NullSource(), NoiseModel(1e-9, rng_seed=3), n_blocks * 256 / 3.0)
        # psi = I_OmegaPEM / sqrt(8 I0 I_2OmegaPEM(DC)), each constant DC channel read as its
        # one value: a tone in one block only
        root_norm = math.sqrt(8.0 * float(rec.i0[0]) * float(rec.i_2omega_pem[0]))
        tone = root_norm * 1e-5 * np.sin(2 * math.pi * HALF_BIN_TONE_HZ * np.arange(8192) / 96.0)
        channel = rec.i_omega_pem.copy()
        channel[leaky_block * 8192: (leaky_block + 1) * 8192] += tone
        leaky = replace(rec, i_omega_pem=channel)
        _, one_pass = warning_messages(analyze_record, leaky)
        _, chain = warning_messages(lambda r: block_fft(demodulate(r), CFG), leaky)
        assert len(one_pass) == 1 and one_pass == chain
        assert "off bin center" in one_pass[0]
        assert f"in 1 of {n_blocks} blocks (first: block {leaky_block}," in one_pass[0]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("config, source, noise_asd, revolutions, fidelity, kwargs", [
        (CFG, GasSource("He", convert_pressure(32.0, "ubar", "atm")), 3e-7, 16 * 256, "fast",
         {}),
        (CFG, FixedEllipticitySource(1e-6), 1e-9, 16 * 256, "fast", {}),
        (CFG, NullSource(), 1e-6, 16 * 256, "fast", {}),
        (SMALL_FULL, FixedEllipticitySource(1e-6), 1e-8, 96, "full", {"block_size": 1024}),
        (SMALL_FULL, NullSource(), 1e-8, 96, "full", {"block_size": 1024}),
    ], ids=["fast_helium", "fast_on_bin", "fast_noise_only", "full_on_bin", "full_noise_only"])
    def test_on_bin_and_noise_only_records_do_not_warn(self, seed, config, source, noise_asd,
                                                       revolutions, fidelity, kwargs):
        rec = synthesize_run(config, source, NoiseModel(noise_asd, rng_seed=seed),
                             revolutions / config.magnet_rotation_hz, fidelity=fidelity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analyze_record(rec, **kwargs)

    @pytest.mark.parametrize("snr", [10, 12, 14])
    def test_noise_beside_a_strong_on_bin_tone_does_not_leak(self, snr):
        # 20000 rows of unit Rayleigh noise and an on-bin tone: without the neighbour's own
        # test against the median, 4, 26 and 6 of them leaked
        rng = np.random.default_rng(snr)
        k = 32
        for _ in range(10):
            bins = rng.standard_normal((2000, 257)) + 1j * rng.standard_normal((2000, 257))
            bins[:, k] += snr
            assert not np.any(_off_bin(np.abs(bins), k))

    def test_the_count_settles_only_what_the_median_would(self):
        rng = np.random.default_rng(8)
        k = 512
        amps = np.abs(rng.standard_normal((400, 4097)) + 1j * rng.standard_normal((400, 4097)))
        # on-bin and half-bin tones from the noise floor up, then rows at the test's edges
        amps[:200, k] += np.geomspace(0.1, 1e3, 200)
        amps[200:300, k - 1: k + 1] += np.geomspace(0.1, 1e3, 100)[:, None]
        flat = np.ones((7, 4097))
        flat[2, 2049:] = 0.5                                  # median between 0.5 and 1
        flat[3, 2050:] = 0.5                                  # half the bins and one at 1: median 1
        flat[4, 2049:] = 0.999                                # median just below a tenth of the peak
        flat[5] = 0.0                                         # no peak at all
        flat[6, 1:] = 0.0
        flat[6, 2049:4094] = 1.5                              # half the bins over a tenth of the
        flat[[0, 1, 2, 3, 4, 6], k - 1: k + 2] = 10.0         # peak, the other half 0: median 0.75
        flat[1, k] = np.nextafter(10.0, np.inf)               # just above 10 times the median
        rows = np.vstack([amps, flat])
        expected = off_bin_reference(rows, k)
        assert np.array_equal(_off_bin(rows, k), expected)
        assert 0 < np.count_nonzero(expected) < len(rows)
        assert list(expected[-7:]) == [False, True, True, False, True, False, True]


@pytest.mark.parametrize("length", [1, 2, 7, 8, 4096, 4097])
def test_median_is_numpys_bit_for_bit(length):
    rng = np.random.default_rng(length)
    rows = rng.rayleigh(size=(20, length))
    rows[10:] = np.round(rows[10:], 1)  # ties
    assert _median(rows).tobytes() == np.median(rows, axis=1).tobytes()


# The fast cases of the one-pass analysis, and every combination of terms of a fast record
# at 17 blocks, three chunks, but the all-zero null_quiet, which no analysis
# takes: (config, source, noise, revolutions, kwargs)
LAZY_CASES = [(c, s, n, r, k) for c, s, n, r, f, k in ONE_PASS_CASES if f == "fast"] + [
    (c, s, n, 17 * 256, {}) for (c, s, n), i in zip(LEAN_FAST_CASES, LEAN_FAST_IDS)
    if i != "null_quiet"]
LAZY_IDS = [i for i, (*_, f, _) in zip(ONE_PASS_IDS, ONE_PASS_CASES) if f == "fast"] + [
    f"17_blocks_{i}" for i in LEAN_FAST_IDS if i != "null_quiet"]


class TestLazyFastRecords:
    """A synthesized fast record keeps no array; the analysis computes its chunks."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("config, source, noise, revolutions, kwargs", LAZY_CASES,
                             ids=LAZY_IDS)
    def test_equals_a_stored_record(self, monkeypatch, workers, config, source, noise,
                                    revolutions, kwargs):
        monkeypatch.setattr(apparatus, "_chunk_workers", lambda: workers)
        duration = revolutions / config.magnet_rotation_hz
        lazy, stored = (synthesize_run(config, source, noise, duration) for _ in range(2))
        stored.i_omega_pem
        assert is_stored(stored) and not is_stored(lazy)
        est, lazy_warnings = warning_messages(analyze_record, lazy, **kwargs)
        again, _ = warning_messages(analyze_record, lazy, **kwargs)
        ref, stored_warnings = warning_messages(analyze_record, stored, **kwargs)
        whole = estimate_from_spectra(whole_array_spectra(stored, **kwargs), stored)
        for name in ESTIMATE_FIELDS:
            assert getattr(est, name) == getattr(ref, name), name
            assert getattr(est, name) == getattr(whole, name), name
            assert getattr(again, name) == getattr(est, name), name
        assert lazy_warnings == stored_warnings
        assert not is_stored(lazy)
        # read after the analyses, the channel has the bytes of a whole-record synthesis
        channel = whole_array_fast(config, source, noise, duration)["i_omega_pem"]
        assert lazy.i_omega_pem.tobytes() == channel.tobytes()
        assert is_stored(lazy)


class TestSpectrumSum:
    """Only ``vmbsim analyze``, which writes the averaged spectrum, sums it."""

    def test_only_analyze_calls_add_weighted(self, tmp_path, monkeypatch):
        from vmbsim import cli

        calls = []
        add_weighted = pipeline._add_weighted

        def counted(total, terms):
            calls.append(len(terms) - 1)  # the blocks of a chunk
            return add_weighted(total, terms)

        monkeypatch.setattr(pipeline, "_add_weighted", counted)
        paths, estimates = [], []
        # 9 blocks: chunks of 8 blocks and of 1
        for seed, ubar in ((1, 32.0), (2, 64.0)):
            rec = synthesize_run(CFG, GasSource("He", convert_pressure(ubar, "ubar", "atm")),
                                 NoiseModel(1e-7, rng_seed=seed), 9 * 256 / 3.0)
            paths.append(tmp_path / f"run{seed}.csv")
            write_record(rec, paths[-1])
            estimates += [analyze_record(rec), analyze_record(read_record(paths[-1]))]
        calibrate(estimates, "He")
        assert calls == []
        assert cli.main(["calibrate", *map(str, paths), "--gas", "He",
                         "--out-dir", str(tmp_path / "cal")]) == 0
        assert calls == []
        assert cli.main(["analyze", *map(str, paths), "--out-dir", str(tmp_path / "ana")]) == 0
        assert calls == [8, 1, 8, 1]


class TestCalibrate:
    def test_zero_noise_two_point_fit_exact(self):
        pressures = [convert_pressure(u, "ubar", "atm") for u in (32.0, 64.0)]
        recs = [synthesize_run(CFG, GasSource("He", p), QUIET, 256 / 3.0) for p in pressures]
        cal = calibrate([analyze_record(r) for r in recs], "He")
        assert cal.fit_slope == pytest.approx(2.1e-16, rel=1e-9, abs=0.0)
        assert abs(cal.fit_intercept) < 1e-6 * abs(cal.fit_slope * pressures[0])

    def test_three_point_helium_scan(self):
        recs = []
        for i, u in enumerate((32.0, 64.0, 128.0)):
            p = convert_pressure(u, "ubar", "atm")
            noise = NoiseModel(ellipticity_noise_density=2e-7, rng_seed=100 + i)
            recs.append(synthesize_run(CFG, GasSource("He", p), noise, 8 * 256 / 3.0))
        cal = calibrate([analyze_record(r) for r in recs], "He")
        assert abs(cal.fit_slope - 2.1e-16) < 2.0 * cal.fit_slope_sigma
        assert abs(cal.fit_intercept) < 2.0 * cal.fit_intercept_sigma
        assert cal.phase_rad == pytest.approx(
            analytic_calibration(CFG).phase_rad, abs=0.02
        )
        assert len(cal.per_run_phases) == 3

    def test_degenerate_pressures_rejected(self):
        p = convert_pressure(32.0, "ubar", "atm")
        recs = [
            synthesize_run(CFG, GasSource("He", p), NoiseModel(1e-7, rng_seed=s), 256 / 3.0)
            for s in (1, 2)
        ]
        with pytest.raises(ValueError, match="degenerate"):
            calibrate([analyze_record(r) for r in recs], "He")

    def test_single_point_rejected(self):
        p = convert_pressure(32.0, "ubar", "atm")
        rec = synthesize_run(CFG, GasSource("He", p), NoiseModel(1e-7, rng_seed=1), 256 / 3.0)
        with pytest.raises(ValueError, match="two pressure points"):
            calibrate([analyze_record(rec)], "He")

    def test_weighted_linear_fit_basics(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 3.0, 5.0])
        a, b, sa, sb = weighted_linear_fit(x, y, np.ones(3))
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(2.0)
        with pytest.raises(ValueError, match="degenerate"):
            weighted_linear_fit(np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.ones(2))
