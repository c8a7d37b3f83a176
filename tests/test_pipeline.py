"""Analysis chain: demodulation, FFT normalization, noise statistics, fits."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vmbsim.apparatus import (
    ApparatusConfig,
    FixedDeltanSource,
    FixedEllipticitySource,
    GasSource,
    NoiseModel,
    NullSource,
    QUIET,
)
from vmbsim.constants import convert_pressure
from vmbsim.pipeline import (
    BlockSpectra,
    CalibrationPhase,
    analytic_calibration,
    analyze_record,
    block_fft,
    calibrate,
    combine_runs,
    deltan_conversion,
    demodulate,
    ellipticity_from_deltan,
    noise_bin_indices,
    parseval_residual,
    project_physical,
    rayleigh_sigma,
    weighted_average,
    weighted_linear_fit,
    with_rayleigh_sigma,
)
from vmbsim.synth import synthesize_run

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
        assert amp == pytest.approx(1e-7, rel=1e-3)

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
        assert a_full == pytest.approx(a_fast, rel=0.01)

    def test_vanishing_normalization(self):
        rec = synthesize_run(CFG, NullSource(), QUIET, 8 / 3.0)
        broken = type(rec)(
            **{**rec.__dict__, "i_2omega_pem": np.zeros(len(rec))}
        )
        with pytest.raises(ValueError, match="normalization"):
            demodulate(broken)

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
        assert est == pytest.approx(expected, rel=0.05)

    def test_all_zero_spectrum(self):
        spectra = BlockSpectra(np.zeros((1, 4097), dtype=complex), 512, 256, 96.0)
        assert np.all(rayleigh_sigma(spectra) == 0.0)

    def test_rayleigh_mean_identity(self):
        rng = np.random.default_rng(7)
        draws = np.hypot(rng.standard_normal(4000), rng.standard_normal(4000))
        assert np.mean(draws) / math.sqrt(math.pi / 2.0) == pytest.approx(1.0, abs=0.05)

    def test_signal_and_harmonics_excluded(self):
        spectra = BlockSpectra(np.zeros((1, 4097), dtype=complex), 512, 256, 96.0)
        idx = noise_bin_indices(spectra, 64)
        assert 512 not in idx
        assert len(idx) == 128

    def test_too_few_bins(self):
        spectra = BlockSpectra(np.zeros((1, 40), dtype=complex), 16, 8, 96.0)
        with pytest.raises(ValueError, match="noise bins"):
            rayleigh_sigma(spectra, exclusion_halfwidth=20)


class TestWeightedAverage:
    def test_two_equal_values(self):
        mean, sigma = weighted_average([(1.0 + 2.0j, 0.5), (1.0 + 2.0j, 0.5)])
        assert mean == pytest.approx(1.0 + 2.0j)
        assert sigma == pytest.approx(0.5 / math.sqrt(2.0))

    def test_orthogonal_unit_values(self):
        mean, sigma = weighted_average([(1.0 + 0.0j, 1.0), (0.0 + 1.0j, 1.0)])
        assert mean == pytest.approx(0.5 + 0.5j)
        assert sigma == pytest.approx(1.0 / math.sqrt(2.0))

    def test_sqrt_n_scaling_and_chi2(self):
        rng = np.random.default_rng(12)
        n = 400
        draws = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mean, sigma = weighted_average([(d, 1.0) for d in draws])
        assert sigma == pytest.approx(1.0 / math.sqrt(n), rel=1e-12)
        # scatter consistency: |mean|^2/sigma^2 ~ chi2(2), almost surely < 25
        assert abs(mean) ** 2 / sigma**2 < 25.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([(1.0, 0.0)])

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_permutation_invariance(self, items):
        m1, s1 = weighted_average(items)
        m2, s2 = weighted_average(list(reversed(items)))
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
        m1, s1 = weighted_average(items)
        m2, s2 = weighted_average([(v, k * s) for v, s in items])
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
        assert est.deltan_over_b2_physical < 0


class TestDeltanConversion:
    def test_headline_round_trip_value(self):
        cfg = ApparatusConfig(finesse=6.7e5)
        assert deltan_conversion(5e-11, cfg) == pytest.approx(4e-24, rel=0.05)

    def test_zero(self):
        assert deltan_conversion(0.0, CFG) == 0.0

    @given(st.floats(min_value=1e-26, max_value=1e-18))
    def test_forward_inverse_identity(self, dn):
        assert deltan_conversion(ellipticity_from_deltan(dn, CFG), CFG) == pytest.approx(
            dn, rel=1e-12
        )


class TestAnalyzeRecord:
    def test_run_estimate_invariants(self):
        noise = NoiseModel(ellipticity_noise_density=5e-7, rng_seed=17)
        rec = synthesize_run(CFG, FixedDeltanSource(1e-21), noise, 4 * 256 / 3.0)
        est = analyze_record(rec)
        assert est.sigma > 0
        norm = est.physical**2 + est.nonphysical**2
        assert norm == pytest.approx(abs(est.complex_amplitude_2omega) ** 2, rel=1e-12)
        assert est.n_blocks == 4
        assert est.hours == pytest.approx(4 * 8192 / 96.0 / 3600.0, rel=1e-9)

    def test_linearity_over_four_decades(self):
        # recovered vs injected Delta n_u: log-log slope 1.000 +/- 0.005
        injected = [1e-24, 1e-23, 1e-22, 1e-21, 1e-20]
        recovered = []
        for dn in injected:
            rec = synthesize_run(CFG, FixedDeltanSource(dn), QUIET, 256 / 3.0)
            recovered.append(analyze_record(rec).deltan_over_b2_physical)
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
        assert sigma == pytest.approx(expected_sigma, rel=1e-12)


class TestCalibrate:
    def test_zero_noise_two_point_fit_exact(self):
        pressures = [convert_pressure(u, "ubar", "atm") for u in (32.0, 64.0)]
        recs = [synthesize_run(CFG, GasSource("He", p), QUIET, 256 / 3.0) for p in pressures]
        cal = calibrate(recs, "He")
        assert cal.fit_slope == pytest.approx(2.1e-16, rel=1e-9)
        assert abs(cal.fit_intercept) < 1e-6 * abs(cal.fit_slope * pressures[0])

    def test_three_point_helium_scan(self):
        recs = []
        for i, u in enumerate((32.0, 64.0, 128.0)):
            p = convert_pressure(u, "ubar", "atm")
            noise = NoiseModel(ellipticity_noise_density=2e-7, rng_seed=100 + i)
            recs.append(synthesize_run(CFG, GasSource("He", p), noise, 8 * 256 / 3.0))
        cal = calibrate(recs, "He")
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
            calibrate(recs, "He")

    def test_single_point_rejected(self):
        p = convert_pressure(32.0, "ubar", "atm")
        rec = synthesize_run(CFG, GasSource("He", p), NoiseModel(1e-7, rng_seed=1), 256 / 3.0)
        with pytest.raises(ValueError, match="two pressure points"):
            calibrate([rec], "He")

    def test_weighted_linear_fit_basics(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 3.0, 5.0])
        a, b, sa, sb = weighted_linear_fit(x, y, np.ones(3))
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(2.0)
        with pytest.raises(ValueError, match="degenerate"):
            weighted_linear_fit(np.array([1.0, 1.0]), np.array([1.0, 2.0]), np.ones(2))
