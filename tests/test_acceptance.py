"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  The long-integration criteria are seeded Monte-Carlo equivalents at
desk scale; seeds are fixed for reproducibility.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from vmbsim.apparatus import (
    ApparatusConfig,
    GasSource,
    NoiseModel,
    NullSource,
    QUIET,
    FixedEllipticitySource,
)
from vmbsim.constants import cavity_amplification, convert_pressure
from vmbsim.limits import BirefringenceLimit, alp_exclusion, mcp_exclusion
from vmbsim.models import (
    MCP_LARGE_CHI_K,
    AlpParams,
    McpParams,
    alp_deltan,
    alp_deltan_large_mass,
    alp_deltan_small_mass,
    equivalent_pressure,
    mcp_deltan,
    photon_photon_cross_section,
    qed_unitary_birefringence,
)
from vmbsim.pipeline import (
    analytic_calibration,
    analyze_record,
    averaged_spectrum,
    block_fft,
    combine_runs,
    demodulate,
    ellipticity_from_deltan,
    project_physical,
    with_rayleigh_sigma,
)
from vmbsim.synth import cavity_ellipticity, single_pass_ellipticity, synthesize_run

from test_synth import truncated

CFG = ApparatusConfig()


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_single_pass_qed_ellipticity():
    psi = single_pass_ellipticity(CFG, 3.97e-24, math.pi / 4.0)
    ok = abs(psi / 1.2e-16 - 1.0) < 0.02
    _report(1, ok, f"psi_single = {psi:.4e} vs 1.2e-16 (tol 2%)")


def test_criterion_2_cavity_enhancement():
    n_passes = cavity_amplification(6.7e5)
    cfg = ApparatusConfig(finesse=6.7e5)
    psi = cavity_ellipticity(cfg, 3.97e-24, math.pi / 4.0)
    ok = abs(n_passes / 4.3e5 - 1.0) < 0.05 and abs(psi / 5e-11 - 1.0) < 0.05
    _report(2, ok, f"N = {n_passes:.4e} vs 4.3e5, psi_vac = {psi:.4e} vs 5e-11 (tol 5%)")


def test_criterion_3_constants_chain():
    dn = qed_unitary_birefringence()
    sigma = photon_photon_cross_section(dn, CFG.photon_energy_ev)
    ok_dn = abs(dn / 3.97e-24 - 1.0) < 0.005
    ok_sigma = abs(sigma / 1.84e-69 - 1.0) < 0.02
    _report(
        3, ok_dn and ok_sigma,
        f"deltanu_QED = {dn:.5e} (tol 0.5%), sigma_gg = {sigma:.4e} vs 1.84e-69 (tol 2%)",
    )


def test_criterion_4_equivalent_pressure_table():
    published = {"He": 2e-5, "Ar": 6e-7, "H2O": 6e-7, "CH4": 3e-7, "O2": 2e-9, "N2": 2e-8}
    results = {}
    ok = True
    for gas, expected in published.items():
        p = equivalent_pressure(gas)
        exponent = math.floor(math.log10(p))
        rounded = round(p / 10**exponent) * 10**exponent
        results[gas] = (p, rounded)
        ok = ok and abs(rounded / expected - 1.0) < 1e-9
    detail = ", ".join(f"{g}={p:.3e}->{r:.0e}" for g, (p, r) in results.items())
    _report(4, ok, f"P_eq one-sigfig match: {detail}")


def test_criterion_5_helium_round_trip():
    t0 = time.time()
    p_atm = convert_pressure(32.0, "ubar", "atm")
    src = GasSource("He", p_atm)
    n_blocks = 21  # integer blocks closest to 30 minutes at 3 Hz
    duration = n_blocks * 8192 / CFG.sample_rate_hz
    psi = cavity_ellipticity(CFG, 2.1e-16 * p_atm, math.pi / 4.0)
    sigma_block = psi * math.sqrt(n_blocks) / 10.0  # combined SNR ~ 10
    asd = sigma_block * math.sqrt(8192 / CFG.sample_rate_hz)
    rec = synthesize_run(CFG, src, NoiseModel(ellipticity_noise_density=asd, rng_seed=42),
                         duration)
    est = analyze_record(rec)
    dn_u_rec = project_physical(est.deltan_over_b2, analytic_calibration(CFG))[0] / p_atm
    dn_u_sigma = est.deltan_over_b2_sigma / p_atm
    z = (dn_u_rec - 2.1e-16) / dn_u_sigma

    spectra = with_rayleigh_sigma(block_fft(demodulate(rec), CFG))
    _, avg = averaged_spectrum(spectra)
    sigma_avg = 1.0 / math.sqrt(sum(1.0 / s**2 for s in spectra.rayleigh_sigma))
    spurious = [
        k for k in range(1, 17)
        if k != 2 and abs(avg[256 * k]) > 3.0 * sigma_avg
    ]
    elapsed = time.time() - t0
    ok = abs(z) < 3.0 and not spurious and elapsed < 60.0
    _report(
        5, ok,
        f"dn_u(He) = {dn_u_rec:.3e} +/- {dn_u_sigma:.1e} (z = {z:+.2f}, tol 3sigma), "
        f"spurious harmonics above 3sigma: {spurious or 'none'}, elapsed {elapsed:.1f}s",
    )


def test_criterion_6_null_coverage_and_time_scaling():
    t0 = time.time()
    n_cover = 0
    ratios = []
    for seed in range(100):
        noise = NoiseModel(ellipticity_noise_density=1e-6, rng_seed=seed)
        rec_4t = synthesize_run(CFG, NullSource(), noise,
                                16 * 256 / CFG.magnet_rotation_hz)
        est_4t = analyze_record(rec_4t)
        est_t = analyze_record(truncated(rec_4t, 4 * 8192))
        physical, _ = project_physical(est_t.complex_amplitude_2omega, analytic_calibration(CFG))
        if abs(physical) < 2.0 * est_t.sigma:
            n_cover += 1
        ratios.append(est_t.sigma / est_4t.sigma)
    scaling_dev = abs(float(np.mean(ratios)) / 2.0 - 1.0)
    elapsed = time.time() - t0
    ok = n_cover >= 93 and scaling_dev < 0.10 and elapsed < 300.0
    _report(
        6, ok,
        f"coverage {n_cover}/100 within 2sigma (need >= 93), "
        f"sigma(T)/sigma(4T) = {np.mean(ratios):.4f} vs 2 (dev {scaling_dev:.1%}, tol 10%), "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_7_headline_null_at_matched_noise():
    t0 = time.time()
    block_s = 8192 / CFG.sample_rate_hz
    n_blocks_total = int(210 * 3600 / block_s)        # 210 h equivalent
    t_total = n_blocks_total * block_s
    sigma_target = 2e-22                              # T^-2
    asd = ellipticity_from_deltan(sigma_target, CFG) * math.sqrt(t_total)

    blocks_per_run = 211
    estimates = []
    done = 0
    run_id = 0
    while done < n_blocks_total:
        nb = min(blocks_per_run, n_blocks_total - done)
        noise = NoiseModel(ellipticity_noise_density=asd, rng_seed=1000 + run_id)
        rec = synthesize_run(CFG, NullSource(), noise,
                             nb * 256 / CFG.magnet_rotation_hz)
        estimates.append(analyze_record(rec))
        done += nb
        run_id += 1
    mean, sigma, hours = combine_runs(estimates)
    central, _ = project_physical(mean, analytic_calibration(CFG))
    elapsed = time.time() - t0
    ok = abs(central) <= 2.0 * sigma and abs(sigma / sigma_target - 1.0) < 0.10
    _report(
        7, ok,
        f"{hours:.1f} h-equivalent over {run_id} runs: central = {central:+.2e}, "
        f"sigma = {sigma:.3e} T^-2 (target 2e-22, |central|/sigma = {abs(central)/sigma:.2f}, "
        f"need <= 2), elapsed {elapsed:.1f}s",
    )


def test_criterion_8_alp_regime_oracles():
    from vmbsim.constants import NATURAL_UNITS

    omega = CFG.photon_energy_ev
    l_nat = NATURAL_UNITS.length_to_natural(CFG.field_length_m)
    b = CFG.effective_field_t

    # small-x: full vs the small-mass limit, for x <= 0.01
    small_ok = True
    worst_small = 0.0
    for x in (1e-4, 1e-3, 0.01):
        m = math.sqrt(x * 4.0 * omega / l_nat)
        p = AlpParams(1e-16, m, omega, CFG.field_length_m)
        dev = abs(alp_deltan(p, b) / alp_deltan_small_mass(p, b) - 1.0)
        worst_small = max(worst_small, dev)
        small_ok = small_ok and dev < 0.01

    # large-x: decade-averaged agreement with the large-mass limit for x > 100
    ratios = []
    for x in np.logspace(2.0, 3.0, 64):
        m = math.sqrt(x * 4.0 * omega / l_nat)
        p = AlpParams(1e-16, m, omega, CFG.field_length_m)
        ratios.append(alp_deltan(p, b) / alp_deltan_large_mass(p, b))
    large_dev = abs(float(np.mean(ratios)) - 1.0)

    # exclusion round trip at 1e-9
    limit = BirefringenceLimit(4e-23, 2e-22)
    curve = alp_exclusion(limit, CFG)
    dn_target = curve.metadata["deltanu_bound_t2"] * b**2
    worst_rt = 0.0
    for m, g in zip(curve.mass_grid_ev[::13], curve.bound_values[::13]):
        p = AlpParams(g, m, omega, CFG.field_length_m)
        worst_rt = max(worst_rt, abs(alp_deltan(p, b) / dn_target - 1.0))

    ok = small_ok and large_dev < 0.01 and worst_rt < 1e-9
    _report(
        8, ok,
        f"small-x worst dev {worst_small:.2e} (tol 1%), large-x decade-avg dev "
        f"{large_dev:.2e} (tol 1%), exclusion round-trip worst {worst_rt:.1e} (tol 1e-9)",
    )


def test_criterion_9_mcp_constants_and_structure():
    mp.mp.dps = 40
    k_oracle = float(
        mp.sqrt(mp.pi) * mp.power(2, mp.mpf(1) / 3)
        * mp.gamma(mp.mpf(2) / 3) ** 2 / mp.gamma(mp.mpf(1) / 6)
    )
    k_dev = abs(MCP_LARGE_CHI_K - k_oracle)

    f = McpParams(1e-9, 0.5, CFG.photon_energy_ev, "fermion")
    s = McpParams(1e-9, 0.5, CFG.photon_energy_ev, "scalar")
    vf, _ = mcp_deltan(f, 2.5)
    vs, _ = mcp_deltan(s, 2.5)
    ratio_exact = vs / vf == -0.5 or abs(vs / vf + 0.5) < 1e-14

    # published bound convention (one-sigma, as reproduces the cross-section number)
    limit = BirefringenceLimit(4e-23, 2e-22)
    curve = mcp_exclusion(limit, CFG, statistics="fermion", rule="one-sigma")
    mask = (curve.mass_grid_ev < 0.02) & ~np.isnan(curve.bound_values)
    eps_max = float(np.nanmax(curve.bound_values[mask]))

    ok = k_dev < 1e-6 and ratio_exact and mask.sum() > 0 and eps_max < 1e-7
    _report(
        9, ok,
        f"K = {MCP_LARGE_CHI_K:.10f} (|dev| = {k_dev:.1e} vs oracle, tol 1e-6), "
        f"scalar/fermion small-chi ratio = {vs/vf:.12f} (exact -1/2), "
        f"eps_bound below 20 meV: max {eps_max:.3e} over {mask.sum()} masses (need < 1e-7)",
    )


def test_criterion_10_full_vs_fast_fidelity():
    t0 = time.time()
    src = FixedEllipticitySource(1.13e-7)
    duration = 16 / CFG.magnet_rotation_hz
    rec_fast = synthesize_run(CFG, src, QUIET, duration)
    rec_full = synthesize_run(CFG, src, QUIET, duration, fidelity="full")
    a_fast = abs(block_fft(demodulate(rec_fast), CFG, block_size=512).amplitude_2omega[0])
    a_full = abs(block_fft(demodulate(rec_full), CFG, block_size=512).amplitude_2omega[0])
    dev = abs(a_full / a_fast - 1.0)
    elapsed = time.time() - t0
    ok = dev < 0.01 and elapsed < 120.0
    _report(
        10, ok,
        f"fast = {a_fast:.5e}, full = {a_full:.5e}, rel dev {dev:.2%} (tol 1%), "
        f"elapsed {elapsed:.1f}s (16 revolutions full fidelity)",
    )
