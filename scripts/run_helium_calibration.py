#!/usr/bin/env python3
"""Synthetic helium pressure scan: calibrate the physical phase and fit the
Cotton-Mouton coefficient from a few low-pressure runs, then check an
independent helium run against the fit.

Writes the pressure-scan table (the linear-fit figure data) and the
calibration file, in the layout of ``vmbsim calibrate``, into --out-dir.
"""

import argparse
from pathlib import Path

from vmbsim.apparatus import ApparatusConfig, GasSource, NoiseModel, key_value_lines, write_table
from vmbsim.constants import convert_pressure
from vmbsim.pipeline import analyze_record, calibrate, project_physical
from vmbsim.synth import synthesize_run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("helium_calibration"))
    ap.add_argument("--pressures-ubar", type=float, nargs="+", default=[32.0, 64.0, 128.0])
    ap.add_argument("--blocks-per-run", type=int, default=42, help="256-revolution blocks")
    ap.add_argument("--noise-asd", type=float, default=3.6e-7,
                    help="ellipticity noise density, 1/sqrt(Hz)")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    cfg = ApparatusConfig()
    duration = args.blocks_per_run * 8192 / cfg.sample_rate_hz
    print(f"synthesizing {len(args.pressures_ubar)} helium runs of {duration/3600:.2f} h each")

    def helium_run(ubar: float, seed: int):
        noise = NoiseModel(ellipticity_noise_density=args.noise_asd, rng_seed=seed)
        source = GasSource("He", convert_pressure(ubar, "ubar", "atm"))
        return analyze_record(synthesize_run(cfg, source, noise, duration))

    estimates = [helium_run(ubar, args.seed + i) for i, ubar in enumerate(args.pressures_ubar)]

    cal = calibrate(estimates, "He")
    print(f"physical phase        : {cal.phase_rad:.6f} rad (axis mod pi: {cal.axis_phase:.6f})")
    print(f"fitted deltan_u(He)   : {cal.fit_slope:.4e} +/- {cal.fit_slope_sigma:.1e} T^-2 atm^-1")
    print(f"fitted intercept      : {cal.fit_intercept:+.2e} +/- {cal.fit_intercept_sigma:.1e} T^-2")
    print(f"per-run phases (drift): {', '.join(f'{p:+.5f}' for p in cal.per_run_phases)}")

    scan_path = args.out_dir / "pressure_scan.csv"
    write_table(scan_path, [], ("pressure_atm", "deltan_over_B2_phys", "sigma"),
                ((convert_pressure(ubar, "ubar", "atm"),
                  project_physical(est.deltan_over_b2, cal)[0], est.deltan_over_b2_sigma)
                 for est, ubar in zip(estimates, args.pressures_ubar)))
    print(f"wrote {scan_path}")

    # independent check run at a pressure not in the fit
    est = helium_run(48.0, args.seed + 99)
    measured, _ = project_physical(est.deltan_over_b2, cal)
    predicted = cal.fit_intercept + cal.fit_slope * convert_pressure(48.0, "ubar", "atm")
    z = (measured - predicted) / est.deltan_over_b2_sigma
    print(f"check run at 48 ubar  : measured {measured:.4e} T^-2, "
          f"fit predicts {predicted:.4e} (z = {z:+.2f})")

    cal_path = args.out_dir / "calibration.txt"
    cal_path.write_text(key_value_lines(cal.to_key_values().items()))
    print(f"wrote {cal_path}")


if __name__ == "__main__":
    main()
