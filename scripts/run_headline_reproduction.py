#!/usr/bin/env python3
"""Null-measurement campaign at matched noise: synthesize many pure-noise runs
whose combined statistical power corresponds to a long integration, run the
block-FFT / Rayleigh / weighted-average chain, and report the final
physical and non-physical projections of Delta n_u.

The noise density is chosen so the target total integration yields the
requested combined sigma; with zero injected physics the central values must
come out compatible with zero.
"""

import argparse
import math
from pathlib import Path

from vmbsim.apparatus import ApparatusConfig, NoiseModel, NullSource, format_number
from vmbsim.pipeline import (
    analytic_calibration,
    analyze_record,
    combine_runs,
    ellipticity_from_deltan,
    project_physical,
)
from vmbsim.synth import synthesize_run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("headline_reproduction"))
    ap.add_argument("--hours", type=float, default=210.0)
    ap.add_argument("--sigma-target", type=float, default=2e-22,
                    help="combined sigma on Delta n_u, T^-2")
    ap.add_argument("--blocks-per-run", type=int, default=253,
                    help="256-revolution blocks per run (~6 h at 3 Hz)")
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    cfg = ApparatusConfig()
    block_s = 8192 / cfg.sample_rate_hz
    n_blocks = int(args.hours * 3600 / block_s)
    t_total = n_blocks * block_s
    asd = ellipticity_from_deltan(args.sigma_target, cfg) * math.sqrt(t_total)
    print(f"{n_blocks} blocks of {block_s:.1f} s ({t_total/3600:.1f} h); "
          f"noise density {asd:.3e} /sqrt(Hz)")

    estimates = []
    done = 0
    run_id = 0
    while done < n_blocks:
        nb = min(args.blocks_per_run, n_blocks - done)
        noise = NoiseModel(ellipticity_noise_density=asd, rng_seed=args.seed + run_id)
        rec = synthesize_run(cfg, NullSource(), noise, nb * 256 / cfg.magnet_rotation_hz)
        estimates.append(analyze_record(rec))
        done += nb
        run_id += 1

    mean, sigma, hours = combine_runs(estimates)
    physical, nonphysical = project_physical(mean, analytic_calibration(cfg))
    runs_path = args.out_dir / "per_run_projections.csv"
    with open(runs_path, "w") as fh:
        fh.write("# columns = run_id, hours, deltan_over_B2_phys, deltan_over_B2_nonphys, sigma\n")
        for i, est in enumerate(estimates):
            fh.write(
                f"{i}, {format_number(est.hours)}, "
                f"{format_number(est.deltan_over_b2_physical)}, "
                f"{format_number(est.deltan_over_b2_nonphysical)}, "
                f"{format_number(est.deltan_over_b2_sigma)}\n"
            )
    print(f"wrote {runs_path} ({run_id} runs)")

    print(f"\ncombined over {hours:.1f} h:")
    print(f"  physical     : ({format_number(physical)}) +/- {format_number(sigma)} T^-2 "
          f"({physical/sigma:+.2f} sigma)")
    print(f"  non-physical : ({format_number(nonphysical)}) +/- {format_number(sigma)} T^-2 "
          f"({nonphysical/sigma:+.2f} sigma)")


if __name__ == "__main__":
    main()
