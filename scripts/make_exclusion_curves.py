#!/usr/bin/env python3
"""Produce the physics outputs from a birefringence measurement: the
photon-photon cross-section bound, ALP and millicharged-particle exclusion
curves, and the comparison table against published results.

By default uses the headline (4 +/- 20)e-23 T^-2 measurement; pass
--central/--sigma to use another.
"""

import argparse
from pathlib import Path

from vmbsim.apparatus import ApparatusConfig, write_table
from vmbsim.limits import (
    BirefringenceLimit,
    alp_exclusion,
    comparison_report,
    cross_section_limit,
    mcp_exclusion,
    write_curve,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("exclusion_outputs"))
    ap.add_argument("--central", type=float, default=4e-23)
    ap.add_argument("--sigma", type=float, default=2e-22)
    ap.add_argument("--cl", type=float, default=0.95)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    cfg = ApparatusConfig()
    limit = BirefringenceLimit(args.central, args.sigma)

    xs = cross_section_limit(limit, cfg.wavelength_m)
    print(f"sigma_gamma_gamma < {xs['sigma_gamma_gamma_m2']:.3e} m^2 "
          f"(rule {xs['rule']}, Delta n_u bound {xs['deltanu_bound_t2']:.2e} T^-2)")

    alp = alp_exclusion(limit, cfg, cl=args.cl)
    write_curve(alp, args.out_dir / "alp_exclusion.csv")
    print(f"ALP curve: {len(alp.mass_grid_ev)} masses, "
          f"bound at 1 meV ~ {alp.bound_values[len(alp.bound_values)//2]:.2e} eV^-1")

    for stats in ("fermion", "scalar"):
        curve = mcp_exclusion(limit, cfg, statistics=stats, cl=args.cl)
        write_curve(curve, args.out_dir / f"mcp_{stats}_exclusion.csv")
        gaps = ", ".join(f"[{a:.3g}, {b:.3g}] eV" for a, b in curve.gap_intervals)
        print(f"MCP {stats}: gap interval(s) {gaps}")

    rows = comparison_report(limit)
    table = args.out_dir / "comparison.csv"
    write_table(table, [("units", "1e-23 T^-2")], ("experiment", "central_1e-23", "sigma_1e-23"),
                rows)
    print(f"wrote {table}")


if __name__ == "__main__":
    main()
