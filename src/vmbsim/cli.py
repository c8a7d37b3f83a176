"""Command-line entry point.

Commands: ``simulate``, ``analyze``, ``calibrate``, ``limits {alp|mcp|xsec|report}``
and ``pipeline`` (simulate -> analyze -> limits in one shot).  Exit codes are a
stable contract: 0 success, 1 usage/config error, 2 data error.  All numeric
output uses 9-significant-digit scientific notation and no file carries a
timestamp, so identical manifests produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .apparatus import (
    ApparatusConfig,
    TimeSeriesRecord,
    format_number,
    parse_source,
    read_record,
    write_record,
)
from .configio import ConfigError, RunManifest, load_config, parse_key_values
from .limits import (
    BOUND_RULES,
    BirefringenceLimit,
    ReferenceResults,
    alp_exclusion,
    comparison_report,
    cross_section_limit,
    default_mass_grid,
    mcp_exclusion,
    write_curve,
)
from .pipeline import (
    BlockSpectra,
    CalibrationPhase,
    analytic_calibration,
    averaged_spectrum,
    block_fft,
    calibrate,
    combine_runs,
    demodulate,
    estimate_from_spectra,
    project_physical,
    with_rayleigh_sigma,
)
from .synth import synthesize_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vmbsim", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="apparatus config file (key = value)")
        p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")

    sim = sub.add_parser("simulate", help="synthesize a run record")
    add_common(sim)
    sim.add_argument("--source", default="none", help="birefringence source spec")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--revolutions", type=int, default=256)
    sim.add_argument("--fidelity", choices=("fast", "full"), default="fast")
    sim.add_argument("--pem-oversample", type=int, default=16)
    sim.add_argument("--noise-asd", type=float, default=0.0,
                     help="ellipticity noise density, 1/sqrt(Hz)")
    sim.add_argument("--detector-noise", type=float, default=0.0,
                     help="relative intensity noise per sample")
    sim.add_argument("--tone", action="append", default=[],
                     help="spurious ellipticity tone freq_hz:amp:phase (repeatable)")
    sim.add_argument("--name", default=None, help="output file stem (default run-seed<seed>)")

    ana = sub.add_parser("analyze", help="run the lock-in/FFT/Rayleigh analysis")
    add_common(ana)
    ana.add_argument("records", nargs="*", type=Path)
    ana.add_argument("--blocks", "--block-size", dest="block_size", type=int, default=8192)
    ana.add_argument("--noise-halfwidth", type=int, default=64)
    ana.add_argument("--calibration", type=Path, help="calibration file from 'calibrate'")
    ana.add_argument("--allow-mismatch", action="store_true",
                     help="accept records whose config hash differs from --config")

    cal = sub.add_parser("calibrate", help="fit the physical phase and gas coefficient")
    add_common(cal)
    cal.add_argument("records", nargs="*", type=Path)
    cal.add_argument("--gas", required=True)
    cal.add_argument("--blocks", "--block-size", dest="block_size", type=int, default=8192)
    cal.add_argument("--noise-halfwidth", type=int, default=64)

    lim = sub.add_parser("limits", help="convert an estimate into physics bounds")
    add_common(lim)
    lim.add_argument("what", choices=("alp", "mcp", "xsec", "report"))
    lim.add_argument("--estimate", type=Path, required=True)
    lim.add_argument("--cl", type=float, default=0.95)
    lim.add_argument("--rule", choices=BOUND_RULES, default=None,
                     help="bound rule (default: gaussian-one-sided; xsec: one-sigma)")
    lim.add_argument("--statistics", choices=("fermion", "scalar"), default="fermion")
    lim.add_argument("--points-per-decade", type=int, default=400)

    pipe = sub.add_parser("pipeline", help="simulate, analyze and compute limits in one go")
    add_common(pipe)
    pipe.add_argument("--source", default="none")
    pipe.add_argument("--seed", type=int, default=0)
    pipe.add_argument("--revolutions", type=int, default=256)
    pipe.add_argument("--fidelity", choices=("fast", "full"), default="fast")
    pipe.add_argument("--noise-asd", type=float, default=0.0)
    pipe.add_argument("--detector-noise", type=float, default=0.0)
    pipe.add_argument("--tone", action="append", default=[])
    pipe.add_argument("--blocks", "--block-size", dest="block_size", type=int, default=8192)
    pipe.add_argument("--noise-halfwidth", type=int, default=64)
    pipe.add_argument("--cl", type=float, default=0.95)
    pipe.add_argument("--points-per-decade", type=int, default=40)
    return parser


def _load_config_arg(args) -> ApparatusConfig:
    if args.config is None:
        return ApparatusConfig()
    if not args.config.exists():
        raise UsageError(f"config file {args.config} does not exist")
    return load_config(args.config)


def _parse_tones(specs) -> tuple[tuple[float, float, float], ...]:
    tones = []
    for spec in specs:
        try:
            f, a, p = (float(x) for x in spec.split(":"))
        except ValueError as exc:
            raise UsageError(f"bad tone spec {spec!r} (expected freq:amp:phase): {exc}") from exc
        tones.append((f, a, p))
    return tuple(tones)


def _write_kv(path: Path, items, manifest_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# manifest_hash = {manifest_hash}\n")
        for key, value in items:
            value_s = format_number(value) if isinstance(value, float) else str(value)
            fh.write(f"{key} = {value_s}\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = _load_config_arg(args)
    manifest = RunManifest(
        command="simulate",
        config=config,
        source_spec=args.source,
        seed=args.seed,
        revolutions=args.revolutions,
        fidelity=args.fidelity,
        noise_asd=args.noise_asd,
        detector_noise=args.detector_noise,
        spurious_tones=_parse_tones(args.tone),
    )
    try:
        source = parse_source(args.source, config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    duration = args.revolutions / config.magnet_rotation_hz
    record = synthesize_run(
        config, source, manifest.noise_model(), duration,
        fidelity=args.fidelity, pem_oversample=args.pem_oversample,
    )
    record.metadata["manifest_hash"] = manifest.hash()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.name or f"run-seed{args.seed}"
    record_path = args.out_dir / f"{stem}.csv"
    write_record(record, record_path)
    manifest.write(args.out_dir / f"{stem}.manifest.txt")
    print(f"wrote {record_path} ({len(record)} samples, fidelity={args.fidelity})")
    return EXIT_OK


def _load_records(args) -> list[TimeSeriesRecord]:
    if not args.records:
        raise UsageError("at least one record file is required")
    records = []
    for path in args.records:
        if not path.exists():
            raise DataError(f"record file {path} does not exist")
        try:
            records.append(read_record(path))
        except (ValueError, KeyError) as exc:
            raise DataError(f"cannot read record {path}: {exc}") from exc
    return records


def _check_config_consistency(records, args, config) -> None:
    hashes = {r.config.content_hash() for r in records}
    if len(hashes) > 1 and not args.allow_mismatch:
        raise DataError(
            f"records carry {len(hashes)} different configurations; "
            "pass --allow-mismatch to analyze them together"
        )
    if args.config is not None and not args.allow_mismatch:
        expected = config.content_hash()
        for r, path in zip(records, args.records):
            if r.config.content_hash() != expected:
                raise DataError(
                    f"record {path} config hash {r.config.content_hash()} does not match "
                    f"--config hash {expected}; pass --allow-mismatch to override"
                )


def _load_calibration(path: Path) -> CalibrationPhase:
    with open(path) as fh:
        kv = parse_key_values(fh.read())
    try:
        return CalibrationPhase(
            phase_rad=float(kv["phase_rad"]),
            source_gas=kv.get("gas", ""),
            fit_slope=float(kv.get("slope_t2_per_atm", "nan")),
            fit_slope_sigma=float(kv.get("slope_sigma", "nan")),
            fit_intercept=float(kv.get("intercept", "nan")),
            fit_intercept_sigma=float(kv.get("intercept_sigma", "nan")),
        )
    except KeyError as exc:
        raise DataError(f"calibration file {path} lacks key {exc}") from exc


def _cmd_analyze(args) -> int:
    config = _load_config_arg(args)
    records = _load_records(args)
    _check_config_consistency(records, args, config)
    calibration = _load_calibration(args.calibration) if args.calibration else None
    manifest = RunManifest(
        command="analyze",
        config=records[0].config,
        source_spec=records[0].source_description,
        seed=records[0].seed,
        block_size=args.block_size,
        noise_halfwidth=args.noise_halfwidth,
        extra=tuple(("input", str(p.name)) for p in args.records),
    )
    mhash = manifest.hash()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    estimates = []
    for path, record in zip(args.records, records):
        try:
            spectra = with_rayleigh_sigma(
                block_fft(demodulate(record), record.config, block_size=args.block_size),
                args.noise_halfwidth,
            )
            estimates.append(estimate_from_spectra(spectra, record, calibration))
        except ValueError as exc:
            raise DataError(f"analysis of {path} failed: {exc}") from exc
        _write_spectrum(args.out_dir / f"{path.stem}.spectrum.csv", spectra, mhash)

    dn_mean, dn_sigma, hours = combine_runs(estimates)
    cal = calibration or analytic_calibration(records[0].config)
    phys, nonphys = project_physical(dn_mean, cal)

    runs_path = args.out_dir / "runs.csv"
    with open(runs_path, "w") as fh:
        fh.write(f"# manifest_hash = {mhash}\n")
        fh.write(
            "# columns = run_id, hours, deltan_over_B2_phys, deltan_over_B2_nonphys, "
            "sigma, finesse, field_integral\n"
        )
        for i, (path, est) in enumerate(zip(args.records, estimates)):
            fh.write(
                f"{path.stem}, {format_number(est.hours)}, "
                f"{format_number(est.deltan_over_b2_physical)}, "
                f"{format_number(est.deltan_over_b2_nonphysical)}, "
                f"{format_number(est.deltan_over_b2_sigma)}, "
                f"{format_number(est.config.finesse)}, "
                f"{format_number(est.config.field_integral_t2m)}\n"
            )

    items = [
        ("tool_version", __version__),
        ("n_runs", len(estimates)),
        ("hours_total", hours),
        ("deltanu_physical", phys),
        ("deltanu_nonphysical", nonphys),
        ("deltanu_sigma", dn_sigma),
        ("calibration_phase_rad", cal.phase_rad),
        ("config_hash", records[0].config.content_hash()),
    ]
    items.extend(sorted(records[0].config.to_key_values().items()))
    _write_kv(args.out_dir / "estimate.txt", items, mhash)
    print(
        f"deltanu_physical = {format_number(phys)} +/- {format_number(dn_sigma)} T^-2 "
        f"({len(estimates)} runs, {hours:.3g} h)"
    )
    return EXIT_OK


def _write_spectrum(out: Path, spectra: BlockSpectra, mhash: str) -> None:
    freqs, avg = averaged_spectrum(spectra)
    with open(out, "w") as fh:
        fh.write(f"# manifest_hash = {mhash}\n")
        fh.write("# columns = frequency_hz, amplitude, phase_rad\n")
        for f, c in zip(freqs, avg):
            fh.write(
                f"{format_number(float(f))}, {format_number(abs(c))}, "
                f"{format_number(float(np.angle(c)))}\n"
            )


def _cmd_calibrate(args) -> int:
    _load_config_arg(args)
    records = _load_records(args)
    manifest = RunManifest(
        command="calibrate",
        config=records[0].config,
        source_spec=f"gas:{args.gas}",
        block_size=args.block_size,
        noise_halfwidth=args.noise_halfwidth,
        extra=tuple(("input", str(p.name)) for p in args.records),
    )
    try:
        cal = calibrate(
            records, args.gas, block_size=args.block_size, noise_halfwidth=args.noise_halfwidth
        )
    except (ValueError, KeyError) as exc:
        raise DataError(str(exc)) from exc
    args.out_dir.mkdir(parents=True, exist_ok=True)
    items = [
        ("tool_version", __version__),
        ("gas", args.gas),
        ("phase_rad", cal.phase_rad),
        ("axis_phase_mod_pi", cal.axis_phase),
        ("slope_t2_per_atm", cal.fit_slope),
        ("slope_sigma", cal.fit_slope_sigma),
        ("intercept", cal.fit_intercept),
        ("intercept_sigma", cal.fit_intercept_sigma),
        ("n_points", len(cal.per_run_phases)),
        ("per_run_phases_rad", ";".join(format_number(p) for p in cal.per_run_phases)),
    ]
    _write_kv(args.out_dir / "calibration.txt", items, manifest.hash())
    print(
        f"calibration: phase = {format_number(cal.phase_rad)} rad, "
        f"slope = {format_number(cal.fit_slope)} +/- {format_number(cal.fit_slope_sigma)} "
        "T^-2 atm^-1"
    )
    return EXIT_OK


def _load_estimate(path: Path) -> tuple[BirefringenceLimit, ApparatusConfig]:
    if not path.exists():
        raise DataError(f"estimate file {path} does not exist")
    with open(path) as fh:
        kv = parse_key_values(fh.read())
    try:
        limit = BirefringenceLimit(float(kv["deltanu_physical"]), float(kv["deltanu_sigma"]))
    except (KeyError, ValueError) as exc:
        raise DataError(f"estimate file {path} is missing a usable estimate: {exc}") from exc
    try:
        config = ApparatusConfig.from_key_values(kv)
    except ValueError as exc:
        raise DataError(f"estimate file {path} has an unusable config: {exc}") from exc
    return limit, config


def _cmd_limits(args) -> int:
    limit, config = _load_estimate(args.estimate)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=f"limits-{args.what}",
        config=config,
        cl=args.cl,
        cl_rule=args.rule or ("one-sigma" if args.what == "xsec" else "gaussian-one-sided"),
        extra=(
            ("estimate", str(args.estimate.name)),
            ("central", format_number(limit.central)),
            ("sigma", format_number(limit.sigma)),
            ("statistics", args.statistics),
            ("points_per_decade", str(args.points_per_decade)),
        ),
    )
    mhash = manifest.hash()

    if args.what == "alp":
        rule = args.rule or "gaussian-one-sided"
        curve = alp_exclusion(
            limit, config, default_mass_grid("ALP", args.points_per_decade),
            cl=args.cl, rule=rule,
        )
        curve.metadata["manifest_hash"] = mhash
        out = args.out_dir / "alp_exclusion.csv"
        write_curve(curve, out)
        print(f"wrote {out} ({len(curve.mass_grid_ev)} masses)")
    elif args.what == "mcp":
        rule = args.rule or "gaussian-one-sided"
        curve = mcp_exclusion(
            limit, config, default_mass_grid("MCP", args.points_per_decade),
            statistics=args.statistics, cl=args.cl, rule=rule,
        )
        curve.metadata["manifest_hash"] = mhash
        out = args.out_dir / f"mcp_{args.statistics}_exclusion.csv"
        write_curve(curve, out)
        print(f"wrote {out} ({len(curve.mass_grid_ev)} masses)")
    elif args.what == "xsec":
        rule = args.rule or "one-sigma"
        result = cross_section_limit(limit, config.wavelength_m, rule=rule, cl=args.cl)
        _write_kv(args.out_dir / "xsec_limit.txt", sorted(result.items()), mhash)
        print(
            f"sigma_gamma_gamma < {format_number(result['sigma_gamma_gamma_m2'])} m^2 "
            f"(rule={rule}, deltanu_bound={format_number(result['deltanu_bound_t2'])} T^-2)"
        )
    else:  # report
        rows = comparison_report(limit, ReferenceResults.bundled())
        out = args.out_dir / "comparison.csv"
        with open(out, "w") as fh:
            fh.write(f"# manifest_hash = {mhash}\n")
            fh.write("# units = 1e-23 T^-2\n")
            fh.write("# columns = experiment, central_1e-23, sigma_1e-23\n")
            for name, central, sigma in rows:
                fh.write(f"{name}, {format_number(central)}, {format_number(sigma)}\n")
        print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    args.allow_mismatch = False
    sim_args = argparse.Namespace(**vars(args))
    sim_args.name = "record"
    sim_args.pem_oversample = 16
    _cmd_simulate(sim_args)

    ana_args = argparse.Namespace(**vars(args))
    ana_args.records = [args.out_dir / "record.csv"]
    ana_args.calibration = None
    _cmd_analyze(ana_args)

    for what in ("xsec", "report", "alp", "mcp"):
        lim_args = argparse.Namespace(**vars(args))
        lim_args.what = what
        lim_args.estimate = args.out_dir / "estimate.txt"
        lim_args.rule = None
        lim_args.statistics = "fermion"
        _cmd_limits(lim_args)
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "calibrate": _cmd_calibrate,
    "limits": _cmd_limits,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
