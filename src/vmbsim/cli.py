"""Command-line entry point.

Commands: ``simulate``, ``analyze``, ``calibrate``, ``limits {alp|mcp|xsec|report}``
and ``pipeline`` (simulate -> analyze -> limits in one shot).  Exit codes are a
stable contract: 0 success, 1 usage/config error, 2 data error.  All numeric
output uses 9-significant-digit scientific notation and no file carries a
timestamp, so identical manifests produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .apparatus import (
    ApparatusConfig,
    NoiseModel,
    _format_rows,
    _table_header,
    format_number,
    key_value_lines,
    parse_source,
    read_record,
    write_record,
    write_table,
)
from .configio import ConfigError, load_config, manifest, parse_key_values
from .limits import (
    BOUND_RULES,
    BirefringenceLimit,
    alp_exclusion,
    comparison_report,
    confidence_bound,
    cross_section_limit,
    default_mass_grid,
    mcp_exclusion,
    write_curve,
)
from .pipeline import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_NOISE_HALFWIDTH,
    CalibrationPhase,
    _analyze,
    analytic_calibration,
    calibrate,
    combine_runs,
    project_physical,
)
from .synth import DEFAULT_PEM_OVERSAMPLE, synthesize_run

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

    def add_synthesis(p):
        p.add_argument("--source", default="none", help="birefringence source spec")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--revolutions", type=int, default=256)
        p.add_argument("--fidelity", choices=("fast", "full"), default="fast")
        p.add_argument("--noise-asd", type=float, default=0.0,
                       help="ellipticity noise density, 1/sqrt(Hz)")
        p.add_argument("--detector-noise", type=float, default=0.0,
                       help="relative intensity noise per sample")
        p.add_argument("--tone", action="append", default=[],
                       help="spurious ellipticity tone freq_hz:amp:phase (repeatable)")

    def add_analysis(p):
        p.add_argument("--blocks", "--block-size", dest="block_size", type=int,
                       default=DEFAULT_BLOCK_SIZE)
        p.add_argument("--noise-halfwidth", type=int, default=DEFAULT_NOISE_HALFWIDTH)

    sim = sub.add_parser("simulate", help="synthesize a run record")
    add_common(sim)
    add_synthesis(sim)
    sim.add_argument("--pem-oversample", type=int, default=DEFAULT_PEM_OVERSAMPLE)
    sim.add_argument("--name", default=None, help="output file stem (default run-seed<seed>)")

    ana = sub.add_parser("analyze", help="run the lock-in/FFT/Rayleigh analysis")
    add_common(ana)
    ana.add_argument("records", nargs="*", type=Path)
    add_analysis(ana)
    ana.add_argument("--calibration", type=Path, help="calibration file from 'calibrate'")
    ana.add_argument("--allow-mismatch", action="store_true",
                     help="accept records whose config hash differs from --config")

    cal = sub.add_parser("calibrate", help="fit the physical phase and gas coefficient")
    add_common(cal)
    cal.add_argument("records", nargs="*", type=Path)
    cal.add_argument("--gas", required=True)
    add_analysis(cal)

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
    add_synthesis(pipe)
    add_analysis(pipe)
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
        fh.write(key_value_lines([("manifest_hash", manifest_hash)], "# "))
        fh.write(key_value_lines(items))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = _load_config_arg(args)
    tones = _parse_tones(args.tone)
    items = [
        ("source", args.source),
        ("seed", args.seed),
        ("revolutions", args.revolutions),
        ("fidelity", args.fidelity),
        ("noise_asd", args.noise_asd),
        ("detector_noise", args.detector_noise),
        ("spurious_tones", ";".join(":".join(map(format_number, tone)) for tone in tones)),
    ]
    if args.fidelity == "full":  # a fast record does not read it
        items.append(("pem_oversample", args.pem_oversample))
    text, mhash = manifest("simulate", config, items)
    try:
        source = parse_source(args.source, config)
        noise = NoiseModel(args.noise_asd, args.detector_noise, tones, rng_seed=args.seed)
        record = synthesize_run(
            config, source, noise, args.revolutions / config.magnet_rotation_hz,
            fidelity=args.fidelity, pem_oversample=args.pem_oversample,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    record.metadata["manifest_hash"] = mhash
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.name or f"run-seed{args.seed}"
    record_path = args.out_dir / f"{stem}.csv"
    write_record(record, record_path)
    (args.out_dir / f"{stem}.manifest.txt").write_text(f"# manifest_hash = {mhash}\n{text}")
    print(f"wrote {record_path} ({len(record)} samples, fidelity={args.fidelity})")
    return EXIT_OK


def _analysis_options(args) -> None:
    """Refuse ``--blocks`` below 1 and ``--noise-halfwidth`` below 0, before any file is touched."""
    if args.block_size < 1:
        raise UsageError(f"--blocks must be >= 1, got {args.block_size}")
    if args.noise_halfwidth < 0:
        raise UsageError(f"--noise-halfwidth must be >= 0, got {args.noise_halfwidth}")


def _record_paths(args) -> list[Path]:
    if not args.records:
        raise UsageError("at least one record file is required")
    return args.records


def _analyze_file(path: Path, args, config: ApparatusConfig, first: ApparatusConfig | None,
                  override: bool = True, spectrum: bool = False):
    """``(estimate, (frequencies, averaged spectrum) or None, items)`` of a record file, not kept.

    The manifest ``items`` name the record by its file name, its header's
    seed and source, and its header's manifest hash when it has one.  A
    record of another configuration than the ``first`` record's or
    ``--config`` is refused.  With ``override`` the command has
    ``--allow-mismatch``, which skips the check and which the errors name.
    Commands read and analyse their records one at a time through this
    function, so that a record is released before the next one is read.
    """
    if not path.exists():
        raise DataError(f"record file {path} does not exist")
    try:
        record = read_record(path)
    except ValueError as exc:
        raise DataError(f"cannot read record {path}: {exc}") from exc
    checked = not (override and args.allow_mismatch)
    got = record.config.content_hash()
    if checked and first is not None and got != first.content_hash():
        raise DataError(
            f"record {path} config hash {got} differs from the first record's "
            f"{first.content_hash()}"
            + ("; pass --allow-mismatch to analyze them together" if override else "")
        )
    if checked and args.config is not None and got != config.content_hash():
        raise DataError(
            f"record {path} config hash {got} does not match --config hash "
            f"{config.content_hash()}"
            + ("; pass --allow-mismatch to override" if override else "")
        )
    items = [("input", path.name), ("input_seed", record.seed),
             ("input_source", record.source_description)]
    if "manifest_hash" in record.metadata:
        items.append(("input_manifest_hash", record.metadata["manifest_hash"]))
    try:
        return (*_analyze(record, args.block_size, args.noise_halfwidth, spectrum=spectrum),
                items)
    except ValueError as exc:
        raise DataError(f"analysis of {path} failed: {exc}") from exc


def _read_key_values(path: Path, what: str) -> dict[str, str]:
    """The ``key = value`` pairs of a data file; an unreadable or malformed file is a data error."""
    try:
        return parse_key_values(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc
    except (ConfigError, UnicodeDecodeError) as exc:
        raise DataError(f"{what} file {path} is malformed: {exc}") from exc


def _load_calibration(path: Path) -> CalibrationPhase:
    kv = _read_key_values(path, "calibration")
    try:
        phase_rad = float(kv["phase_rad"])
    except KeyError as exc:
        raise DataError(f"calibration file {path} lacks key {exc}") from exc
    except ValueError as exc:
        raise DataError(f"calibration file {path} has an unusable phase_rad: {exc}") from exc
    if not math.isfinite(phase_rad):
        raise DataError(f"calibration file {path} has a non-finite phase_rad = {kv['phase_rad']}")
    return CalibrationPhase(phase_rad=phase_rad, source_gas=kv.get("gas", ""))


def _cmd_analyze(args) -> int:
    config = _load_config_arg(args)
    _analysis_options(args)
    paths = _record_paths(args)
    calibration = _load_calibration(args.calibration) if args.calibration else None
    # one record at a time: each is read, checked and analysed, and only its estimate and
    # averaged spectrum are kept; every output is written after the last one
    estimates, spectra = [], []
    items = [("block_size", args.block_size), ("noise_halfwidth", args.noise_halfwidth)]
    for path in paths:
        estimate, spectrum, inputs = _analyze_file(path, args, config,
                                                   estimates[0].config if estimates else None,
                                                   spectrum=True)
        estimates.append(estimate)
        spectra.append(spectrum)
        items += inputs
    if calibration is not None:
        items.append(("calibration_phase_rad", calibration.phase_rad))

    first = estimates[0]
    mhash = manifest("analyze", first.config, items)[1]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for path, spectrum in zip(paths, spectra):
        _write_spectrum(args.out_dir / f"{path.stem}.spectrum.csv", spectrum, mhash)

    dn_mean, dn_sigma, hours = combine_runs(estimates)
    cal = calibration or analytic_calibration(first.config)
    phys, nonphys = project_physical(dn_mean, cal)

    write_table(
        args.out_dir / "runs.csv", [("manifest_hash", mhash)],
        ("run_id", "hours", "deltan_over_B2_phys", "deltan_over_B2_nonphys", "sigma", "finesse",
         "field_integral"),
        # each run on its own analytic axis unless a calibration file sets one
        [(path.stem, est.hours,
          *project_physical(est.deltan_over_b2, calibration or analytic_calibration(est.config)),
          est.deltan_over_b2_sigma, est.config.finesse, est.config.field_integral_t2m)
         for path, est in zip(paths, estimates)],
    )

    items = [
        ("tool_version", __version__),
        ("n_runs", len(estimates)),
        ("hours_total", hours),
        ("deltanu_physical", phys),
        ("deltanu_nonphysical", nonphys),
        ("deltanu_sigma", dn_sigma),
        ("calibration_phase_rad", cal.phase_rad),
        ("config_hash", first.config.content_hash()),
    ]
    items.extend(sorted(first.config.to_key_values().items()))
    _write_kv(args.out_dir / "estimate.txt", items, mhash)
    print(
        f"deltanu_physical = {format_number(phys)} +/- {format_number(dn_sigma)} T^-2 "
        f"({len(estimates)} runs, {hours:.3g} h)"
    )
    return EXIT_OK


def _write_spectrum(out: Path, spectrum: tuple[np.ndarray, np.ndarray], mhash: str) -> None:
    freqs, avg = spectrum
    # adding 0.0 turns -0.0 into +0.0, as format_number does, and keeps every other value
    columns = (freqs + 0.0, np.abs(avg) + 0.0, np.angle(avg) + 0.0)
    with open(out, "wb") as fh:
        fh.write(_table_header([("manifest_hash", mhash)],
                               ("frequency_hz", "amplitude", "phase_rad")).encode())
        fh.write(_format_rows(columns))


def _cmd_calibrate(args) -> int:
    config = _load_config_arg(args)
    _analysis_options(args)
    paths = _record_paths(args)
    estimates = []
    items = [("gas", args.gas), ("block_size", args.block_size),
             ("noise_halfwidth", args.noise_halfwidth)]
    for path in paths:
        # a scan fitted across configurations is refused; calibrate has no --allow-mismatch
        first = estimates[0].config if estimates else None
        estimate, _, inputs = _analyze_file(path, args, config, first, override=False)
        estimates.append(estimate)
        items += inputs
    try:
        cal = calibrate(estimates, args.gas)
    except (ValueError, KeyError) as exc:
        raise DataError(str(exc)) from exc
    args.out_dir.mkdir(parents=True, exist_ok=True)
    results = [
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
    _write_kv(args.out_dir / "calibration.txt", results,
              manifest("calibrate", estimates[0].config, items)[1])
    print(
        f"calibration: phase = {format_number(cal.phase_rad)} rad, "
        f"slope = {format_number(cal.fit_slope)} +/- {format_number(cal.fit_slope_sigma)} "
        "T^-2 atm^-1"
    )
    return EXIT_OK


def _load_estimate(path: Path) -> tuple[BirefringenceLimit, ApparatusConfig]:
    kv = _read_key_values(path, "estimate")
    try:
        limit = BirefringenceLimit(float(kv["deltanu_physical"]), float(kv["deltanu_sigma"]))
    except (KeyError, ValueError) as exc:
        raise DataError(f"estimate file {path} is missing a usable estimate: {exc}") from exc
    try:
        config = ApparatusConfig.from_key_values(kv)
    except ValueError as exc:
        raise DataError(f"estimate file {path} has an unusable config: {exc}") from exc
    return limit, config


def _limits_options(args) -> tuple[str, np.ndarray | None]:
    """The bound rule and, for a curve, the mass grid of a limits command.

    A ``--cl`` that the rule uses out of its range, or fewer than one mass a
    decade, is a usage error, found before anything is written.
    """
    rule = args.rule or ("one-sigma" if args.what == "xsec" else "gaussian-one-sided")
    try:
        if args.what != "report":
            confidence_bound(BirefringenceLimit(0.0, 1.0), args.cl, rule)  # its check of cl
        if args.what in ("alp", "mcp"):
            return rule, default_mass_grid(args.what.upper(), args.points_per_decade)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return rule, None


def _cmd_limits(args) -> int:
    rule, mass_grid = _limits_options(args)
    limit, config = _load_estimate(args.estimate)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    # only the options this command reads, so that no other option changes its hash
    items = [("estimate", args.estimate.name), ("central", limit.central),
             ("sigma", limit.sigma)]
    if args.what != "report":
        items.append(("cl_rule", rule))
    if args.what in ("alp", "mcp") or args.what == "xsec" and rule != "one-sigma":
        items.append(("cl", args.cl))
    if args.what == "mcp":
        items.append(("statistics", args.statistics))
    if mass_grid is not None:
        items.append(("points_per_decade", args.points_per_decade))
    mhash = manifest(f"limits-{args.what}", config, items)[1]

    if args.what in ("alp", "mcp"):
        if args.what == "alp":
            curve, name = alp_exclusion(limit, config, mass_grid, cl=args.cl, rule=rule), "alp"
        else:
            curve = mcp_exclusion(limit, config, mass_grid, statistics=args.statistics,
                                  cl=args.cl, rule=rule)
            name = f"mcp_{args.statistics}"
        curve.metadata["manifest_hash"] = mhash
        out = args.out_dir / f"{name}_exclusion.csv"
        write_curve(curve, out)
        print(f"wrote {out} ({len(curve.mass_grid_ev)} masses)")
    elif args.what == "xsec":
        result = cross_section_limit(limit, config.wavelength_m, rule=rule, cl=args.cl)
        _write_kv(args.out_dir / "xsec_limit.txt", sorted(result.items()), mhash)
        print(
            f"sigma_gamma_gamma < {format_number(result['sigma_gamma_gamma_m2'])} m^2 "
            f"(rule={rule}, deltanu_bound={format_number(result['deltanu_bound_t2'])} T^-2)"
        )
    else:  # report
        rows = comparison_report(limit)
        out = args.out_dir / "comparison.csv"
        write_table(out, [("manifest_hash", mhash), ("units", "1e-23 T^-2")],
                    ("experiment", "central_1e-23", "sigma_1e-23"), rows)
        print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    args.allow_mismatch = False
    _analysis_options(args)  # before anything is simulated
    limits = []
    for what in ("xsec", "report", "alp", "mcp"):
        lim_args = argparse.Namespace(**vars(args))
        lim_args.what = what
        lim_args.estimate = args.out_dir / "estimate.txt"
        lim_args.rule = None
        lim_args.statistics = "fermion"
        _limits_options(lim_args)  # before anything is simulated
        limits.append(lim_args)

    sim_args = argparse.Namespace(**vars(args))
    sim_args.name = "record"
    sim_args.pem_oversample = DEFAULT_PEM_OVERSAMPLE
    _cmd_simulate(sim_args)

    ana_args = argparse.Namespace(**vars(args))
    ana_args.records = [args.out_dir / "record.csv"]
    ana_args.calibration = None
    _cmd_analyze(ana_args)

    for lim_args in limits:
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
    with warnings.catch_warnings():
        # one line per warning, as errors are printed
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
