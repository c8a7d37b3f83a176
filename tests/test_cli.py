"""Command-line contract: exit codes, file formats, determinism."""

import math

import numpy as np
import pytest

from vmbsim.cli import main
from vmbsim.configio import RunManifest, config_text, load_config, parse_config
from vmbsim.apparatus import ApparatusConfig


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def he_record(tmp_path):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--source", "gas:He:32ubar", "--seed", "7",
        "--revolutions", "512", "--noise-asd", "3e-7", "--out-dir", out,
    )
    assert code == 0
    return out / "run-seed7.csv"


class TestSimulate:
    def test_row_count(self, tmp_path):
        out = tmp_path / "o"
        assert run("simulate", "--source", "qed", "--revolutions", "256",
                   "--out-dir", out, "--noise-asd", "1e-7") == 0
        lines = [l for l in (out / "run-seed0.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 256 * 32

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--source", "fixed-deltanu:1e-22", "--seed", "3",
                       "--revolutions", "64", "--noise-asd", "1e-6", "--out-dir", out) == 0
        assert (a / "run-seed3.csv").read_bytes() == (b / "run-seed3.csv").read_bytes()
        assert (a / "run-seed3.manifest.txt").read_bytes() == (
            b / "run-seed3.manifest.txt"
        ).read_bytes()

    def test_bad_source_is_usage_error(self, tmp_path):
        assert run("simulate", "--source", "gas:He", "--out-dir", tmp_path) == 1

    def test_invalid_config_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("samples_per_revolution = 24\n")
        assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 1
        assert "samples_per_revolution" in capsys.readouterr().err

    def test_manifest_hash_embedded(self, he_record):
        header = he_record.read_text().split("\n", 40)
        assert any("manifest_hash" in line for line in header[:40])


class TestAnalyze:
    def test_empty_input_usage_error(self, tmp_path):
        assert run("analyze", "--out-dir", tmp_path) == 1

    def test_missing_file_data_error(self, tmp_path):
        assert run("analyze", tmp_path / "nope.csv", "--out-dir", tmp_path) == 2

    def test_outputs(self, he_record, tmp_path):
        out = tmp_path / "ana"
        assert run("analyze", he_record, "--out-dir", out) == 0
        assert (out / "estimate.txt").exists()
        assert (out / "runs.csv").exists()
        assert (out / "run-seed7.spectrum.csv").exists()
        text = (out / "estimate.txt").read_text()
        assert "deltanu_physical" in text and "deltanu_sigma" in text
        # spectrum has the documented columns
        spec_lines = (out / "run-seed7.spectrum.csv").read_text().splitlines()
        assert any("frequency_hz, amplitude, phase_rad" in l for l in spec_lines[:3])

    def test_truncated_record_is_data_error(self, he_record, tmp_path, capsys):
        # cut at a row boundary: one whole block is left, but the header disagrees
        cut = tmp_path / "cut.csv"
        cut.write_text("".join(he_record.read_text().splitlines(keepends=True)[:-100]))
        assert run("analyze", cut, "--out-dir", tmp_path / "t") == 2
        assert "n_samples" in capsys.readouterr().err

    @staticmethod
    def _corrupt(record, tmp_path, row, edit):
        """Copy of ``record`` with its data row ``row`` (0-based) replaced by ``edit(fields)``."""
        lines = record.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[first + row].rstrip("\n").split(", ")
        lines[first + row] = edit(fields) + "\n"
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        return bad

    def test_non_finite_value_names_row(self, he_record, tmp_path, capsys):
        bad = self._corrupt(he_record, tmp_path, 41, lambda f: ", ".join(f[:2] + ["nan"] + f[3:]))
        assert run("analyze", bad, "--out-dir", tmp_path / "n") == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and "row 42" in err and "I_2OmegaPEM" in err

    @pytest.mark.parametrize("edit", [
        lambda f: ", ".join(f[:1] + ["abc"] + f[2:]),
        lambda f: ", ".join(f[:4]),
    ], ids=["non_numeric_cell", "four_field_row"])
    def test_malformed_row_is_data_error(self, he_record, tmp_path, edit):
        bad = self._corrupt(he_record, tmp_path, 7, edit)
        assert run("analyze", bad, "--out-dir", tmp_path / "m") == 2

    @pytest.mark.parametrize("edit, reason", [
        (lambda f: ", ".join(f[:1] + ["abc"] + f[2:]),
         "'abc' in column I_OmegaPEM is not a number"),
        (lambda f: ", ".join(f[:4]), "4 fields, expected 5"),
    ], ids=["non_numeric_cell", "four_field_row"])
    def test_malformed_row_names_data_row_and_file_line(self, he_record, tmp_path, capsys,
                                                        edit, reason):
        bad = self._corrupt(he_record, tmp_path, 7, edit)
        header_lines = sum(line.startswith("#") for line in bad.read_text().splitlines())
        assert run("analyze", bad, "--out-dir", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert f"data row 8 (file line {header_lines + 8}): {reason}" in err
        assert "usecols" not in err

    @pytest.fixture()
    def small_full_record(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("pem_frequency = 960 Hz\nmagnet_rotation = 3 Hz\n")
        sim = tmp_path / "full"
        assert run("simulate", "--config", cfg, "--source", "fixed-ellipticity:1e-6",
                   "--revolutions", "32", "--fidelity", "full", "--out-dir", sim) == 0
        return sim / "run-seed0.csv"

    @staticmethod
    def _edit_header(record, tmp_path, line, replacement):
        text = record.read_text()
        assert f"\n{line}\n" in text
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace(f"\n{line}\n", f"\n{replacement}\n", 1))
        return bad

    @pytest.mark.parametrize("record, line, replacement, key", [
        ("small_full_record", "# pem_oversample = 16", "# pem_oversample = 16.5",
         "pem_oversample"),
        ("small_full_record", "# pem_oversample = 16", "# pem_oversample = 0", "pem_oversample"),
        ("small_full_record", "# pem_oversample = 16", "# pem_oversample = 12", "pem_oversample"),
        ("small_full_record", "# samples_per_output_bin = 160",
         "# samples_per_output_bin = 168", "samples_per_output_bin"),
        ("small_full_record", "# sample_rate_hz = 1.53600000e+04",
         "# sample_rate_hz = 1.53600010e+04", "sample_rate_hz"),
        ("he_record", "# sample_rate_hz = 9.60000000e+01", "# sample_rate_hz = 9.70000000e+01",
         "sample_rate_hz"),
    ], ids=["oversample_fraction", "oversample_zero", "oversample_not_a_divisor",
            "bin_not_whole_cycles", "full_sample_rate", "fast_sample_rate"])
    def test_inconsistent_header_is_data_error(self, request, tmp_path, capsys, record, line,
                                               replacement, key):
        bad = self._edit_header(request.getfixturevalue(record), tmp_path, line, replacement)
        # block and noise window that analyze both uncorrupted records
        assert run("analyze", bad, "--blocks", "1024", "--noise-halfwidth", "60",
                   "--out-dir", tmp_path / "h") == 2
        assert key in capsys.readouterr().err

    def test_sample_rate_within_header_precision_accepted(self, small_full_record, tmp_path):
        # one unit in the 9th digit is within the header's rounding
        bad = self._edit_header(small_full_record, tmp_path, "# sample_rate_hz = 1.53600000e+04",
                                "# sample_rate_hz = 1.53600001e+04")
        assert run("analyze", bad, "--blocks", "1024", "--noise-halfwidth", "60",
                   "--out-dir", tmp_path / "a") == 0

    def test_config_hash_mismatch_is_data_error(self, he_record, tmp_path, capsys):
        bad = self._edit_header(he_record, tmp_path, "# config.finesse = 6.70000000e+05",
                                "# config.finesse = 3.00000000e+05")
        assert run("analyze", bad, "--out-dir", tmp_path / "c") == 2
        err = capsys.readouterr().err
        written = ApparatusConfig().content_hash()
        assert f"config_hash = {written}" in err
        assert ApparatusConfig(finesse=3e5).content_hash() in err

    @pytest.mark.parametrize("record, row, col, shift, name", [
        ("he_record", 41, 0, 1.0 / 96.0, "time"),
        ("he_record", 41, 4, 0.5, "magnet_phase"),
        ("he_record", 0, 4, 0.5, "magnet_phase"),
        ("small_full_record", 1000, 0, -1e-5, "time"),
        ("small_full_record", 1000, 4, 0.5, "magnet_phase"),
    ], ids=["fast_time", "fast_phase", "fast_phase_first_row", "full_time", "full_phase"])
    def test_shifted_derived_column_is_data_error(self, request, tmp_path, capsys, record, row,
                                                  col, shift, name):
        def edit(fields):
            fields[col] = "%.8e" % (float(fields[col]) + shift)
            return ", ".join(fields)

        bad = self._corrupt(request.getfixturevalue(record), tmp_path, row, edit)
        header_lines = sum(line.startswith("#") for line in bad.read_text().splitlines())
        assert run("analyze", bad, "--blocks", "1024", "--noise-halfwidth", "60",
                   "--out-dir", tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert f"data row {row + 1} (file line {header_lines + row + 1}): {name} = " in err

    @pytest.mark.parametrize("fidelity", ["fast", "full"])
    def test_config_beyond_header_digits_accepted(self, tmp_path, fidelity):
        # both values have more than the header's 9 digits, so the derived phase
        # moves by up to 5e-9 of the unwrapped phase and crosses the wrap near 0
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("polarizer_angle = 45 deg\nmagnet_rotation = 2.7182818284 Hz\n"
                       "pem_frequency = 960 Hz\n")
        sim = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--source", "gas:He:32ubar", "--revolutions",
                   "64", "--fidelity", fidelity, "--noise-asd", "3e-7", "--out-dir", sim) == 0
        assert run("analyze", sim / "run-seed0.csv", "--blocks", "1024", "--noise-halfwidth",
                   "60", "--out-dir", tmp_path / "a") == 0

    def test_header_without_rows_is_data_error(self, he_record, tmp_path, capsys):
        lines = he_record.read_text().splitlines(keepends=True)
        empty = tmp_path / "empty.csv"
        empty.write_text("".join(line for line in lines if line.startswith("#")))
        assert run("analyze", empty, "--out-dir", tmp_path / "e") == 2
        assert "no samples" in capsys.readouterr().err

    def test_one_fft_pass_per_record(self, he_record, tmp_path, monkeypatch):
        import vmbsim.cli
        import vmbsim.pipeline

        calls = []
        block_fft = vmbsim.pipeline.block_fft

        def counted(*args, **kwargs):
            calls.append(args)
            return block_fft(*args, **kwargs)

        # both names, so a pass through analyze_record would be counted too
        monkeypatch.setattr(vmbsim.cli, "block_fft", counted)
        monkeypatch.setattr(vmbsim.pipeline, "block_fft", counted)
        assert run("analyze", he_record, "--out-dir", tmp_path / "a") == 0
        assert len(calls) == 1

    def test_mixed_configs_refused(self, he_record, tmp_path):
        other_sim = tmp_path / "other"
        cfg = tmp_path / "f.cfg"
        cfg.write_text("finesse = 500000\n")
        assert run("simulate", "--config", cfg, "--source", "gas:He:32ubar",
                   "--seed", "8", "--revolutions", "512", "--noise-asd", "3e-7",
                   "--out-dir", other_sim) == 0
        mixed = [he_record, other_sim / "run-seed8.csv"]
        assert run("analyze", *mixed, "--out-dir", tmp_path / "m") == 2
        assert run("analyze", *mixed, "--allow-mismatch", "--out-dir", tmp_path / "m2") == 0

    def test_config_mismatch_refused(self, he_record, tmp_path):
        other = tmp_path / "other.cfg"
        other.write_text("finesse = 500000\n")
        assert run("analyze", he_record, "--config", other, "--out-dir", tmp_path / "x") == 2
        assert run(
            "analyze", he_record, "--config", other, "--allow-mismatch",
            "--out-dir", tmp_path / "y",
        ) == 0

    def test_recovers_helium(self, he_record, tmp_path):
        from vmbsim.configio import parse_key_values

        out = tmp_path / "ana2"
        assert run("analyze", he_record, "--out-dir", out) == 0
        kv = parse_key_values((out / "estimate.txt").read_text())
        phys = float(kv["deltanu_physical"])
        sigma = float(kv["deltanu_sigma"])
        injected = 2.1e-16 * 32e-3 / 1013.25
        assert abs(phys - injected) < 3.0 * sigma

    def test_full_fidelity_noiseless_file_path(self, tmp_path):
        # synchronous noiseless records have identically-zero off-harmonic bins;
        # the sigma floor must keep them analyzable end to end
        cfg = tmp_path / "small.cfg"
        cfg.write_text("pem_frequency = 960 Hz\nmagnet_rotation = 3 Hz\n")
        sim = tmp_path / "s"
        assert run("simulate", "--config", cfg, "--source", "fixed-ellipticity:1e-6",
                   "--revolutions", "32", "--fidelity", "full", "--out-dir", sim) == 0
        out = tmp_path / "a"
        assert run("analyze", sim / "run-seed0.csv", "--config", cfg, "--blocks", "1024",
                   "--noise-halfwidth", "60", "--out-dir", out) == 0
        from vmbsim.configio import parse_key_values
        from vmbsim.apparatus import ApparatusConfig
        from vmbsim.pipeline import deltan_conversion

        kv = parse_key_values((out / "estimate.txt").read_text())
        expected = deltan_conversion(1e-6, ApparatusConfig(pem_frequency_hz=960.0))
        # boxcar demod attenuates by sinc(pi/16) and offsets the phase by pi/16
        assert float(kv["deltanu_physical"]) == pytest.approx(expected, rel=0.03)

    def test_noiseless_helium_to_one_percent(self, tmp_path):
        from vmbsim.configio import parse_key_values

        sim = tmp_path / "s"
        assert run("simulate", "--source", "gas:He:32ubar", "--revolutions", "512",
                   "--out-dir", sim) == 0
        out = tmp_path / "a"
        assert run("analyze", sim / "run-seed0.csv", "--out-dir", out) == 0
        kv = parse_key_values((out / "estimate.txt").read_text())
        injected = 2.1e-16 * 32e-3 / 1013.25
        assert float(kv["deltanu_physical"]) == pytest.approx(injected, rel=0.01)


class TestCalibrateCommand:
    def test_calibration_file(self, tmp_path):
        paths = []
        for i, ubar in enumerate((32, 64, 128)):
            out = tmp_path / f"p{ubar}"
            assert run(
                "simulate", "--source", f"gas:He:{ubar}ubar", "--seed", str(100 + i),
                "--revolutions", "1024", "--noise-asd", "2e-7", "--out-dir", out,
            ) == 0
            paths.append(out / f"run-seed{100 + i}.csv")
        out = tmp_path / "cal"
        assert run("calibrate", *paths, "--gas", "He", "--out-dir", out) == 0
        from vmbsim.configio import parse_key_values

        kv = parse_key_values((out / "calibration.txt").read_text())
        slope = float(kv["slope_t2_per_atm"])
        slope_sigma = float(kv["slope_sigma"])
        assert abs(slope - 2.1e-16) < 3.0 * slope_sigma
        assert float(kv["phase_rad"]) == pytest.approx(1.5 * math.pi, abs=0.05)


class TestLimitsCommand:
    @pytest.fixture()
    def estimate(self, tmp_path):
        path = tmp_path / "estimate.txt"
        cfg = ApparatusConfig()
        lines = ["deltanu_physical = 4e-23", "deltanu_sigma = 2e-22"]
        lines += [f"{k} = {v}" for k, v in cfg.to_key_values().items()]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_xsec(self, estimate, tmp_path, capsys):
        out = tmp_path / "lx"
        assert run("limits", "xsec", "--estimate", estimate, "--out-dir", out) == 0
        text = (out / "xsec_limit.txt").read_text()
        value = [l for l in text.splitlines() if l.startswith("sigma_gamma_gamma_m2")][0]
        sigma = float(value.split("=")[1])
        assert sigma == pytest.approx(4.6e-66, rel=0.05)

    def test_report(self, estimate, tmp_path):
        out = tmp_path / "lr"
        assert run("limits", "report", "--estimate", estimate, "--out-dir", out) == 0
        body = (out / "comparison.csv").read_text()
        assert "BFRT, 2.20000000e+04, 2.40000000e+03" in body
        assert "this work, 4.00000000e+00, 2.00000000e+01" in body

    def test_alp_deterministic(self, estimate, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("limits", "alp", "--estimate", estimate, "--out-dir", out,
                       "--points-per-decade", "40") == 0
            outs.append((out / "alp_exclusion.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_mcp(self, estimate, tmp_path):
        out = tmp_path / "lm"
        assert run("limits", "mcp", "--estimate", estimate, "--statistics", "scalar",
                   "--out-dir", out, "--points-per-decade", "40") == 0
        assert (out / "mcp_scalar_exclusion.csv").exists()

    def test_corrupt_config_is_data_error(self, estimate, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(
            estimate.read_text().replace("config.finesse = 670000.0", "config.finesse = abc")
        )
        assert run("limits", "alp", "--estimate", corrupt, "--out-dir", tmp_path / "c") == 2
        assert "config" in capsys.readouterr().err

    def test_missing_estimate(self, tmp_path):
        assert run("limits", "xsec", "--estimate", tmp_path / "none.txt",
                   "--out-dir", tmp_path) == 2


class TestPipelineCommand:
    def test_one_shot(self, tmp_path):
        out = tmp_path / "pipe"
        assert run(
            "pipeline", "--source", "gas:He:32ubar", "--seed", "5",
            "--revolutions", "512", "--noise-asd", "3e-7", "--out-dir", out,
        ) == 0
        for name in ("record.csv", "estimate.txt", "xsec_limit.txt", "comparison.csv",
                     "alp_exclusion.csv", "mcp_fermion_exclusion.csv"):
            assert (out / name).exists(), name


class TestConfigFile:
    def test_parse_with_units(self):
        cfg = parse_config(
            "wavelength = 1064 nm\nfinesse = 670000\nfield_integral = 10.25 T2m\n"
            "magnet_rotation = 3 Hz\npem_frequency = 50.047 kHz\npolarizer_angle = 45 deg\n"
        )
        assert cfg.wavelength_m == pytest.approx(1064e-9)
        assert cfg.pem_frequency_hz == pytest.approx(50047.0)
        assert cfg.polarizer_angle_rad == pytest.approx(math.pi / 4.0)

    def test_unknown_key(self):
        with pytest.raises(Exception, match="unknown config field"):
            parse_config("coil_current = 3 A\n")

    def test_unknown_unit(self):
        with pytest.raises(Exception, match="unknown unit"):
            parse_config("wavelength = 1064 angstrom\n")

    def test_round_trip(self, tmp_path):
        cfg = ApparatusConfig(finesse=5e5, magnet_rotation_hz=2.5, samples_per_revolution=64)
        path = tmp_path / "c.cfg"
        path.write_text(config_text(cfg))
        back = load_config(path)
        assert back.content_hash() == cfg.content_hash()

    def test_comments_ignored(self):
        cfg = parse_config("# a comment\nfinesse = 500000  # inline\n")
        assert cfg.finesse == 500000.0

    def test_second_magnet_key(self):
        with pytest.warns(UserWarning, match="experimental"):
            cfg = parse_config("second_magnet_rotation = 2.4 Hz\n")
        assert cfg.second_magnet_rotation_hz == pytest.approx(2.4)


class TestManifest:
    def test_hash_stability(self):
        m1 = RunManifest(command="simulate", config=ApparatusConfig(), seed=1)
        m2 = RunManifest(command="simulate", config=ApparatusConfig(), seed=1)
        assert m1.hash() == m2.hash()
        m3 = RunManifest(command="simulate", config=ApparatusConfig(), seed=2)
        assert m1.hash() != m3.hash()
