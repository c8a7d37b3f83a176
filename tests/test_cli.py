"""Command-line contract: exit codes, file formats, determinism."""

import contextlib
import io
import math
import re
import tempfile
import traceback
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vmbsim import __version__
from vmbsim.cli import main
from vmbsim.configio import ConfigError, config_text, load_config, manifest, parse_config
from vmbsim.apparatus import ApparatusConfig, format_number, format_value


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

    @pytest.mark.parametrize("argv", [
        ("--noise-asd", "-1"),
        ("--detector-noise", "-1"),
        ("--revolutions", "0"),
        ("--pem-oversample", "4", "--fidelity", "full"),
        ("--noise-asd", "nan"),
        ("--detector-noise", "nan"),
        ("--noise-asd", "inf"),
        ("--detector-noise", "inf"),
        ("--tone", "nan:1e-6:0"),
        ("--tone", "1:1e-6:inf"),
        ("--seed", "-1"),
        ("--seed", "-1", "--noise-asd", "3e-7", "--revolutions", "1"),
    ], ids=["negative_asd", "negative_rin", "no_revolutions", "full_oversample_4", "nan_asd",
            "nan_rin", "inf_asd", "inf_rin", "nan_tone_frequency", "inf_tone_phase",
            "negative_seed", "negative_seed_with_noise"])
    def test_out_of_range_option_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "o"
        code, err = run_captured("simulate", *argv, "--out-dir", out)
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()


class TestAnalyze:
    def test_empty_input_usage_error(self, tmp_path):
        assert run("analyze", "--out-dir", tmp_path) == 1

    @pytest.mark.parametrize("command", [("analyze",), ("calibrate", "--gas", "He")],
                             ids=["analyze", "calibrate"])
    @pytest.mark.parametrize("argv", [("--blocks", "0"), ("--blocks", "-5"),
                                      ("--noise-halfwidth", "-3")],
                             ids=["no_blocks", "negative_blocks", "negative_halfwidth"])
    def test_out_of_range_analysis_option_is_usage_error_before_reading(self, he_record,
                                                                       tmp_path, command, argv):
        out = tmp_path / "o"
        # a record that does not exist would be a data error, were it read
        for records in ((he_record,), (he_record, tmp_path / "nope.csv")):
            code, err = run_captured(*command, *records, *argv, "--out-dir", out)
            assert code == 1
            assert err.startswith("usage error: ") and err.count("\n") == 1
            assert not out.exists()

    def test_missing_file_data_error(self, tmp_path):
        assert run("analyze", tmp_path / "nope.csv", "--out-dir", tmp_path) == 2

    def test_refusal_order(self, tmp_path):
        """A usage error comes before an unreadable --calibration file, which comes before a
        missing record, in analyze and calibrate alike."""
        missing, no_cal, cal = tmp_path / "nope.csv", tmp_path / "nope.txt", tmp_path / "cal.txt"
        cal.write_text("phase_rad = 1.0\n")
        cases = [
            (("analyze", missing, "--calibration", no_cal, "--blocks", "0"), 1,
             "usage error: --blocks must be >= 1"),
            (("analyze", "--calibration", no_cal), 1, "usage error: at least one record file"),
            (("analyze", missing, "--calibration", no_cal), 2,
             f"data error: cannot read calibration file {no_cal}"),
            (("analyze", missing, "--calibration", cal), 2,
             f"data error: record file {missing} does not exist"),
            (("calibrate", missing, "--gas", "He", "--blocks", "0"), 1,
             "usage error: --blocks must be >= 1"),
            (("calibrate", "--gas", "He"), 1, "usage error: at least one record file"),
            (("calibrate", missing, "--gas", "He"), 2,
             f"data error: record file {missing} does not exist"),
        ]
        for argv, code, reason in cases:
            got, err = run_captured(*argv, "--out-dir", tmp_path / "o")
            assert (got, err.startswith(reason)) == (code, True), (argv, err)

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

    def test_spectrum_rows_format_each_value(self, he_record, tmp_path):
        from vmbsim.apparatus import read_record
        from vmbsim.pipeline import averaged_spectrum, block_fft, demodulate, with_rayleigh_sigma

        out = tmp_path / "ana"
        assert run("analyze", he_record, "--out-dir", out) == 0
        record = read_record(he_record)
        freqs, avg = averaged_spectrum(with_rayleigh_sigma(block_fft(demodulate(record),
                                                                     record.config)))
        rows = [f"{format_number(float(f))}, {format_number(abs(c))}, "
                f"{format_number(float(np.angle(c)))}" for f, c in zip(freqs, avg)]
        assert (out / "run-seed7.spectrum.csv").read_text().splitlines()[2:] == rows

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
        # cells float() reads but np.loadtxt refuses
        (lambda f: ", ".join(f[:1] + ["1_0"] + f[2:]),
         "'1_0' in column I_OmegaPEM is not a number"),
        (lambda f: ", ".join(f[:1] + ["\u0661"] + f[2:]),
         "'\u0661' in column I_OmegaPEM is not a number"),
        (lambda f: ", ".join(f[:1] + ["\uff11"] + f[2:]),
         "'\uff11' in column I_OmegaPEM is not a number"),
        # np.loadtxt skips only empty lines: one of blanks is a row of one field
        (lambda f: " ", "1 fields, expected 5"),
    ], ids=["non_numeric_cell", "four_field_row", "underscore_cell", "arabic_indic_digit",
            "fullwidth_digit", "blank_line"])
    def test_malformed_row_names_data_row_and_file_line(self, he_record, tmp_path, capsys,
                                                        edit, reason):
        bad = self._corrupt(he_record, tmp_path, 100, edit)
        header_lines = sum(line.startswith("#") for line in bad.read_text().splitlines())
        assert run("analyze", bad, "--out-dir", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert f"data row 101 (file line {header_lines + 101}): {reason}" in err
        assert "usecols" not in err and "float64" not in err
        assert err.count("\n") == 1

    def test_a_record_of_four_field_rows_names_its_first_row(self, he_record, tmp_path, capsys):
        # every row one field short: the message names data row 1, as for one short row
        lines = he_record.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        bad = tmp_path / "four.csv"
        bad.write_text("".join(lines[:first] + [line.rpartition(", ")[0] + "\n"
                                                for line in lines[first:]]))
        assert run("analyze", bad, "--out-dir", tmp_path / "f") == 2
        err = capsys.readouterr().err
        assert f"data row 1 (file line {first + 1}): 4 fields, expected 5" in err
        assert err.count("\n") == 1

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

    def test_record_without_config_hash_is_data_error(self, he_record, tmp_path, capsys):
        line = f"# config_hash = {ApparatusConfig().content_hash()}"
        bad = self._edit_header(he_record, tmp_path, line, "#")
        assert run("analyze", bad, "--out-dir", tmp_path / "h") == 2
        assert f"record file {bad}: key 'config_hash' is missing" in capsys.readouterr().err

    def test_config_key_that_names_no_field_is_data_error(self, he_record, tmp_path, capsys):
        line = "# config.finesse = 6.70000000e+05"
        bad = self._edit_header(he_record, tmp_path, line,
                                f"{line}\n# config.second_magnet_rotation_hz = 2.4")
        assert run("analyze", bad, "--out-dir", tmp_path / "k") == 2
        assert "config.second_magnet_rotation_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("line, first", [
        ("# config.finesse = 6.70000000e+05", "# config.finesse = 5.0e5"),
        ("# seed = 7", "# seed = 99"),
    ], ids=["config_finesse", "seed"])
    def test_repeated_header_key_is_data_error(self, he_record, tmp_path, capsys, line, first):
        bad = self._edit_header(he_record, tmp_path, line, f"{first}\n{line}")
        assert run("analyze", bad, "--out-dir", tmp_path / "r") == 2
        key = line[2:].partition(" = ")[0]
        lineno = bad.read_text().splitlines().index(line) + 1
        assert f"line {lineno}: header key {key!r} repeats line {lineno - 1}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("line", ["# note = x", "# config.finesse = 5.0e5"],
                             ids=["note", "config_finesse"])
    def test_hash_line_indented_by_no_break_space_is_a_row(self, he_record, tmp_path, capsys,
                                                           line):
        # U+00A0 is not ASCII whitespace, so the line is the first data row, not a header line
        first = "# config.extinction = 1.00000000e-07"
        bad = self._edit_header(he_record, tmp_path, first, f"\u00a0{line}\n{first}")
        assert run("analyze", bad, "--out-dir", tmp_path / "u") == 2
        lineno = bad.read_text().splitlines().index(f"\u00a0{line}") + 1
        assert f"data row 1 (file line {lineno}): 1 fields, expected 5" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", None), ("source", None), ("fidelity", None), ("sample_rate_hz", None),
        ("n_samples", None), ("seed", "0x"), ("n_samples", "12x"), ("n_samples", "-5"),
        ("sample_rate_hz", "fast"),
    ], ids=["seed", "source", "fidelity", "sample_rate_hz", "n_samples", "seed_0x",
            "n_samples_12x", "n_samples_negative", "sample_rate_hz_fast"])
    def test_header_without_seed_or_source_is_data_error(self, he_record, tmp_path, capsys,
                                                         key, value):
        line = next(line for line in he_record.read_text().splitlines()
                    if line.startswith(f"# {key} = "))
        # without a value the line loses its '=', so the header lacks the key
        replacement = line.replace(" = ", " ", 1) if value is None else f"# {key} = {value}"
        bad = self._edit_header(he_record, tmp_path, line, replacement)
        assert run("analyze", bad, "--out-dir", tmp_path / "s") == 2
        err = capsys.readouterr().err
        reason = "is missing" if value is None else "must be "
        assert f"record file {bad}: key {key!r} {reason}" in err and "Traceback" not in err
        assert value is None or f"got {value!r}" in err

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

    def test_record_without_noise_or_signal_is_data_error(self, tmp_path, capsys):
        # the null source without noise: every sample, and so every block's sigma, is zero
        assert run("simulate", "--revolutions", "512", "--out-dir", tmp_path / "sim") == 0
        capsys.readouterr()
        assert run("analyze", tmp_path / "sim" / "run-seed0.csv", "--out-dir", tmp_path / "a") == 2
        err = capsys.readouterr().err
        assert "2 of 2 blocks have a rayleigh_sigma that is not positive and finite" in err
        assert "with_rayleigh_sigma" not in err

    def test_header_without_rows_is_data_error(self, he_record, tmp_path, capsys):
        lines = he_record.read_text().splitlines(keepends=True)
        empty = tmp_path / "empty.csv"
        empty.write_text("".join(line for line in lines if line.startswith("#")))
        assert run("analyze", empty, "--out-dir", tmp_path / "e") == 2
        assert "no samples" in capsys.readouterr().err

    def test_one_fft_pass_per_record(self, he_record, tmp_path, monkeypatch):
        import vmbsim.pipeline

        calls = []
        block_spectra = vmbsim.pipeline._block_spectra

        def counted(*args, **kwargs):
            calls.append(args)
            return block_spectra(*args, **kwargs)

        # the chunk pass that block_fft and analyze_record both run
        monkeypatch.setattr(vmbsim.pipeline, "_block_spectra", counted)
        assert run("analyze", he_record, "--out-dir", tmp_path / "a") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("fidelity", ["fast", "full"])
    def test_one_analysis_path(self, tmp_path, monkeypatch, fidelity):
        import vmbsim.cli
        import vmbsim.pipeline as pipeline

        cfg = tmp_path / "small.cfg"
        cfg.write_text("pem_frequency = 960 Hz\n")
        sim = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--source", "gas:He:32ubar", "--revolutions",
                   "4096" if fidelity == "fast" else "64", "--fidelity", fidelity,
                   "--noise-asd", "3e-7", "--detector-noise", "1e-4", "--out-dir", sim) == 0
        analyze = ["analyze", sim / "run-seed0.csv"]
        if fidelity == "full":
            analyze += ["--blocks", "1024", "--noise-halfwidth", "60"]

        def staged(record, block_size, noise_halfwidth, spectrum):
            assert spectrum  # vmbsim analyze writes the averaged spectrum
            spectra = pipeline.with_rayleigh_sigma(
                pipeline.block_fft(pipeline.demodulate(record), record.config, block_size),
                noise_halfwidth,
            )
            return (pipeline.estimate_from_spectra(spectra, record),
                    pipeline.averaged_spectrum(spectra))

        with monkeypatch.context() as patch:
            patch.setattr(vmbsim.cli, "_analyze", staged)
            assert run(*analyze, "--out-dir", tmp_path / "staged") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("vmbsim analyze ran the staged chain")

        for name in ("demodulate", "block_fft", "with_rayleigh_sigma", "estimate_from_spectra",
                     "averaged_spectrum"):
            monkeypatch.setattr(pipeline, name, refuse)
        assert run(*analyze, "--out-dir", tmp_path / "one") == 0
        for name in ("estimate.txt", "runs.csv", "run-seed0.spectrum.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "staged" / name).read_bytes(), name

    def test_memory_is_the_record_and_one_spectrum(self, tmp_path, monkeypatch):
        import tracemalloc

        import vmbsim.cli

        held, at_read = [], []
        read_record = vmbsim.cli.read_record

        def read_then_reset_peak(path):
            held.append(read_record(path))
            tracemalloc.reset_peak()  # from here on: the record and what the analysis adds
            at_read.append(tracemalloc.get_traced_memory()[0])
            return held[-1]

        monkeypatch.setattr(vmbsim.cli, "read_record", read_then_reset_peak)
        added = []
        # 2048 and 16384 revolutions: demodulated series of 0.5 and 4.2 MB, against the fixed
        # working sets of the chunk pass and of the spectrum writer, ~1 MB together
        for revolutions in (2048, 16384):
            sim = tmp_path / f"sim{revolutions}"
            assert run("simulate", "--source", "gas:He:32ubar", "--revolutions", revolutions,
                       "--noise-asd", "3e-7", "--out-dir", sim) == 0
            path = sim / "run-seed0.csv"
            assert run("analyze", path, "--out-dir", tmp_path / "warm") == 0
            tracemalloc.start()
            try:
                assert run("analyze", path, "--out-dir", tmp_path / f"a{revolutions}") == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            samples = held[-1].i_omega_pem.nbytes  # I0 and I_2OmegaPEM are constant views
            assert peak <= samples + 2_000_000
            added.append(peak - at_read[-1])
        # what the analysis adds to the record does not grow with its length
        assert max(added) <= 1.3 * min(added), added

    def test_memory_does_not_grow_with_the_number_of_records(self, tmp_path):
        import shutil
        import tracemalloc

        # the longer record of the test above: 4.2 MB of samples
        assert run("simulate", "--source", "gas:He:32ubar", "--revolutions", "16384",
                   "--noise-asd", "3e-7", "--out-dir", tmp_path / "sim") == 0
        paths = [tmp_path / "sim" / "run-seed0.csv"]
        for name in ("second", "third"):
            paths.append(shutil.copy(paths[0], tmp_path / "sim" / f"{name}.csv"))
        assert run("analyze", paths[0], "--out-dir", tmp_path / "warm") == 0

        def peak(records, out):
            tracemalloc.start()
            try:
                assert run("analyze", *records, "--out-dir", out) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(paths[:1], tmp_path / "one"), peak(paths, tmp_path / "three")
        # each record is analysed and released before the next is read
        assert three <= 1.3 * one, (one, three)
        # the spectrum of the first record, under the manifest hash of its command
        spectra = [(tmp_path / out / "run-seed0.spectrum.csv").read_bytes().split(b"\n", 1)
                   for out in ("one", "three")]
        assert spectra[0][1] == spectra[1][1] and spectra[0][0] != spectra[1][0]

    def test_analyze_does_not_import_numpy_ma(self, he_record, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import vmbsim

        src = str(Path(vmbsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        # np.median imports numpy.ma on its first call, 12-21 ms of a short process
        script = ("import runpy, sys\n"
                  "try:\n"
                  "    runpy.run_module('vmbsim', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code\n"
                  "print('numpy.ma' in sys.modules)\n")
        done = subprocess.run(
            [sys.executable, "-c", script, "analyze", str(he_record), "--out-dir",
             str(tmp_path / "a")], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "a" / "estimate.txt").exists()

    @pytest.mark.parametrize("text, reason", [
        (None, "cannot read calibration file"),
        ("phase_rad = abc\n", "unusable phase_rad"),
        ("phase_rad = nan\n", "non-finite phase_rad = nan"),
        ("phase_rad 1.0\n", "is malformed: line 2: expected 'key = value'"),
        ("phase_rad = 1.0\nphase_rad = 2.0\n", "line 3: key 'phase_rad' repeats line 2"),
    ], ids=["missing_file", "non_numeric_phase", "nan_phase", "line_without_equals",
            "repeated_phase"])
    def test_unusable_calibration_file_is_data_error(self, he_record, tmp_path, capsys, text,
                                                     reason):
        cal = tmp_path / "calibration.txt"
        if text is not None:
            cal.write_text("gas = He\n" + text)
        out = tmp_path / "a"
        assert run("analyze", he_record, "--calibration", cal, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert reason in err and "Traceback" not in err
        assert not any("nan" in written.read_text() for written in out.glob("*"))

    def test_warnings_are_one_line_each(self, tmp_path, capsys):
        # 300 revolutions: one block of 8192 samples and 1408 dropped
        assert run("simulate", "--revolutions", "300", "--noise-asd", "3e-7",
                   "--out-dir", tmp_path) == 0
        capsys.readouterr()
        assert run("analyze", tmp_path / "run-seed0.csv", "--out-dir", tmp_path / "a") == 0
        err = capsys.readouterr().err
        assert err == ("warning: 1408 trailing samples do not fill a block of 8192 and are "
                       "dropped\n")
        assert ".py:" not in err

    def test_calibration_file_sets_the_axis(self, he_record, tmp_path):
        from vmbsim.apparatus import format_number, read_record
        from vmbsim.configio import parse_key_values
        from vmbsim.pipeline import (
            CalibrationPhase,
            analytic_calibration,
            analyze_record,
            combine_runs,
            project_physical,
        )

        other = tmp_path / "p64"
        assert run("simulate", "--source", "gas:He:64ubar", "--seed", "8",
                   "--revolutions", "512", "--noise-asd", "3e-7", "--out-dir", other) == 0
        records = [he_record, other / "run-seed8.csv"]
        assert run("calibrate", *records, "--gas", "He", "--out-dir", tmp_path / "cal") == 0
        cal_file = tmp_path / "cal" / "calibration.txt"
        out = tmp_path / "a"
        assert run("analyze", *records, "--calibration", cal_file, "--out-dir", out) == 0

        phase_rad = float(parse_key_values(cal_file.read_text())["phase_rad"])
        cal = CalibrationPhase(phase_rad=phase_rad)
        estimates = [analyze_record(read_record(path)) for path in records]
        rows = [line.split(", ") for line in (out / "runs.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert [row[0] for row in rows] == ["run-seed7", "run-seed8"]
        for row, est in zip(rows, estimates):
            physical, nonphysical = project_physical(est.deltan_over_b2, cal)
            assert row[2:4] == [format_number(physical), format_number(nonphysical)]
            # the file's axis, not the analytic one
            analytic, _ = project_physical(est.deltan_over_b2, analytic_calibration(est.config))
            assert row[2] != format_number(analytic)
        kv = parse_key_values((out / "estimate.txt").read_text())
        mean, _, _ = combine_runs(estimates)
        assert kv["deltanu_physical"] == format_number(project_physical(mean, cal)[0])
        assert kv["calibration_phase_rad"] == format_number(cal.phase_rad)

    def test_runs_of_different_polarizer_angles_combine_on_their_own_axes(self, tmp_path):
        from vmbsim.configio import parse_key_values

        cfg = tmp_path / "theta.cfg"
        cfg.write_text("polarizer_angle = 0.785398163 rad\n")
        records = []
        for seed, config in ((1, ()), (2, ("--config", cfg))):
            assert run("simulate", *config, "--source", "gas:He:32ubar", "--seed", seed,
                       "--revolutions", "2048", "--noise-asd", "3e-7",
                       "--out-dir", tmp_path) == 0
            records.append(tmp_path / f"run-seed{seed}.csv")
        out = tmp_path / "a"
        assert run("analyze", *records, "--allow-mismatch", "--out-dir", out) == 0
        rows = [[float(x) for x in line.split(", ")[1:5]]
                for line in (out / "runs.csv").read_text().splitlines()
                if not line.startswith("#")]
        weights = [1.0 / row[3] ** 2 for row in rows]
        kv = parse_key_values((out / "estimate.txt").read_text())
        for column, key in ((1, "deltanu_physical"), (2, "deltanu_nonphysical")):
            mean = sum(w * row[column] for w, row in zip(weights, rows)) / sum(weights)
            # both files round each value to 9 significant digits, by up to 5e-9
            assert float(kv[key]) == pytest.approx(mean, rel=1e-8, abs=0.0), key

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
        assert float(kv["deltanu_physical"]) == pytest.approx(expected, rel=0.03, abs=0.0)

    def test_noiseless_helium_to_one_percent(self, tmp_path):
        from vmbsim.configio import parse_key_values

        sim = tmp_path / "s"
        assert run("simulate", "--source", "gas:He:32ubar", "--revolutions", "512",
                   "--out-dir", sim) == 0
        out = tmp_path / "a"
        assert run("analyze", sim / "run-seed0.csv", "--out-dir", out) == 0
        kv = parse_key_values((out / "estimate.txt").read_text())
        injected = 2.1e-16 * 32e-3 / 1013.25
        assert float(kv["deltanu_physical"]) == pytest.approx(injected, rel=0.01, abs=0.0)


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

    def test_config_mismatch_refused(self, tmp_path):
        paths = []
        for ubar in (32, 64, 128):
            out = tmp_path / f"p{ubar}"
            assert run("simulate", "--source", f"gas:He:{ubar}ubar", "--seed", str(ubar),
                       "--revolutions", "256", "--noise-asd", "2e-7", "--out-dir", out) == 0
            paths.append(out / f"run-seed{ubar}.csv")
        other = tmp_path / "other.cfg"
        other.write_text("finesse = 500000\n")
        assert run("calibrate", *paths, "--gas", "He", "--config", other,
                   "--out-dir", tmp_path / "cal") == 2
        assert not (tmp_path / "cal" / "calibration.txt").exists()


class TestLimitsCommand:
    @pytest.fixture()
    def estimate(self, tmp_path):
        path = tmp_path / "estimate.txt"
        cfg = ApparatusConfig()
        lines = ["deltanu_physical = 4e-23", "deltanu_sigma = 2e-22",
                 f"config_hash = {cfg.content_hash()}"]
        lines += [f"{k} = {v}" for k, v in cfg.to_key_values().items()]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_xsec(self, estimate, tmp_path, capsys):
        out = tmp_path / "lx"
        assert run("limits", "xsec", "--estimate", estimate, "--out-dir", out) == 0
        text = (out / "xsec_limit.txt").read_text()
        value = [l for l in text.splitlines() if l.startswith("sigma_gamma_gamma_m2")][0]
        sigma = float(value.split("=")[1])
        assert sigma == pytest.approx(4.6e-66, rel=0.05, abs=0.0)

    def test_report(self, estimate, tmp_path):
        out = tmp_path / "lr"
        assert run("limits", "report", "--estimate", estimate, "--out-dir", out) == 0
        body = (out / "comparison.csv").read_text()
        assert "BFRT, 2.20000000e+04, 2.40000000e+03" in body
        assert "this work, 4.00000000e+00, 2.00000000e+01" in body
        assert "\nQED, 3.97400598e-01, 0.00000000e+00\n" in body
        assert body.endswith("\nthis work sigma / QED, 5.03270505e+01, 0.00000000e+00\n")

    def test_alp_deterministic(self, estimate, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("limits", "alp", "--estimate", estimate, "--out-dir", out,
                       "--points-per-decade", "40") == 0
            outs.append((out / "alp_exclusion.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("what, option, values", [
        ("xsec", "--statistics", ("fermion", "scalar")),
        ("xsec", "--points-per-decade", ("40", "400")),
        ("report", "--statistics", ("fermion", "scalar")),
        ("report", "--points-per-decade", ("40", "400")),
        ("alp", "--statistics", ("fermion", "scalar")),
    ])
    def test_option_the_command_does_not_use_leaves_its_bytes(self, estimate, tmp_path, what,
                                                               option, values):
        outs = []
        for value in values:
            out = tmp_path / value
            assert run("limits", what, "--estimate", estimate, option, value,
                       "--out-dir", out) == 0
            outs.append([(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
        assert len(outs[0]) == 1 and outs[0] == outs[1]

    def test_mcp(self, estimate, tmp_path):
        out = tmp_path / "lm"
        assert run("limits", "mcp", "--estimate", estimate, "--statistics", "scalar",
                   "--out-dir", out, "--points-per-decade", "40") == 0
        assert (out / "mcp_scalar_exclusion.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("alp", "--cl", "1.5"),
        ("mcp", "--cl", "1.5"),
        ("xsec", "--rule", "gaussian-one-sided", "--cl", "1.5"),
        ("alp", "--points-per-decade", "-5"),
        ("alp", "--points-per-decade", "0"),
        ("mcp", "--points-per-decade", "0"),
    ], ids=["alp_cl", "mcp_cl", "xsec_gaussian_cl", "alp_negative_grid", "alp_empty_grid",
            "mcp_empty_grid"])
    def test_out_of_range_option_is_usage_error(self, estimate, tmp_path, argv):
        out = tmp_path / "l"
        code, err = run_captured("limits", *argv, "--estimate", estimate, "--out-dir", out)
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_cl_that_the_rule_ignores_is_not_checked(self, estimate, tmp_path):
        out = tmp_path / "l"
        assert run("limits", "xsec", "--cl", "1.5", "--estimate", estimate, "--out-dir", out) == 0
        assert (out / "xsec_limit.txt").exists()

    def test_corrupt_config_is_data_error(self, estimate, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text(
            estimate.read_text().replace("config.finesse = 670000.0", "config.finesse = abc")
        )
        assert run("limits", "alp", "--estimate", corrupt, "--out-dir", tmp_path / "c") == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["xsec", "report", "alp", "mcp"])
    def test_non_finite_central_is_data_error(self, estimate, tmp_path, capsys, what):
        nan = tmp_path / "nan.txt"
        nan.write_text(estimate.read_text().replace("deltanu_physical = 4e-23",
                                                    "deltanu_physical = nan"))
        out = tmp_path / "l"
        assert run("limits", what, "--estimate", nan, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert "central must be finite, got nan" in err and "Traceback" not in err
        assert not any(out.glob("*"))

    def test_line_without_equals_is_data_error(self, estimate, tmp_path, capsys):
        garbage = tmp_path / "garbage.txt"
        garbage.write_text(estimate.read_text() + "garbage line\n")
        assert run("limits", "xsec", "--estimate", garbage, "--out-dir", tmp_path / "l") == 2
        err = capsys.readouterr().err
        assert "is malformed: line" in err and "expected 'key = value'" in err
        assert "Traceback" not in err

    def test_estimate_without_config_hash_is_data_error(self, analyzed_estimate, tmp_path,
                                                         capsys):
        # cut after deltanu_sigma: the default config would stand in for the run's
        lines = analyzed_estimate.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        cut.write_text("".join(lines[:7]))
        assert "deltanu_sigma" in cut.read_text() and "config" not in cut.read_text()
        assert run("limits", "xsec", "--estimate", cut, "--out-dir", tmp_path / "lc") == 2
        assert f"estimate file {cut} has an unusable config: key 'config_hash' is missing" in \
            capsys.readouterr().err
        assert not (tmp_path / "lc").exists() or not any((tmp_path / "lc").iterdir())

    def test_missing_estimate(self, tmp_path):
        assert run("limits", "xsec", "--estimate", tmp_path / "none.txt",
                   "--out-dir", tmp_path) == 2

    @pytest.fixture()
    def analyzed_estimate(self, tmp_path):
        """The estimate.txt, with its config_hash, of a run of a non-default config."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("finesse = 500000\npolarizer_angle = 10 deg\n")
        assert run("simulate", "--source", "fixed-deltanu:1e-21", "--revolutions", "256",
                   "--noise-asd", "1e-7", "--config", cfg, "--out-dir", tmp_path / "sim") == 0
        assert run("analyze", tmp_path / "sim" / "run-seed0.csv", "--config", cfg,
                   "--out-dir", tmp_path / "ana") == 0
        return tmp_path / "ana" / "estimate.txt"

    def test_edited_config_is_data_error(self, analyzed_estimate, tmp_path, capsys):
        # the file as written hashes to its config_hash
        assert run("limits", "xsec", "--estimate", analyzed_estimate,
                   "--out-dir", tmp_path / "lx") == 0
        text = analyzed_estimate.read_text()
        line = "config.finesse = 5.00000000e+05"
        assert f"\n{line}\n" in text
        edited = tmp_path / "edited.txt"
        edited.write_text(text.replace(line, "config.finesse = 6.70000000e+05"))
        assert run("limits", "xsec", "--estimate", edited, "--out-dir", tmp_path / "le") == 2
        err = capsys.readouterr().err
        written = load_config(tmp_path / "c.cfg")
        assert f"config_hash = {written.content_hash()}" in err
        assert replace(written, finesse=6.7e5).content_hash() in err

    def test_config_key_that_names_no_field_is_data_error(self, analyzed_estimate, tmp_path,
                                                           capsys):
        extra = tmp_path / "extra.txt"
        extra.write_text(analyzed_estimate.read_text() + "config.no_such_field = 1.0\n")
        assert run("limits", "xsec", "--estimate", extra, "--out-dir", tmp_path / "lx") == 2
        assert "config.no_such_field" in capsys.readouterr().err


MUTATIONS = ("missing", "empty", "cut", "no_equals", "text", "nan", "inf", "unknown_key",
             "duplicate", "bad_value")
# values a config field refuses, by its type: a float that is not finite, and for an int a
# literal that is not an integer
BAD_VALUES = {float: ("nan", "inf", "-inf"), int: ("32.5", "3.2e1", "32.0", "True")}
# the type of each config field, by its config-file key and by its header key
FIELD_TYPES = {key: type(f.default) for f in fields(ApparatusConfig)
               for key in (f.metadata["key"], f"config.{f.name}")}


def mutated(text: str, kind: str, at: int, other: int) -> bytes | None:
    """``text`` with one mutation of ``kind`` (None: no file); ``at`` and ``other`` pick where.

    ``text``, ``nan``, ``inf`` and ``bad_value`` replace a value but keep its unit;
    ``bad_value`` puts one of the ``BAD_VALUES`` of its type on a config field's line, or on
    any line of a file without config fields.  ``non_utf8`` puts byte 0xff or 0x85, which
    are not UTF-8 text, into any line.
    """
    if kind == "missing":
        return None
    data = text.encode()
    if kind == "empty":
        return b""
    if kind == "cut":
        return data[:at % (len(data) + 1)]
    if kind == "non_utf8":
        rows = data.split(b"\n")
        i = at % len(rows)
        j = (other >> 1) % (len(rows[i]) + 1)
        rows[i] = rows[i][:j] + (b"\xff", b"\x85")[other & 1] + rows[i][j:]
        return b"\n".join(rows)
    if kind == "unknown_key":
        return data + (b"no_such_key = 1.0\n", b"config.no_such_field = 1.0\n")[other % 2]
    lines = text.splitlines()
    entries = [i for i, line in enumerate(lines) if " = " in line and not line.startswith("#")]
    if kind == "bad_value":
        entries = [i for i in entries if lines[i].partition(" = ")[0] in FIELD_TYPES] or entries
    i = entries[at % len(entries)]
    key, _, value = lines[i].partition(" = ")
    if kind == "no_equals":
        lines[i] = f"{key} {value}"
    elif kind == "duplicate":  # the key again, with the value of a line picked by other
        lines.append(f"{key} = {lines[entries[other % len(entries)]].partition(' = ')[2]}")
    else:
        bad = BAD_VALUES[FIELD_TYPES.get(key, float)]
        new = {"text": "abc", "bad_value": bad[other % len(bad)]}.get(kind, kind)
        lines[i] = " ".join([f"{key} =", new, *value.split()[1:]])
    return ("\n".join(lines) + "\n").encode()


def run_captured(*argv) -> tuple[int, str]:
    """``(exit code, stderr)`` of the command, with an escaping exception's traceback as Python
    prints it (and exits 1)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run(*argv)
        except Exception:
            err.write(traceback.format_exc())
            code = 1
    return code, err.getvalue()


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    """A 512-revolution helium record, and the calibration and estimate files made from it."""
    root = tmp_path_factory.mktemp("data_files")
    for seed, pressure in ((7, "32ubar"), (8, "64ubar")):
        assert run("simulate", "--source", f"gas:He:{pressure}", "--seed", seed,
                   "--revolutions", "512", "--noise-asd", "3e-7", "--out-dir", root) == 0
    records = [root / "run-seed7.csv", root / "run-seed8.csv"]
    assert run("calibrate", *records, "--gas", "He", "--out-dir", root / "cal") == 0
    assert run("analyze", records[0], "--out-dir", root / "ana") == 0
    return {"record": records[0], "calibration": root / "cal" / "calibration.txt",
            "estimate": root / "ana" / "estimate.txt"}


class TestDataFilesFailLoudly:
    """A mutated --calibration or --estimate file succeeds or is a data error (exit 2), with
    no traceback and no nan in any output."""

    @pytest.mark.parametrize("target", ["calibration", "estimate"])
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(MUTATIONS), at=st.integers(0, 1 << 16),
           other=st.integers(0, 1 << 16), what=st.sampled_from(["xsec", "report", "alp", "mcp"]))
    @example(kind="no_equals", at=0, other=0, what="xsec")
    def test_mutated_file(self, data_files, target, kind, at, other, what):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / f"{target}.txt", Path(tmp) / "out"
            content = mutated(data_files[target].read_text(), kind, at, other)
            if content is not None:
                path.write_bytes(content)
            if target == "calibration":
                argv = ("analyze", data_files["record"], "--calibration", path)
            else:
                argv = ("limits", what, "--estimate", path, "--points-per-decade", "4")
            code, err = run_captured(*argv, "--out-dir", out)
            always = kind == "duplicate" or (kind, target) == ("bad_value", "estimate")
            assert code in ((2,) if always else (0, 2)), err
            assert "Traceback" not in err
            assert not undocumented_nans(out)


def mutated_record(text: str, kind: str, at: int, other: int) -> bytes | None:
    """Record ``text`` with one mutation of ``kind``, as :func:`mutated` makes them.

    ``text``, ``nan`` and ``inf`` replace a data cell; ``unknown_key`` and
    ``duplicate`` add a ``# key = value`` line to the header, and ``bad_value`` edits one.
    """
    if kind in ("missing", "empty", "cut", "non_utf8"):
        return mutated(text, kind, at, other)
    lines = text.splitlines()
    n = sum(line.startswith("#") for line in lines)  # the header lines lead
    if kind == "unknown_key":
        lines.insert(1 + at % n, "# config.no_such_field = 1.0")
    elif kind in ("duplicate", "bad_value"):
        header = mutated("\n".join(line[2:] for line in lines[:n]), kind, at, other)
        lines[:n] = ["# " + line for line in header.decode().splitlines()]
    else:
        i = n + at % (len(lines) - n)
        cells = lines[i].split(", ")
        cells[other % len(cells)] = "abc" if kind == "text" else kind
        lines[i] = ", ".join(cells)
    return ("\n".join(lines) + "\n").encode()


ANALYZE_MUTATIONS = ("missing", "empty", "cut", "text", "nan", "inf", "unknown_key", "duplicate",
                     "bad_value", "non_utf8")
# the exit codes the README gives each mutation of an analyze input: a record is data (2);
# --config is a usage or config error (1) but for a config that mismatches the record's (2)
ANALYZE_EXITS = {
    "record": {"cut": (0, 2)},
    "config": {"missing": (1,), "empty": (0,), "cut": (0, 1, 2)},
}


class TestAnalyzeInputsFailLoudly:
    """A mutated record or --config file of analyze exits as the README documents, with no
    traceback and no nan in any output."""

    @pytest.mark.parametrize("target", ["record", "config"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(ANALYZE_MUTATIONS), at=st.integers(0, 1 << 24),
           other=st.integers(0, 1 << 16))
    @example(kind="duplicate", at=5, other=0)
    # config: polarizer_angle = nan rad, samples_per_revolution = 32.5 and 32.0;
    # record: config.polarizer_angle_rad = nan, config.samples_per_revolution = 32.5 and 32.0
    @example(kind="bad_value", at=11, other=0)
    @example(kind="bad_value", at=9, other=0)
    @example(kind="bad_value", at=10, other=0)
    @example(kind="bad_value", at=10, other=2)
    def test_mutated_file(self, data_files, target, kind, at, other):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / f"{target}.txt", Path(tmp) / "out"
            if target == "record":
                content = mutated_record(data_files["record"].read_text(), kind, at, other)
                argv = ("analyze", path)
            else:
                content = mutated(config_text(ApparatusConfig()), kind, at, other)
                argv = ("analyze", data_files["record"], "--config", path)
            if content is not None:
                path.write_bytes(content)
            code, err = run_captured(*argv, "--out-dir", out)
            default = (2,) if target == "record" else (1,)
            assert code in ANALYZE_EXITS[target].get(kind, default), (code, err)
            assert "Traceback" not in err
            assert not undocumented_nans(out)


class TestNonUtf8Record:
    """A byte that is not UTF-8 text is named by the data row and file line, or header line,
    that holds it."""

    @staticmethod
    def analyze_with_byte(data_files, tmp_path, byte: bytes, line: int, column: int = 5):
        """``(exit code, stderr, header lines)`` of analyze on the record with ``byte`` put
        into 0-based ``line`` (counted from the first data row if negative: -1 is row 1)."""
        lines = data_files["record"].read_bytes().split(b"\n")
        header = sum(text.startswith(b"#") for text in lines)
        i = line if line >= 0 else header - line - 1
        lines[i] = lines[i][:column] + byte + lines[i][column + 1:]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(lines))
        code, err = run_captured("analyze", path, "--out-dir", tmp_path / "out")
        assert "Traceback" not in err
        return code, err, header

    @pytest.mark.parametrize("byte", [b"\xff", b"\x85"], ids=["0xff", "0x85"])
    def test_in_a_data_row(self, data_files, tmp_path, byte):
        code, err, header = self.analyze_with_byte(data_files, tmp_path, byte, -100)
        assert code == 2
        assert (f"data row 100 (file line {header + 100}): byte 0x{byte[0]:02x} is not UTF-8 "
                "text") in err

    @pytest.mark.parametrize("byte", [b"\xff", b"\x85"], ids=["0xff", "0x85"])
    def test_in_a_header_line(self, data_files, tmp_path, byte):
        code, err, _ = self.analyze_with_byte(data_files, tmp_path, byte, 3)
        assert code == 2
        assert f"line 4: byte 0x{byte[0]:02x} is not UTF-8 text" in err

    def test_in_a_comment_between_the_rows(self, data_files, tmp_path):
        code, err, header = self.analyze_with_byte(data_files, tmp_path, b"#\xff", -100,
                                                   column=0)
        assert code == 2
        assert f"file line {header + 100}: byte 0xff is not UTF-8 text" in err
        assert "data row" not in err


def undocumented_nans(out: Path) -> list[str]:
    """The lines of the files in ``out`` that hold a nan, but an MCP curve's gap rows.

    The README documents those: a gap mass keeps its row, with a ``nan`` bound.
    """
    return [line for written in out.glob("*") for line in written.read_text().splitlines()
            if "nan" in line and not line.endswith(", nan, gap, gap")]


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

    @pytest.mark.parametrize("argv", [("--cl", "1.5"), ("--points-per-decade", "-5"),
                                      ("--points-per-decade", "0")],
                             ids=["cl", "negative_grid", "empty_grid"])
    def test_out_of_range_limits_option_is_usage_error_before_simulating(self, tmp_path, argv):
        out = tmp_path / "pipe"
        code, err = run_captured("pipeline", "--noise-asd", "1e-7", *argv, "--out-dir", out)
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("--blocks", "0"), ("--noise-halfwidth", "-3"),
                                      ("--seed", "-1")],
                             ids=["no_blocks", "negative_halfwidth", "negative_seed"])
    def test_out_of_range_analysis_option_or_seed_is_usage_error_before_simulating(self, tmp_path,
                                                                                 argv):
        out = tmp_path / "pipe"
        code, err = run_captured("pipeline", "--noise-asd", "1e-7", *argv, "--out-dir", out)
        assert code == 1
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_full_fidelity_uses_the_default_oversampling(self, tmp_path):
        from vmbsim.synth import DEFAULT_PEM_OVERSAMPLE

        cfg = tmp_path / "small.cfg"
        cfg.write_text("pem_frequency = 960 Hz\nmagnet_rotation = 3 Hz\n")
        out = tmp_path / "pipe"
        assert run("pipeline", "--config", cfg, "--source", "fixed-ellipticity:1e-6",
                   "--revolutions", "32", "--fidelity", "full", "--blocks", "1024",
                   "--noise-halfwidth", "60", "--out-dir", out) == 0
        header = (out / "record.csv").read_text().split("\n", 60)
        assert f"# pem_oversample = {DEFAULT_PEM_OVERSAMPLE}" in header


class TestScripts:
    def test_helium_calibration_analyses_each_record_once(self, tmp_path, monkeypatch):
        import runpy
        import sys
        from pathlib import Path

        import vmbsim.pipeline

        calls = []
        block_spectra = vmbsim.pipeline._block_spectra

        def counted(*args, **kwargs):
            calls.append(args)
            return block_spectra(*args, **kwargs)

        # the chunk pass that block_fft and analyze_record both run
        monkeypatch.setattr(vmbsim.pipeline, "_block_spectra", counted)
        script = Path(__file__).parents[1] / "scripts" / "run_helium_calibration.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--blocks-per-run", "4",
                                          "--out-dir", str(tmp_path)])
        runpy.run_path(str(script), run_name="__main__")
        # three scan runs and the check run
        assert len(calls) == 4
        assert (tmp_path / "pressure_scan.csv").exists()
        assert (tmp_path / "calibration.txt").exists()

    def test_helium_calibration_file_is_the_calibrate_layout(self, data_files, tmp_path,
                                                             monkeypatch):
        import runpy
        import sys
        from pathlib import Path

        from vmbsim.configio import parse_key_values

        script = Path(__file__).parents[1] / "scripts" / "run_helium_calibration.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--blocks-per-run", "4",
                                          "--out-dir", str(tmp_path / "he")])
        runpy.run_path(str(script), run_name="__main__")
        cal_file = tmp_path / "he" / "calibration.txt"
        kv = parse_key_values(cal_file.read_text())
        assert list(kv) == list(parse_key_values(data_files["calibration"].read_text()))
        out = tmp_path / "a"
        assert run("analyze", data_files["record"], "--calibration", cal_file,
                   "--out-dir", out) == 0
        estimate = parse_key_values((out / "estimate.txt").read_text())
        assert estimate["calibration_phase_rad"] == kv["phase_rad"]


def field_values(f):
    """Values that config field ``f`` takes by itself: finite floats, or powers of two."""
    test = f.metadata["rule"][1]
    if isinstance(f.default, int):
        return st.integers(0, 62).map(lambda k: 1 << k).filter(test)
    return st.floats(allow_nan=False, allow_infinity=False).filter(test)


def nine(value: float) -> float:
    """The value that a file holds of ``value``: its 9 significant digits."""
    return float(format_number(value))


@st.composite
def configs(draw):
    """Valid configs, any float a field takes drawn into each field.

    The two checks that relate fields hold by construction, at the 9 digits that
    files hold: the PEM frequency is above 100x the magnet rotation, and the
    field integral below B_max^2 * L.  A 9-digit value is within 5e-9 of the
    value it stands for, so factors 1e-7 from 1 keep each side of its bound.
    """
    related = ("magnet_rotation_hz", "peak_field_t", "field_length_m")
    kwargs = {f.name: draw(field_values(f)) for f in fields(ApparatusConfig)}
    kwargs.update(zip(related, (draw(st.floats(1e-300, 1e300)), draw(st.floats(1e-100, 1e100)),
                                draw(st.floats(1e-100, 1e100)))))
    rotation, peak, length = (nine(kwargs[name]) for name in related)
    kwargs["pem_frequency_hz"] = nine(100.0 * rotation * draw(st.floats(1 + 1e-7, 1e6)))
    kwargs["field_integral_t2m"] = nine(peak * peak * length * draw(st.floats(1e-6, 1 - 1e-7)))
    return ApparatusConfig(**kwargs)


class TestConfigFile:
    def test_every_field_is_read_from_its_key_in_each_unit(self):
        for f in fields(ApparatusConfig):
            value = 2 * f.default if isinstance(f.default, int) else 0.999 * f.default or 0.5
            for unit, factor in (f.metadata["units"] or {"": None}).items():
                number = value / factor if factor else value
                cfg = parse_config(f"{f.metadata['key']} = {number!r} {unit}\n")
                assert getattr(cfg, f.name) == pytest.approx(value, rel=1e-12, abs=0.0), (
                    f.name, unit)
                assert replace(cfg, **{f.name: f.default}) == ApparatusConfig()

    @settings(max_examples=300, deadline=None)
    @given(config=configs())
    def test_random_configs_round_trip(self, config):
        back = parse_config(config_text(config))
        assert back.content_hash() == config.content_hash()
        assert config_text(back) == config_text(config)
        kv = {key: format_value(value) for key, value in config.to_key_values().items()}
        kv["config_hash"] = config.content_hash()
        assert ApparatusConfig.from_key_values(kv).content_hash() == config.content_hash()

    @pytest.mark.parametrize("make", [lambda path: path.mkdir(),
                                      lambda path: path.write_bytes(b"finesse = 5e5 \xff\n")],
                             ids=["directory", "not_utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, make):
        cfg = tmp_path / "unreadable.cfg"
        make(cfg)
        code, err = run_captured("simulate", "--config", cfg, "--out-dir", tmp_path / "o")
        assert code == 1
        assert err.startswith(f"config error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1

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

    def test_repeated_key(self, he_record, tmp_path, capsys):
        with pytest.raises(ConfigError, match="line 3: key 'finesse' repeats line 1"):
            parse_config("finesse = 500000\n# a comment\nfinesse = 670000\n")
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text("finesse = 670000\nfinesse = 500000\n")
        assert run("analyze", he_record, "--config", cfg, "--out-dir", tmp_path / "a") == 1
        assert "repeats line 1" in capsys.readouterr().err


class TestManifest:
    def test_hash_stability(self):
        config = ApparatusConfig()
        text, digest = manifest("simulate", config, [("seed", 1), ("noise_asd", 0.0)])
        assert manifest("simulate", config, [("seed", 1), ("noise_asd", 0.0)]) == (text, digest)
        assert manifest("simulate", config, [("seed", 2), ("noise_asd", 0.0)])[1] != digest
        assert text == (f"tool_version = {__version__}\ncommand = simulate\nseed = 1\n"
                        f"noise_asd = 0.00000000e+00\n\n# config\n{config_text(config)}")

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A small full-fidelity config, two helium records both named run.csv (same seed,
        other noise), two calibration files and an estimate."""
        root = tmp_path_factory.mktemp("manifest_inputs")
        (root / "small.cfg").write_text("pem_frequency = 960 Hz\nmagnet_rotation = 3 Hz\n")
        for name, asd in (("a", "1e-7"), ("b", "2e-7")):
            assert run("simulate", "--source", "gas:He:32ubar", "--seed", "7", "--revolutions",
                       "512", "--noise-asd", asd, "--name", "run", "--out-dir", root / name) == 0
        for phase in ("1.0", "2.0"):
            (root / f"phase{phase}.txt").write_text(f"phase_rad = {phase}\n")
        assert run("analyze", root / "a" / "run.csv", "--out-dir", root / "estimate") == 0
        return root

    SIMULATE = ("simulate", "--revolutions", "2", "--noise-asd", "1e-7", "--name", "run")
    FULL = ("simulate", "--config", "{d}/small.cfg", "--fidelity", "full", "--revolutions", "1")
    ANALYZE = ("analyze", "{d}/a/run.csv")
    REPORT = ("limits", "report", "--estimate", "{d}/estimate/estimate.txt")
    XSEC = ("limits", "xsec", "--estimate", "{d}/estimate/estimate.txt")

    # each case runs a command with two values of one option or input; ``reads`` says
    # whether the command reads it, so that an unread one must leave every byte as it is
    @pytest.mark.parametrize("first, second, reads", [
        (FULL + ("--pem-oversample", "16"), FULL + ("--pem-oversample", "32"), True),
        (SIMULATE + ("--pem-oversample", "16"), SIMULATE + ("--pem-oversample", "32"), False),
        (SIMULATE + ("--seed", "1"), SIMULATE + ("--seed", "2"), True),
        (ANALYZE + ("--calibration", "{d}/phase1.0.txt"),
         ANALYZE + ("--calibration", "{d}/phase2.0.txt"), True),
        (ANALYZE, ("analyze", "{d}/b/run.csv"), True),
        (ANALYZE + ("--blocks", "4096"), ANALYZE + ("--blocks", "8192"), True),
        (ANALYZE + ("--noise-halfwidth", "32"), ANALYZE + ("--noise-halfwidth", "64"), True),
        (REPORT, REPORT + ("--cl", "0.9"), False),
        (REPORT, REPORT + ("--rule", "one-sigma"), False),
        (XSEC, XSEC + ("--cl", "0.9"), False),
    ], ids=["full_pem_oversample", "fast_pem_oversample", "seed", "calibration",
            "same_named_records", "blocks", "noise_halfwidth", "report_cl", "report_rule",
            "xsec_one_sigma_cl"])
    def test_equal_hashes_mean_equal_bytes(self, inputs, tmp_path, first, second, reads):
        outputs = []
        for name, argv in (("first", first), ("second", second)):
            out = tmp_path / name
            assert run(*(a.format(d=inputs) for a in argv), "--out-dir", out) == 0
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")}
            hashes = {h for data in files.values()
                      for h in re.findall(rb"^# manifest_hash = (\w+)$", data, re.M)}
            assert len(hashes) == 1
            outputs.append((hashes, files))
        (first_hash, first_files), (second_hash, second_files) = outputs
        if reads:
            assert first_hash != second_hash or first_files == second_files
        else:
            assert first_files == second_files
