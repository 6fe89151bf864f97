import json
import math
from pathlib import Path

import pytest

from arch_resonance import UsageError
from arch_resonance.cli import load_presets, main, parse

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestParse:
    def test_freq_flags(self):
        inv = parse(["freq", "--beta", "1.0", "--eta", "1.0", "--modes", "3"])
        assert inv.command == "freq"
        assert inv.overrides["beta"] == 1.0
        assert inv.overrides["eta"] == 1.0
        assert inv.overrides["modes"] == 3
        assert inv.format == "table"

    def test_sweep_flags(self):
        inv = parse(
            ["sweep", "--param", "eta", "--from", "0", "--to", "4", "--steps", "41",
             "--out", "fig4.csv"]
        )
        assert inv.command == "sweep"
        assert inv.overrides["param"] == "eta"
        assert inv.overrides["from_"] == 0.0
        assert inv.overrides["to"] == 4.0
        assert inv.overrides["steps"] == 41
        assert inv.output_path == "fig4.csv"
        assert inv.format == "csv"

    def test_unknown_flag_named(self):
        with pytest.raises(UsageError, match="--bogus"):
            parse(["freq", "--bogus", "1"])

    def test_help_and_version_exit_zero(self):
        assert main(["--help"]) == 0
        assert main(["--version"]) == 0
        assert main(["freq", "--help"]) == 0

    def test_missing_command(self):
        assert main([]) == 2


class TestFreqCommand:
    def test_reports_fundamental(self, capsys):
        assert main(["freq", "--beta", "1.0", "--eta", "0"]) == 0
        out = capsys.readouterr().out
        first_data_line = out.splitlines()[1]
        assert "78.6698822" in first_data_line

    def test_json_schema(self, capsys):
        assert (
            main(
                ["freq", "--beta", "1.0", "--eta", "0", "--modes", "2",
                 "--chirality", "armchair", "--format", "json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"problem", "spectrum"}
        assert len(doc["spectrum"]) == 2
        for entry in doc["spectrum"]:
            assert list(entry) == ["mode", "K", "omega_nd", "omega_rad_s", "flag"]
            assert entry["flag"] == "Bracketed"
            assert entry["omega_rad_s"] > 0
        assert doc["problem"]["beta"] == 1.0
        assert doc["spectrum"][0]["K"] == pytest.approx(78.6698822318237, rel=1e-10)

    def test_csv_format(self, capsys):
        assert main(["freq", "--beta", "1.0", "--eta", "0", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mode,K,omega_nd,omega_rad_s,flag"
        assert lines[1].startswith("1,78.6698822,")

    def test_dimensionless_has_blank_omega(self, capsys):
        assert main(["freq", "--beta", "1.0", "--eta", "0", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[3] == ""

    def test_exclusive_eta_flags(self, capsys):
        assert main(["freq", "--eta", "1", "--eta-nm2", "1"]) == 2

    def test_eta_nm2_needs_material(self, capsys):
        assert main(["freq", "--eta-nm2", "1.0"]) == 2

    def test_eta_nm2_conversion(self, capsys):
        # eta = 1 nm^2 on a 10 nm radius: eta_nd = 0.01.
        assert (
            main(
                ["freq", "--eta-nm2", "1.0", "--chirality", "armchair",
                 "--format", "json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"]["eta_nd"] == pytest.approx(0.01, rel=1e-12)

    def test_crack_flags(self, capsys):
        assert (
            main(
                ["freq", "--beta", "1.0", "--eta", "0", "--crack-psi", "0.5",
                 "--crack-alpha", "0.5", "--format", "json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        crack = doc["problem"]["crack"]
        assert crack["alpha_rad"] == 0.5
        # power-law default: 6*pi * 0.25/0.25, geometry factor 1 without a tube
        assert crack["theta_c"] == pytest.approx(6.0 * math.pi, rel=1e-12)
        assert doc["spectrum"][0]["K"] < 78.6698822318237

    def test_no_roots_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[search]\nk-max = 10\n")
        code = main(["freq", "--beta", "1.0", "--eta", "0", "--config", str(cfg)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_exits_one(self, capsys):
        code = main(
            ["freq", "--beta", "1.0", "--eta", "0", "--out", "/nonexistent/x.csv"]
        )
        assert code == 1


class TestConfigPrecedence:
    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "arch.ini"
        cfg.write_text("[geometry]\nbeta = 2.0\n\n[nonlocal]\neta = 0\n")
        assert (
            main(["freq", "--config", str(cfg), "--beta", "1.0", "--format", "json"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"]["beta"] == 1.0
        assert doc["problem"]["eta_nd"] == 0.0

    def test_config_value_used_without_flag(self, capsys, tmp_path):
        cfg = tmp_path / "arch.ini"
        cfg.write_text("[geometry]\nbeta = 2.0\n\n[nonlocal]\neta = 0\n")
        assert main(["freq", "--config", str(cfg), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"]["beta"] == 2.0

    def test_crack_config_section(self, capsys, tmp_path):
        cfg = tmp_path / "arch.ini"
        cfg.write_text(
            "[geometry]\nbeta = 1.0\n\n[nonlocal]\neta = 0\n\n"
            "[crack]\nmodel = polynomial\ncoefficients = [0, 2.0]\nscale = 0.5\n"
            "psi = 0.5\nalpha_rad = 0.25\n"
        )
        assert main(["freq", "--config", str(cfg), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # 0.5 * (0 + 2.0 * 0.5) = 0.5
        assert doc["problem"]["crack"]["theta_c"] == pytest.approx(0.5, rel=1e-12)
        assert doc["problem"]["crack"]["alpha_rad"] == 0.25

    def test_missing_config_file(self, capsys):
        assert main(["freq", "--config", "/no/such/file.ini"]) == 2


class TestModeshapeCommand:
    def test_csv_output(self, capsys):
        assert (
            main(
                ["modeshape", "--beta", "1.0", "--eta", "0", "--mode", "1",
                 "--samples", "200"]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi_rad,X"
        assert len(lines) == 201
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert abs(float(first[1])) <= 1e-9
        assert abs(float(last[1])) <= 1e-9

    def test_mode_validation(self):
        assert main(["modeshape", "--beta", "1.0", "--mode", "0"]) == 2
        assert main(["modeshape", "--beta", "1.0", "--samples", "1"]) == 2


class TestValidateCommand:
    def test_table_contains_reference_columns(self, capsys):
        assert main(["validate", "--beta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "9.75821" in out
        assert "9.2745" in out
        assert "9.8671044" in out
        assert len(out.splitlines()) == 6

    def test_large_beta_rejected(self, capsys):
        assert main(["validate", "--beta", "0.7"]) == 2


class TestSweepCommand:
    def test_eta_sweep_csv(self, capsys):
        assert (
            main(
                ["sweep", "--param", "eta", "--from", "0", "--to", "4",
                 "--steps", "3", "--chirality", "armchair"]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("chirality,")
        assert len(lines) == 4
        assert lines[1].split(",")[7].startswith("78.6698822")

    def test_param_required(self, capsys):
        assert main(["sweep", "--from", "0", "--to", "4"]) == 2

    def test_bad_steps(self, capsys):
        assert main(["sweep", "--param", "eta", "--steps", "1"]) == 2

    def test_radius_sweep_nm_boundary(self, capsys):
        assert (
            main(
                ["sweep", "--param", "radius", "--from", "2", "--to", "20",
                 "--steps", "2", "--chirality", "zigzag", "--eta-nm2", "0"]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[3] == "2e-09"
        assert lines[2].split(",")[3] == "2e-08"

    def test_first_row_matches_freq(self, capsys):
        # Both commands reduce through model.nondimensionalize: same eta_nd, same K.
        common = ["--chirality", "armchair", "--eta-nm2", "1", "--crack-psi", "0.3",
                  "--crack-alpha", "0.4", "--format", "json"]
        assert main(["freq", "--radius-nm", "5", "--modes", "1", *common]) == 0
        freq = json.loads(capsys.readouterr().out)
        assert main(["sweep", "--param", "radius", "--from", "5", "--to", "6",
                     "--steps", "2", *common]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row["K"] == freq["spectrum"][0]["K"]
        assert row["eta_nd"] == freq["problem"]["eta_nd"]


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--crack-psi", "nan"],
            ["freq", "--crack-psi", "0.3", "--crack-model", "foo"],
            ["freq", "--chirality", "armchair", "--radius-nm", "-1"],
            ["freq", "--chirality", "armchair", "--radius-nm", "0.1"],
            ["sweep", "--param", "eta", "--steps", "2", "--chirality", "armchair",
             "--crack-psi", "nan"],
            ["sweep", "--param", "beta", "--from", "6", "--to", "7", "--steps", "2",
             "--chirality", "armchair"],
            ["sweep", "--param", "eta", "--from", "-1", "--to", "1", "--steps", "2",
             "--chirality", "armchair"],
            ["sweep", "--param", "radius", "--from", "0.1", "--to", "2", "--steps", "2",
             "--chirality", "armchair"],
        ],
    )
    def test_exits_two_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error:") and "Traceback" not in captured.err


class TestPresets:
    def test_shipped_presets_complete(self):
        table = load_presets()
        assert set(table) == {"armchair", "zigzag", "chiral"}
        for entry in table.values():
            assert entry["youngs_modulus_tpa"] > 0

    def test_custom_presets_file(self, capsys, tmp_path):
        presets = tmp_path / "p.ini"
        presets.write_text(
            "[armchair]\nyoungs_modulus_tpa = 2.0\ndiameter_nm = 0.7\n"
            "wall_thickness_nm = 0.3\nmass_per_length_kg_per_m = 2e-15\n"
            "arch_radius_nm = 5.0\n"
        )
        assert (
            main(
                ["freq", "--beta", "1.0", "--eta", "0", "--chirality", "armchair",
                 "--presets", str(presets), "--format", "json"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"]["radius_m"] == pytest.approx(5e-9)

    def test_missing_presets_file(self, capsys):
        assert main(["freq", "--chirality", "armchair", "--presets", "/no/file"]) == 2


class TestLogging:
    def test_env_var_controls_level(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCH_RESONANCE_LOG", "debug")
        assert main(["freq", "--beta", "1.0", "--eta", "0"]) == 0


class TestGoldenFiles:
    """Committed reference output for one instance of each command.

    The sweep goldens (figure reproduction) live in the acceptance suite.
    """

    CASES = {
        "freq.csv": ["freq", "--beta", "1.0", "--eta", "1.0", "--chirality",
                     "armchair", "--modes", "5", "--format", "csv"],
        "modeshape.csv": ["modeshape", "--beta", "1.0", "--eta", "1.0",
                          "--mode", "1", "--samples", "200", "--format", "csv"],
        "validate.csv": ["validate", "--format", "csv"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical(self, name, tmp_path):
        out = tmp_path / name
        assert main(self.CASES[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()
