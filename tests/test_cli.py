import contextlib
import copy
import io
import json
import logging
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arch_resonance import ArchProblem, UsageError, cli, solver, uncracked_K_closed_form
from arch_resonance.cli import build_parser, load_presets, main, parse

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(cli.__file__).resolve().parents[1]


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


class TestParseManyRequests:
    """One process parses many argument vectors with one parser."""

    @staticmethod
    def _fresh(argv):
        return vars(build_parser().parse_args(argv))

    @staticmethod
    def _parsed(argv):
        inv = parse(argv)
        return {
            "command": inv.command,
            "config": inv.config_path,
            "out": inv.output_path,
            "format": inv.format,
            **inv.overrides,
        }

    def test_default_returns_after_explicit_value(self):
        assert parse(["modeshape", "--mode", "3"]).overrides["mode"] == 3
        assert parse(["modeshape"]).overrides["mode"] == 1
        assert self._parsed(["modeshape"]) == self._fresh(["modeshape"])

    def test_eta_flags_in_turn(self):
        assert parse(["freq", "--eta", "1.5"]).overrides["eta"] == 1.5
        inv = parse(["freq", "--eta-nm2", "0.5"])
        assert inv.overrides["eta_nm2"] == 0.5 and inv.overrides["eta"] is None
        with pytest.raises(UsageError):
            parse(["freq", "--eta", "1", "--eta-nm2", "0.5"])
        assert parse(["freq", "--eta", "2"]).overrides["eta"] == 2.0

    def test_usage_error_then_valid_argv(self):
        with pytest.raises(UsageError, match="--bogus"):
            parse(["freq", "--bogus", "1"])
        argv = ["sweep", "--param", "radius", "--steps", "2", "--chirality", "zigzag"]
        assert self._parsed(argv) == self._fresh(argv)

    def test_version_exits_zero_between_requests(self, capsys):
        parse(["freq", "--beta", "1"])
        with pytest.raises(SystemExit) as exc:
            parse(["--version"])
        assert exc.value.code == 0
        assert main(["--version"]) == 0
        assert parse(["validate"]).command == "validate"

    def test_parser_built_at_most_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for argv in (["freq"], ["modeshape", "--mode", "2"], ["validate"], ["freq"]):
                parse(argv)
            with pytest.raises(UsageError):
                parse(["freq", "--bogus"])
            assert main(["--version"]) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]


class TestDispatch:
    """A plain vector is read from the flag table, any other led by a command word by its
    subparser alone, anything else by the full parser."""

    @pytest.mark.parametrize("command", ["freq", "sweep", "modeshape", "validate"])
    def test_command_help_is_its_usage(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: arch-resonance {command} ")

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"arch-resonance {cli.__version__}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["--beta", "1", "freq"], "argument command: invalid choice: '1'"),
            (["--format", "csv", "freq"], "argument command: invalid choice: 'csv'"),
        ],
    )
    def test_no_command_is_one_usage_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1

    def test_command_word_skips_the_full_parser(self, monkeypatch):
        def full_parse(*args, **kwargs):
            raise AssertionError("the full parser parsed a command's argument vector")

        monkeypatch.setattr(cli._parser(), "parse_args", full_parse)
        inv = parse(["modeshape", "--beta", "2", "--mode", "3"])
        assert (inv.command, inv.overrides["beta"], inv.overrides["mode"]) == ("modeshape", 2.0, 3)
        with pytest.raises(UsageError, match="unrecognized arguments: --bogus"):
            parse(["freq", "--bogus"])

        def sub_parse(*args, **kwargs):
            raise AssertionError("argparse parsed a plain --flag value vector")

        # A figure sweep's vector and a cracked JSON mode shape's are read from the flag table.
        with monkeypatch.context() as m:
            for sub in cli._parser().commands.values():
                m.setattr(sub, "parse_args", sub_parse)
            sweep = parse(["sweep", "--param", "eta", "--from", "0.4", "--to", "1.2000000000000002",
                           "--steps", "9", "--chirality", "zigzag"])
            shape = parse(["modeshape", "--beta", "1.25", "--eta", "2.5", "--chirality", "chiral",
                           "--crack-psi", "0.3", "--crack-alpha", "0.5", "--mode", "2",
                           "--samples", "200", "--format", "json"])
        assert (sweep.command, sweep.format, sweep.overrides["from_"], sweep.overrides["to"],
                sweep.overrides["steps"]) == ("sweep", "csv", 0.4, 1.2000000000000002, 9)
        assert (shape.command, shape.format, shape.overrides["crack_psi"],
                shape.overrides["samples"], shape.overrides["eta_nm2"]) == (
            "modeshape", "json", 0.3, 200, None)


def _argparse_parse(args: list[str]) -> cli.CliInvocation:
    """``parse`` with every vector left to argparse as given, on a freshly built parser."""
    with mock.patch.object(cli, "_plain", lambda args: None), \
            mock.patch.object(cli, "_negatives_joined", lambda args: args), \
            mock.patch.object(cli, "_parser", build_parser):
        return parse(args)


def _is_number(flag, raw: str) -> bool:
    try:
        flag.type(raw)
    except ValueError:
        return False
    return flag.type is not str


def _equals_form(args: list[str]) -> list[str]:
    """A vector with each value that starts with '-' and is a number of its numeric
    flag, named exactly and before any ``--``, joined to the flag: ``--beta=-1e-3``.
    argparse reads ``--beta -1e-3`` as two flags, the joined form as the flag and its
    value. A str flag's value is left as it is, for argparse to refuse."""
    flags = cli._BY_NAME.get(args[0], {}) if args else {}
    joined = args[:1]
    for i in range(1, len(args)):
        flag = None if "--" in args[:i] else flags.get(args[i - 1])
        if flag and args[i][:1] == "-" and _is_number(flag, args[i]):
            joined[-1] = f"{args[i - 1]}={args[i]}"
        else:
            joined.append(args[i])
    return joined


def _outcome(parse_with, args: list[str]) -> tuple[str, str]:
    """What a parse returns or raises, and what it prints."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            result = repr(parse_with(args))  # repr: a NaN value equals itself
        except UsageError as exc:
            result = f"UsageError: {exc}"
        except SystemExit as exc:
            result = f"SystemExit: {exc.code}"
    return result, printed.getvalue()


_VALUES = {
    float: st.one_of(
        st.floats().map(repr),
        st.sampled_from(
            ["-1e-3", "-0", "nan", "inf", "-inf", "1e999", "1_0", " 2", "2.", "x", "-x", ""]
        ),
    ),
    int: st.one_of(
        st.integers(-3, 300).map(str),
        st.sampled_from(["-1", "-1.5", "1.5", "0x1", "1_0", " 7", "x", ""]),
    ),
    str: st.sampled_from(["armchair", "all", "power-law", "c.ini", "", " ", "-x", "--beta"]),
}
_STRAYS = ["--", "-h", "--help", "--version", "--bogus", "-", "freq", "stray", ""]


@st.composite
def _vectors(draw) -> list[str]:
    """Argument vectors built from a command's flags, most of them plain ``--flag value``."""
    command = draw(st.sampled_from([*cli._FLAGS, "bogus"]))
    flags = list(cli._BY_NAME.get(command, cli._BY_NAME["freq"]).values())
    args = [command]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(flags))
        values = st.sampled_from([*flag.choices, "xml"]) if flag.choices else _VALUES[flag.type]
        name, value = flag.name, draw(values)
        form = draw(st.sampled_from(["pair"] * 8 + ["abbreviated", "equals", "name", "value"]))
        if form == "abbreviated":
            name = name[: draw(st.integers(3, len(name)))]
        pieces = {"equals": [f"{name}={value}"], "name": [name], "value": [value]}
        args += pieces.get(form, [name, value])
    if draw(st.booleans()):
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(_STRAYS)))
    return args


class TestFlagTable:
    """``parse`` reads plain ``--flag value`` vectors from the flag table and leaves
    every other vector to argparse; both give what argparse alone gives."""

    @settings(max_examples=400)
    @given(_vectors())
    @example(["freq", "--beta", "-1e-3"])
    @example(["freq", "--beta", "-1e-3", "--format", "xml"])
    @example(["freq", "--bet", "-1e-3"])
    @example(["freq", "--beta", "-x"])
    @example(["freq", "--out", "-x"])
    @example(["freq", "--chirality", "--beta"])
    @example(["freq", "--", "--beta", "-1"])
    @example(["freq", "--beta", "nan", "--modes", "1.5"])
    @example(["freq", "--eta", "1", "--eta-nm2", "1"])
    @example(["freq", "--eta", "1", "--eta", "2"])
    @example(["sweep", "--param", "psi"])
    @example(["freq", "--format", "xml"])
    @example(["freq", "--beta=1", "--eta", "1"])
    @example(["freq", "--bet", "1"])
    @example(["freq", "--m", "1", "--n", "1"])
    @example(["freq", "--chirality", ""])
    @example(["freq", "--", "--beta", "1"])
    @example(["validate", "-h"])
    @example(["validate", "--beta"])
    @example(["validate", "1"])
    def test_agrees_with_argparse(self, args):
        # Whichever path reads it, a vector reads as argparse reads its --flag=value
        # form for negative numbers.
        assert _outcome(parse, args) == _outcome(_argparse_parse, _equals_form(args))

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f.name) for c, flags in cli._BY_NAME.items() for f in flags.values() if f.type is not str],
    )
    def test_negative_number_is_a_value(self, command, flag, monkeypatch):
        # What --flag=value gives argparse, without building it: a number below 0
        # reaches its own check, as any other number does.
        value = "-1e-3" if cli._BY_NAME[command][flag].type is float else "-2"
        expected = _argparse_parse([command, f"{flag}={value}"])
        monkeypatch.setattr(cli, "_parser", mock.Mock(side_effect=AssertionError("argparse built")))
        assert parse([command, flag, value]) == expected

    def test_negative_angle_is_a_range_error(self, capsys):
        assert main(["freq", "--beta", "-1e-3"]) == 2
        assert capsys.readouterr().err == "usage error: central angle must lie in [0.001, 2*pi]\n"

    def test_negative_number_is_a_value_beside_a_bad_choice(self, capsys):
        # argparse reads this vector, and names the bad choice, not --beta.
        assert main(["freq", "--beta", "-1e-3", "--format", "xml"]) == 2
        assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv, config, flag",
        [
            (["freq", "--radius-nm", "-5"], "", "radius-nm"),
            (["freq", "--diameter-nm", "0"], "", "diameter-nm"),
            (["freq", "--eta-nm2", "1", "--radius-nm", "10"], "", "radius-nm"),
            (["modeshape", "--diameter-nm", "0.7", "--radius-nm", "5"], "", "radius-nm"),
            (["freq", "--beta", "2"], "[geometry]\nradius-nm = 5\n", "radius-nm"),
            (["modeshape"], "[geometry]\ndiameter-nm = 0.7\n", "diameter-nm"),
        ],
    )
    def test_geometry_needs_a_tube(self, argv, config, flag, capsys, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(config)
        assert main([*argv, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --{flag} needs --chirality or --n/--m\n"

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["freq", "--n", "10", "--m", "10", "--radius-nm", "5"], ""),
            (["freq", "--radius-nm", "5"], "[geometry]\nchirality = armchair\n"),
        ],
    )
    def test_geometry_with_a_tube(self, argv, config, capsys, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(config)
        assert main([*argv, "--config", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["problem"]["radius_m"] == pytest.approx(5e-9)

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

    @pytest.mark.parametrize("crack", [[], ["--crack-psi", "0.3"]], ids=["uncracked", "cracked"])
    def test_k_min_above_the_default_k_max(self, capsys, tmp_path, crack):
        # Ten times K_5 lies far below k-min: the default k-max is counted
        # from the modes below k-min. The closed form lists the five K_n
        # above k-min. Adjacent K_n there lie about 6e10, under 2e-6 of K,
        # apart, closer than the cracked scan's guides tell apart, so a
        # cracked solve fails with one line instead of skipping roots.
        cfg = tmp_path / "arch.ini"
        cfg.write_text("[search]\nk-min = 1e20\n")
        argv = ["--beta", "1", "--eta", "1", *crack, "--config", str(cfg)]
        if crack:
            message = (
                "error: K range [1e+20, 1.0000000026151204e+21] holds modes"
                " closer than the grid tells apart\n"
            )
            for command in (["freq", *argv], ["modeshape", *argv, "--samples", "5"]):
                assert main(command) == 1
                captured = capsys.readouterr()
                assert (captured.out, captured.err) == ("", message)
            return
        assert main(["freq", *argv, "--format", "json"]) == 0
        ks = [row["K"] for row in json.loads(capsys.readouterr().out)["spectrum"]]
        n = solver._count_below(ArchProblem(beta=1.0, eta_nd=1.0), 1e20)
        assert ks == [uncracked_K_closed_form(n + i, 1.0, 1.0) for i in range(1, 6)]
        assert all(1e20 < k for k in ks)
        assert main(["modeshape", *argv, "--samples", "5"]) == 0
        assert capsys.readouterr().out.startswith("phi_rad,X\n0,0\n")

    def test_k_min_with_no_room_for_a_default_k_max(self, capsys, tmp_path):
        cfg = tmp_path / "arch.ini"
        cfg.write_text("[search]\nk-min = 1.7976931348623157e308\n")
        assert main(["freq", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "usage error: k_min must leave room for a default k_max\n"


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

    def test_no_signed_zero_at_a_support(self, capsys):
        # The antisymmetric mode of a mid-span crack: its zero samples are
        # divided by a negative peak, which must not print as -0.
        argv = ["modeshape", "--beta", "1", "--eta", "1", "--crack-psi", "0.3", "--mode", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0,0"
        assert not any(line.split(",")[1] == "-0" for line in lines[1:])

    def test_table_format_is_csv(self, capsys):
        # The subparser shares --format {table,csv,json}; a shape's table is its CSV.
        argv = ["modeshape", "--beta", "1", "--eta", "1", "--crack-psi", "0.3", "--samples", "7"]
        outputs = []
        for fmt in ("table", "csv"):
            assert main(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("phi_rad,X\n")

    def test_cracked_double_root_has_no_shape(self, capsys):
        # psi = 1e-6 leaves K_1 = K_2 = 0.36 of beta = pi/sqrt(0.4), eta = 0
        # double to the root's precision: no one shape, one line and exit 1.
        argv = ["modeshape", "--beta", "4.967294132898051", "--eta", "0", "--crack-psi", "1e-6",
                "--crack-alpha", "1.6557", "--mode", "1", "--samples", "5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: K = 0.36 is a double root: its mode shapes span a plane\n"

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

    def test_every_row_matches_freq(self, capsys):
        common = ["--radius-nm", "5", "--eta-nm2", "0.5", "--crack-psi", "0.3",
                  "--crack-alpha", "0.05", "--modes", "2", "--format", "json"]
        assert main(["sweep", "--param", "beta", "--chirality", "all", *common]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 59 * 3
        for row in rows:
            assert main(["freq", "--beta", repr(row["beta_rad"]),
                         "--chirality", row["chirality"], *common]) == 0
            freq = json.loads(capsys.readouterr().out)
            mode2 = freq["spectrum"][1]
            assert row["note"] == ""
            assert (row["K"], row["omega_nd"], row["omega_rad_s"]) == (
                mode2["K"], mode2["omega_nd"], mode2["omega_rad_s"]
            )
            assert (row["eta_nd"], row["radius_m"]) == (
                freq["problem"]["eta_nd"], freq["problem"]["radius_m"]
            )


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
            ["sweep", "--param", "eta", "--from", "0", "--to", "1", "--steps", "2",
             "--n", "6", "--m", "6"],
            ["sweep", "--param", "eta", "--from", "0", "--to", "1", "--steps", "2",
             "--chirality", "armchair", "--diameter-nm", "1.5"],
            ["freq", "--chirality", "armchair", "--radius-nm", "nan"],
            ["freq", "--chirality", "armchair", "--radius-nm", "inf"],
            ["freq", "--chirality", "armchair", "--diameter-nm", "nan"],
            ["sweep", "--param", "beta", "--chirality", "armchair", "--radius-nm", "nan"],
            ["freq", "--beta", "1e-11"],
            ["freq", "--beta", "1e-80"],
            ["validate", "--beta", "1e-200"],
            # A tube whose E*I or mass_per_length*R^4 overflows or underflows.
            ["freq", "--radius-nm", "1e87", "--chirality", "armchair"],
            ["freq", "--eta-nm2", "1", "--radius-nm", "1e200", "--chirality", "armchair"],
            ["freq", "--radius-nm", "1e-80", "--diameter-nm", "1e-81", "--chirality", "armchair"],
            ["sweep", "--param", "radius", "--from", "1e100", "--to", "1e300", "--steps", "2",
             "--chirality", "armchair"],
            ["sweep", "--param", "beta", "--steps", "2", "--radius-nm", "1e300",
             "--chirality", "armchair"],
            # Roll-up indices whose n^2 + n*m + m^2 is beyond the largest float.
            ["freq", "--beta", "1", "--m", "1", "--n", "2" + "0" * 154],
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

    def test_sweep_rejects_a_missing_class(self, capsys, tmp_path):
        presets = tmp_path / "p.ini"
        presets.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entry.items())
                for name, entry in load_presets().items()
                if name != "zigzag"
            )
        )
        argv = ["sweep", "--param", "eta", "--steps", "2", "--chirality", "all",
                "--presets", str(presets)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: no preset entry for 'zigzag'\n"

    @pytest.mark.parametrize("n", ["1e300", "inf"])
    def test_index_beyond_floats_in_presets_file(self, n, capsys, tmp_path):
        # n = 1e300 gives n^2 beyond the largest float, and inf no integer:
        # bad input, not a traceback.
        presets = tmp_path / "p.ini"
        presets.write_text(
            f"[armchair]\nyoungs_modulus_tpa = 1.0\nn = {n}\nm = 10\n"
            "wall_thickness_nm = 0.34\nmass_per_length_kg_per_m = 1.6e-15\n"
            "arch_radius_nm = 10.0\n"
        )
        assert main(["freq", "--chirality", "armchair", "--presets", str(presets)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error:") and "Traceback" not in captured.err

    def test_missing_presets_file(self, capsys):
        load_presets()
        assert main(["freq", "--chirality", "armchair", "--presets", "/no/file"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("usage error:")

    def test_mutating_the_table_leaves_the_next_call_alone(self):
        before = copy.deepcopy(load_presets())
        table = load_presets()
        table["armchair"]["youngs_modulus_tpa"] = -1.0
        del table["zigzag"]
        table["bogus"] = {}
        assert load_presets() == before

    def test_presets_file_reread_on_every_call(self, capsys, tmp_path):
        presets = tmp_path / "p.ini"
        argv = ["freq", "--beta", "1.0", "--eta", "0", "--chirality", "armchair",
                "--presets", str(presets), "--format", "json"]
        radii = []
        for radius_nm in (5.0, 7.0):
            presets.write_text(
                "[armchair]\nyoungs_modulus_tpa = 2.0\ndiameter_nm = 0.7\n"
                "wall_thickness_nm = 0.3\nmass_per_length_kg_per_m = 2e-15\n"
                f"arch_radius_nm = {radius_nm}\n"
            )
            assert main(argv) == 0
            radii.append(json.loads(capsys.readouterr().out)["problem"]["radius_m"])
        assert radii == [pytest.approx(5e-9), pytest.approx(7e-9)]


_MALFORMED_FILES = {
    "no-section-header": b"beta = 1\n",
    "repeated-section": b"[armchair]\nbeta = 1\n[armchair]\nbeta = 2\n",
    "interpolation": b"[armchair]\nbeta = %(x)s\n",
    "non-utf-8-byte": b"[armchair]\nbeta = 1\xff\n",
}


class TestMalformedFiles:
    @pytest.mark.parametrize("flag", ["--config", "--presets"])
    @pytest.mark.parametrize("content", _MALFORMED_FILES.values(), ids=list(_MALFORMED_FILES))
    def test_usage_error_in_one_line(self, flag, content, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        assert main(["freq", "--chirality", "armchair", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error:") and str(path) in captured.err

    @pytest.mark.parametrize("flag, kind", [("--config", "config"), ("--presets", "presets")])
    def test_missing_file(self, flag, kind, capsys, tmp_path):
        path = tmp_path / "none.ini"
        assert main(["freq", "--chirality", "armchair", flag, str(path)]) == 2
        assert capsys.readouterr().err == f"usage error: {kind} file not found: {path}\n"


class TestLogging:
    """``ARCH_RESONANCE_LOG``. Stderr is read from fresh processes: in this one,
    pytest's handlers on the root logger take the records."""

    CRACKED = ["freq", "--beta", "1", "--eta", "1", "--crack-psi", "0.3"]
    INFO = "INFO freq: beta=1 eta_nd=1 crack=CrackJoint(alpha=0.5, theta_c=3.4621633325275276)\n"
    DEBUG = (
        "DEBUG find_frequencies: 41 scan evaluations, 15 refinement evaluations, "
        "5 brackets refined\n"
    )

    @staticmethod
    def _fresh(code: str, level: str | None) -> subprocess.CompletedProcess:
        env = {key: value for key, value in os.environ.items() if key != "ARCH_RESONANCE_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        if level is not None:
            env["ARCH_RESONANCE_LOG"] = level
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)

    def test_env_var_controls_level(self, capsys):
        # Unset and empty are warn, and the values are read in any case.
        expected = {
            None: "", "": "", "error": "", "warn": "", "Warn": "",
            "info": self.INFO, "INFO": self.INFO,
            "debug": self.INFO + self.DEBUG, "Debug": self.INFO + self.DEBUG,
        }
        assert main(self.CRACKED) == 0
        out = capsys.readouterr().out
        code = f"from arch_resonance.cli import main\nraise SystemExit(main({self.CRACKED!r}))"
        for level, err in expected.items():
            done = self._fresh(code, level)
            assert (done.returncode, done.stdout, done.stderr) == (0, out, err), level

    def test_each_call_logs_to_the_stderr_of_its_time(self):
        # A handler bound to the first call's stderr would write the second
        # call's lines to the first's; each call adds no handler of its own.
        code = (
            "import contextlib, io, logging\n"
            "from arch_resonance.cli import main\n"
            "errs = []\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            assert main(['freq', '--beta', '1', '--eta', '1']) == 0\n"
            "    errs.append(err.getvalue())\n"
            "print(repr(errs), len(logging.getLogger().handlers))"
        )
        done = self._fresh(code, "debug")
        lines = (
            "INFO freq: beta=1 eta_nd=1 crack=None\n"
            "DEBUG find_frequencies: 0 scan evaluations, 0 refinement evaluations, "
            "0 brackets refined\n"
        )
        assert (done.stdout, done.stderr) == (f"{[lines, lines]!r} 1\n", "")

    @pytest.mark.parametrize("value", ["bogus", "verbose", "warning", " debug", "DEBUGGING"])
    def test_bad_value_is_one_usage_error_line(self, value, monkeypatch, capsys):
        monkeypatch.setenv("ARCH_RESONANCE_LOG", value)
        assert main(self.CRACKED) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"usage error: ARCH_RESONANCE_LOG={value!r} is not error, warn, info or debug\n"
        )

    def test_records_reach_handlers_the_caller_set_up(self, caplog, monkeypatch):
        # A process that has imported logging has each call set the level:
        # info, then back to warn.
        caplog.set_level(logging.DEBUG)
        monkeypatch.setenv("ARCH_RESONANCE_LOG", "info")
        assert main(self.CRACKED) == 0
        records = [(r.name, r.levelname, r.funcName, r.getMessage()) for r in caplog.records]
        assert records == [("arch_resonance", "INFO", "_cmd_freq", self.INFO[len("INFO "):-1])]
        caplog.clear()
        monkeypatch.delenv("ARCH_RESONANCE_LOG")
        assert main(self.CRACKED) == 0
        assert caplog.records == []


class TestJsonBytes:
    """``--format json`` prints what ``json.dumps(..., indent=2)`` of its own document does.

    A mode shape writes its (phi, X) pairs without the json module, so these
    requests pin every command's JSON bytes to the stdlib's rendering.
    """

    CRACK = ["--crack-psi", "0.3", "--crack-alpha", "0.4"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--beta", "1", "--eta", "1"],
            ["freq", "--beta", "1", "--eta", "1", *CRACK],
            ["sweep", "--param", "beta", "--steps", "2", "--chirality", "zigzag"],
            ["validate"],
            ["modeshape", "--beta", "1", "--eta", "1", "--samples", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", *CRACK, "--samples", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", "--mode", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", *CRACK, "--mode", "2"],
        ],
        ids=["freq", "freq-cracked", "sweep", "validate", "modeshape-2", "modeshape-2-cracked",
             "modeshape", "modeshape-cracked"],
    )
    def test_stdlib_rendering(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestGoldenFiles:
    """Committed reference output for one instance of each command.

    The sweep goldens (figure reproduction) live in the acceptance suite.
    """

    CASES = {
        "freq_cracked.csv": ["freq", "--beta", "1.0", "--eta", "1.0", "--crack-psi", "0.5",
                             "--crack-alpha", "0.4", "--modes", "5", "--format", "csv"],
        "freq.csv": ["freq", "--beta", "1.0", "--eta", "1.0", "--chirality",
                     "armchair", "--modes", "5", "--format", "csv"],
        "modeshape.csv": ["modeshape", "--beta", "1.0", "--eta", "1.0",
                          "--mode", "1", "--samples", "200", "--format", "csv"],
        # Mode 2 with the crack off its node: at beta/2 the shape is
        # antisymmetric and rounding decides the sign of its tied extrema.
        "modeshape_cracked.csv": ["modeshape", "--beta", "1.0", "--eta", "1.0",
                                  "--crack-psi", "0.5", "--crack-alpha", "0.3",
                                  "--mode", "2", "--samples", "200", "--format", "csv"],
        "validate.csv": ["validate", "--format", "csv"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical(self, name, tmp_path):
        out = tmp_path / name
        assert main(self.CASES[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


# Flag values at the edges of what each input admits, and past them: each
# value list is (admitted, refused), and a refused value is drawn one time in ten.
_TINY = ["0", "5e-324", "1e-300"]
_PAST = ["-5e-324", "-1e300", "1.7976931348623157e308", "nan", "inf", "-inf"]
_BETAS = (["1e-3", "0.05", "1", "3", "6.283185307179585", "6.283185307179586"],  # 2*pi - ulp
          [*_TINY, *_PAST, "6.283185307179587"])
_ETAS = ([*_TINY, "1", "4", "1e300"], _PAST)
_PSIS = (["5e-324", "0.3", "0.999999", "0.9999999999999999"], ["1", "nan", "-0.1"])
_LENGTHS_NM = (["1e-30", "0.5", "5", "1e20"], ["1e-81", "1e-80", "1e87", "1e200", "nan", "-1"])
_SEARCH = {
    "k-min": (["0", "5e-324", "1e-6", "1", "1e20", "1e300"], ["1.7976931348623157e308", "nan"]),
    "k-max": (["2e-6", "1e3", "1e300", "4e307", "1.7976931348623157e308"], ["inf", "-1"]),
    "grid-points": (["16", "17", "300"], ["15"]),
    "refine-tol": (["1e-300", "9.99e-4"], ["0"]),
    "modes": (["1", "3", "12"], ["0"]),
}
# Each failed once with a traceback or a numpy warning: a tube whose I, E*I
# or mu*R^4 overflows or underflows, a range near the largest float at
# eta = 0, whose uniform grid nodes i*span/(points - 1) overflowed, one at
# eta = 5e-324, where the crack term theta_c*mu1*mu2 overflowed, and two at
# k-min = 0 and an eta whose 4*eta overflows, where N(0) was 0*inf, a NaN.
_KNOWN = [
    (["freq", "--radius-nm", "1e87", "--chirality", "armchair"], None),
    (["freq", "--eta-nm2", "1", "--radius-nm", "1e200", "--chirality", "armchair"], None),
    (["sweep", "--param", "radius", "--from", "1e100", "--to", "1e300", "--steps", "2",
      "--chirality", "armchair"], None),
    (["sweep", "--param", "beta", "--steps", "2", "--radius-nm", "1e300",
      "--chirality", "armchair"], None),
    (["freq", "--radius-nm", "1e-80", "--diameter-nm", "1e-81", "--chirality", "armchair"],
     None),
    (["freq", "--beta", "1", "--eta", "0", "--crack-psi", "0.3"],
     {"k-min": "1e300", "k-max": "4e307"}),
    (["freq", "--beta", "6.2831853", "--eta", "0", "--crack-psi", "0.999999",
      "--crack-alpha", "0.9"], {"k-min": "1e20", "k-max": "4e307", "grid-points": "16"}),
    (["freq", "--beta", "6.283185307179585", "--eta", "5e-324", "--crack-psi",
      "0.9999999999999999", "--crack-alpha", "3.1415926535897927"],
     {"k-min": "1e300", "k-max": "4e307"}),
    (["freq", "--beta", "1", "--eta", "1e308"], {"k-min": "0"}),
    (["freq", "--beta", "0.05", "--eta", "1.7976931348623157e308"],
     {"k-min": "0", "k-max": "1.7976931348623157e308", "modes": "1"}),
]


def robustness_requests(seed: int, count: int) -> list:
    """``count`` seeded (argv, [search] settings or None) requests of extreme values."""
    rng = random.Random(seed)

    def pick(values):
        admitted, refused = values
        return rng.choice(refused if rng.random() < 0.1 else admitted)

    def some(argv, flag, values, p=0.5):
        if rng.random() < p:
            argv += [flag, pick(values)]

    requests = []
    for _ in range(count):
        command = rng.choice(["freq", "freq", "sweep", "modeshape", "validate"])
        argv, search = [command], None
        if command == "validate":
            some(argv, "--beta", (["1e-3", "0.05", "0.5"], ["0.50001", *_TINY, *_PAST]), 0.8)
        else:
            beta = pick(_BETAS)
            argv += ["--beta", beta, "--eta" if rng.random() < 0.8 else "--eta-nm2", pick(_ETAS)]
            if rng.random() < 0.6:
                argv += ["--crack-psi", pick(_PSIS)]
                b = float(beta)
                near = [repr(b * f) for f in (2e-9, 0.3, 0.5, 1 - 2e-9)]
                some(argv, "--crack-alpha", (near, ["5e-324", "nan", "inf", "-1"]), 0.7)
            classes = ["armchair", "zigzag", "chiral"]
            some(argv, "--chirality", (classes + ["all"] * (command == "sweep"), ["bogus"]))
            some(argv, "--radius-nm", _LENGTHS_NM, 0.3)
            if command != "sweep":
                some(argv, "--diameter-nm", _LENGTHS_NM, 0.2)
            if command != "sweep" and rng.random() < 0.5:
                search = {key: pick(values) for key, values in _SEARCH.items()
                          if rng.random() < 0.5}
        if command == "sweep":
            param = rng.choice(["beta", "eta", "radius"])
            ends = {"beta": _BETAS, "eta": _ETAS, "radius": _LENGTHS_NM}[param]
            argv += ["--param", param, "--steps", pick((["2", "3"], ["1"]))]
            some(argv, "--from", ends, 0.7)
            some(argv, "--to", ends, 0.7)
            some(argv, "--modes", (["1", "2"], ["0"]), 0.3)
        if command == "modeshape":
            argv += ["--samples", pick((["2", "3", "5"], ["1"]))]
            some(argv, "--mode", (["1", "2", "5"], ["0"]))
        some(argv, "--format", (["table", "csv", "json"], ["xml"]), 0.3)
        requests.append((argv, search))
    return requests


class TestRobustness:
    """Seeded extreme requests: each answers with an exit code, never a traceback."""

    def test_extreme_requests_fail_in_one_line(self, capsys, tmp_path):
        failures = []
        for i, (argv, search) in enumerate(_KNOWN + robustness_requests(30, 400)):
            if search is not None:
                config = tmp_path / f"{i}.ini"
                config.write_text("[search]\n" + "".join(f"{k} = {v}\n" for k, v in search.items()))
                argv = [*argv, "--config", str(config)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except Exception as exc:  # noqa: BLE001 - a traceback is the failure
                    code = f"{type(exc).__name__}: {exc}"
            lines = capsys.readouterr().err.splitlines()
            if code not in (0, 1, 2) or len(lines) != (0 if code == 0 else 1) or caught:
                failures.append((argv, search, code, lines[:3], [str(w.message) for w in caught]))
        assert not failures, f"{len(failures)} requests failed, first: {failures[:3]}"
