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

from arch_resonance import ArchProblem, DoubleRoot, UsageError, cli, solver, sweep
from arch_resonance import uncracked_K_closed_form
from arch_resonance.cli import load_presets, main, parse

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(cli.__file__).resolve().parents[1]


class TestParse:
    def test_freq_flags(self):
        command, settings = parse(["freq", "--beta", "1.0", "--eta", "1.0", "--modes", "3"])
        assert command == "freq"
        assert settings["beta"] == 1.0
        assert settings["eta"] == 1.0
        assert settings["modes"] == 3
        assert settings["format"] == "table"

    def test_sweep_flags(self):
        command, settings = parse(
            ["sweep", "--param", "eta", "--from", "0", "--to", "4", "--steps", "41",
             "--out", "fig4.csv"]
        )
        assert command == "sweep"
        assert settings["param"] == "eta"
        assert settings["from_"] == 0.0
        assert settings["to"] == 4.0
        assert settings["steps"] == 41
        assert settings["out"] == "fig4.csv"
        assert settings["format"] == "csv"

    def test_every_setting_of_the_command(self):
        # Each of the command's settings, config entries alone included, by dest.
        command, settings = parse(["modeshape", "--beta", "1"])
        assert list(settings) == [f.dest for f in cli._FLAGS["modeshape"][1]]
        assert (settings["beta"], settings["mode"], settings["samples"]) == (1.0, 1, 201)
        assert settings["kappa0"] is None and settings["config"] is None

    def test_unknown_flag_named(self):
        with pytest.raises(UsageError, match="--bogus"):
            parse(["freq", "--bogus", "1"])

    def test_help_and_version_exit_zero(self):
        assert main(["--help"]) == 0
        assert main(["--version"]) == 0
        assert main(["freq", "--help"]) == 0

    def test_missing_command(self):
        assert main([]) == 2


def build_parser():
    """An argparse parser built from ``cli._FLAGS``: the reference ``parse`` is checked
    against. A bounded flag's type refuses a value outside its bounds."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # noqa: A003 - argparse API
            raise UsageError(message)

    def typed(flag):
        if not flag.bounds:
            return flag.type

        def bounded(raw):
            value = flag.type(raw)
            if not flag.bounds[0] <= value <= flag.bounds[1]:
                raise argparse.ArgumentTypeError(f"{value} is outside %d to %d" % flag.bounds)
            return value

        bounded.__name__ = flag.type.__name__  # argparse names it in a bad value's message
        return bounded

    parser = _Parser(prog="arch-resonance")
    parser.add_argument("--version", action="version", version=f"%(prog)s {cli.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in cli._FLAGS.items():
        command_parser = sub.add_parser(command, help=summary)
        for f in cli._BY_NAME[command].values():  # a config entry alone has no flag
            command_parser.add_argument(f.name, dest=f.dest, type=typed(f), default=f.default,
                                        choices=f.choices, help=f.help)
    return parser


def _reference(args: list[str]) -> dict[str, object]:
    """The reference's namespace, with None for each setting that has no flag."""
    read = vars(build_parser().parse_args(args))
    return {f.dest: None for f in cli._FLAGS[read["command"]][1]} | read


def _namespace(args: list[str]) -> dict[str, object]:
    """What ``parse`` reads, in the reference's namespace layout. Only the flags are
    compared, so a ``--config`` file is read as an empty one."""
    with mock.patch.object(cli, "_read_ini", return_value={}):
        command, settings = parse(args)
    return {"command": command, **settings}


class TestParseManyRequests:
    """One process parses many argument vectors."""

    def test_default_returns_after_explicit_value(self):
        assert parse(["modeshape", "--mode", "3"])[1]["mode"] == 3
        assert parse(["modeshape"])[1]["mode"] == 1
        assert _namespace(["modeshape"]) == _reference(["modeshape"])

    def test_eta_flags_in_turn(self, capsys):
        assert parse(["freq", "--eta", "1.5"])[1]["eta"] == 1.5
        settings = parse(["freq", "--eta-nm2", "0.5"])[1]
        assert settings["eta_nm2"] == 0.5 and settings["eta"] is None
        assert main(["freq", "--eta", "1", "--eta-nm2", "0.5"]) == 2
        assert capsys.readouterr().err == "usage error: --eta and --eta-nm2 are mutually exclusive\n"
        assert parse(["freq", "--eta", "2"])[1]["eta"] == 2.0

    def test_usage_error_then_valid_argv(self):
        with pytest.raises(UsageError, match="--bogus"):
            parse(["freq", "--bogus", "1"])
        argv = ["sweep", "--param", "radius", "--steps", "2", "--chirality", "zigzag"]
        assert _namespace(argv) == _reference(argv)

    def test_version_exits_zero_between_requests(self, capsys):
        parse(["freq", "--beta", "1"])
        with pytest.raises(SystemExit) as exc:
            parse(["--version"])
        assert exc.value.code == 0
        assert main(["--version"]) == 0
        assert parse(["validate"])[0] == "validate"


class TestDispatch:
    """The first word is the command, or the program's help or version."""

    @pytest.mark.parametrize("command", ["freq", "sweep", "modeshape", "validate"])
    def test_command_help_is_its_usage(self, command, capsys):
        assert main([command, "--help"]) == 0
        help_ = capsys.readouterr().out
        assert help_.startswith(f"usage: arch-resonance {command} ")
        # Every flag is listed, with its bounds where it has them.
        assert all(f"  {name} " in help_ for name in cli._BY_NAME[command])
        for f in cli._BY_NAME[command].values():
            assert (f.bounds is None) or "%d to %d" % f.bounds in help_

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["freq", "-h"], ["freq", "--hel"]])
    def test_help_and_its_abbreviations(self, argv, capsys):
        assert main(argv) == 0
        command = argv[0] if argv[0] in cli._FLAGS else None
        assert capsys.readouterr().out == cli._help(command)

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"arch-resonance {cli.__version__}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["--beta", "1", "freq"], "argument command: invalid choice: '--beta'"),
            (["--format", "csv", "freq"], "argument command: invalid choice: '--format'"),
            (["--help=1"], "argument command: invalid choice: '--help=1'"),
            (["--hel"], "argument command: invalid choice: '--hel'"),
        ],
    )
    def test_no_command_is_one_usage_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["freq", "--bogus"], "unrecognized arguments: --bogus"),
            (["freq", "--", "--beta", "1"], "unrecognized arguments: --"),
            (["freq", "--beta", "1", "2"], "unrecognized arguments: 2"),
            (["freq", "--e", "1"], "ambiguous option: --e could match --eta, --eta-nm2"),
            (["freq", "--beta"], "argument --beta: expected one argument"),
            (["freq", "--bet=x"], "argument --beta: invalid float value: 'x'"),
            (["freq", "--modes", "1.5"], "argument --modes: invalid int value: '1.5'"),
            (["freq", "--help=1"], "unrecognized arguments: --help=1"),
        ],
    )
    def test_bad_flag_is_one_usage_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_repeated_flag_last_value_wins(self):
        assert parse(["freq", "--beta", "1", "--bet=2", "--beta", "3"])[1]["beta"] == 3.0


def _equals_form(args: list[str]) -> list[str]:
    """A vector with each flag of its command, named in full or by a unique prefix,
    joined to the word after it: ``--beta=-1e-3`` for ``--beta -1e-3``."""
    flags = cli._BY_NAME.get(args[0], {}) if args else {}
    names = [*flags, "--help"]
    joined, i = args[:1], 1
    while i < len(args):
        word = args[i]
        found = [word] if word in names else [n for n in names if n.startswith(word)]
        if word.startswith("--") and len(found) == 1 and found[0] in flags and i + 1 < len(args):
            joined.append(f"{word}={args[i + 1]}")
            i += 2
        else:
            joined.append(word)
            i += 1
    return joined


def _outcome(parse_with, args: list[str]) -> tuple[str, str]:
    """What a parse returns or raises, and what it prints."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        try:
            result = repr(sorted(parse_with(args).items()))  # repr: a NaN value equals itself
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
        st.sampled_from(["-1", "-1.5", "1.5", "0x1", "1_0", " 7", "x", "", "100001", "1000001"]),
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
    """``parse`` reads every vector from the flag table; argparse, built from the same
    table, is the reference."""

    @settings(max_examples=400)
    @given(_vectors())
    @example(["freq", "--beta", "-1e-3"])
    @example(["freq", "--beta", "-1e-3", "--format", "xml"])
    @example(["freq", "--bet", "-1e-3"])
    @example(["freq", "--beta", "-x"])
    @example(["freq", "--out", "-x"])
    @example(["freq", "--out", "--"])
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
    @example(["modeshape", "--mode", "100001"])
    @example(["modeshape", "--sam=1"])
    @example(["validate", "-h"])
    @example(["validate", "--beta"])
    @example(["validate", "1"])
    def test_one_reader(self, args):
        read = _outcome(_namespace, args)
        # 1. What argparse accepts in the all-= form, and only that, parse reads
        # alike. A vector with a "--" word, in a flag's place or a value's, is
        # left out: argparse's reading of "--" has changed between Python
        # versions, while parse refuses it as a flag (TestDispatch) and takes it
        # as a value.
        reference = _outcome(_reference, _equals_form(args))
        if "--" not in args:
            if reference[0].startswith("["):
                assert read[0] == reference[0]
            else:
                assert not read[0].startswith("[")
        # 2 and 3. main exits 0 or 2, never with a traceback, and an exit 2 writes
        # one line. run is stubbed out: only the reader is under test here.
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "run", return_value=0), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 2)
        if code == 2:
            assert (out.getvalue(), err.getvalue().count("\n")) == ("", 1)
        else:
            assert err.getvalue() == ""
        # 4. A vector reads the same in its --flag value and --flag=value forms.
        assert read == _outcome(_namespace, _equals_form(args))

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f.name) for c, flags in cli._BY_NAME.items() for f in flags.values() if f.type is not str],
    )
    def test_negative_number_is_a_value(self, command, flag):
        # A number below 0 reaches its own check, as any other number does, as
        # argparse reads --flag=value.
        value = "-1e-3" if cli._BY_NAME[command][flag].type is float else "-2"
        expected = _outcome(_reference, [command, f"{flag}={value}"])
        assert _outcome(_namespace, [command, flag, value]) == expected

    def test_negative_angle_is_a_range_error(self, capsys):
        assert main(["freq", "--beta", "-1e-3"]) == 2
        assert capsys.readouterr().err == "usage error: central angle must lie in [0.001, 2*pi]\n"

    def test_negative_number_is_a_value_beside_a_bad_choice(self, capsys):
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

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--chirality", "zigzag"], ""),
            (["--chirality", "Zigzag"], ""),
            ([], "[geometry]\nchirality = zigzag\n"),
        ],
    )
    def test_chirality_contradicting_the_indices(self, argv, config, capsys, tmp_path):
        # (6, 6) is an armchair tube; the named class was once ignored beside it.
        path = tmp_path / "c.ini"
        path.write_text(config)
        request = ["freq", "--n", "6", "--m", "6", *argv, "--beta", "1", "--eta", "1"]
        assert main([*request, "--config", str(path)]) == 2
        # The class is read in any case, as the flag table reads it: lowercased.
        assert capsys.readouterr() == ("", "usage error: --chirality zigzag contradicts "
                                          "--n 6 --m 6 (armchair)\n")

    def test_chirality_agreeing_with_the_indices(self, capsys):
        request = ["freq", "--n", "6", "--m", "6", "--beta", "1", "--eta", "1", "--format", "json"]
        assert main(request) == 0
        alone = capsys.readouterr().out
        assert json.loads(alone)["problem"]["chirality"] == "armchair"
        assert main([*request, "--chirality", "armchair"]) == 0
        assert capsys.readouterr().out == alone

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


# A refused and an admitted value of each flag with a config entry, and the flags
# the admitted one needs beside it; a path is refused by no check of its own.
_KEYED = {
    "--beta": ("x", "2", []),
    "--eta": ("-", "0.5", []),
    "--eta-nm2": ("1e", "1", ["--chirality", "armchair"]),
    "--radius-nm": ("x", "5", ["--chirality", "armchair"]),
    "--diameter-nm": ("", "0.8", ["--chirality", "zigzag"]),
    "--n": ("1.5", "6", ["--m", "6"]),
    "--m": ("x", "6", ["--n", "6"]),
    "--chirality": ("bogus", "ZigZag", []),
    "--crack-alpha": ("x", "0.3", ["--crack-psi", "0.3"]),
    "--crack-psi": ("x", "0.3", []),
    "--crack-model": ("foo", "power-law", ["--crack-psi", "0.3"]),
    "--presets": (None, "shipped.ini", ["--chirality", "chiral"]),
    "--modes": ("0", "2", []),
}
_BASE = {"freq": ["freq"], "sweep": ["sweep", "--param", "beta", "--steps", "2"],
         "modeshape": ["modeshape", "--samples", "5"]}


class TestKeyedSettings:
    """A config entry is read as its flag is: one type, choice and bound check."""

    @staticmethod
    def _answer(argv, capsys) -> tuple[int, str, str]:
        code = main(argv)
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c, (_, flags) in cli._FLAGS.items() for f in flags if f.name and f.key],
        ids=lambda x: x if isinstance(x, str) else x.name,
    )
    def test_flag_and_config_entry_read_alike(self, command, flag, capsys, tmp_path):
        refused, admitted, beside = _KEYED[flag.name]
        config = tmp_path / "c.ini"
        (tmp_path / "shipped.ini").write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v!r}\n" for k, v in entry.items())
            for name, entry in load_presets().items()))
        where = "config [%s] %s" % flag.key
        if refused is not None:
            code, out, err = self._answer([*_BASE[command], flag.name, refused], capsys)
            prefix = f"usage error: argument {flag.name}: "
            assert (code, out) == (2, "") and err.startswith(prefix)
            config.write_text(f"[{flag.key[0]}]\n{flag.key[1]} = {refused}\n")
            assert self._answer([*_BASE[command], "--config", str(config)], capsys) == (
                2, "", f"usage error: {where}: {err[len(prefix):]}")
        admitted = str(tmp_path / admitted) if flag.name == "--presets" else admitted
        by_flag = self._answer([*_BASE[command], *beside, flag.name, admitted], capsys)
        config.write_text(f"[{flag.key[0]}]\n{flag.key[1]} = {admitted}\n")
        by_key = self._answer([*_BASE[command], *beside, "--config", str(config)], capsys)
        assert by_key == by_flag
        assert by_flag[0] == (2 if command == "sweep" and flag.name in ("--diameter-nm", "--n",
                                                                         "--m") else 0)

    @pytest.mark.parametrize(
        "argv, config, err",
        [
            # Once "config [crack] crack-psi: bad value 'x'", a key the file does not have.
            (["freq"], "[crack]\npsi = x\n", "config [crack] psi: invalid float value: 'x'"),
            (["freq"], "[crack]\nkappa0 = x\n", "config [crack] kappa0: invalid float value: 'x'"),
            (["freq", "--crack-psi", "0.3"], "[crack]\nmodel = polynomial\ncoefficients = []\n",
             "config [crack] coefficients: invalid float list value: '[]'"),
            (["freq", "--crack-psi", "0.3"], "[crack]\nmodel = polynomial\n",
             "polynomial model needs at least one coefficient"),
            (["modeshape"], "[search]\ngrid-points = 1.5\n",
             "config [search] grid-points: invalid int value: '1.5'"),
            (["freq"], "[geometry]\nchirality = all\n", "config [geometry] chirality: invalid "
             "choice: 'all' (choose from 'armchair', 'zigzag', 'chiral')"),
            # A bad value is refused also where the request would not use it.
            (["freq", "--crack-model", "foo"], "", "argument --crack-model: invalid choice: "
             "'foo' (choose from 'power-law', 'polynomial')"),
            (["freq", "--chirality", "all"], "", "argument --chirality: invalid choice: "
             "'all' (choose from 'armchair', 'zigzag', 'chiral')"),
            # A polynomial's sign is checked at the depth asked: here past 0.95.
            (["freq", "--crack-psi", "0.99"], "[crack]\nmodel = polynomial\n"
             "coefficients = [0, 1, -1.04]\n", "compliance is negative at psi=0.99"),
        ],
        ids=["psi", "kappa0", "coefficients", "no-coefficients", "grid-points", "chirality-all",
             "model-uncracked", "chirality-all-flag", "polynomial-negative"],
    )
    def test_bad_value_names_its_entry(self, argv, config, err, capsys, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(config)
        assert main([*argv, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"usage error: {err}\n")

    def test_polynomial_positive_at_the_depth_asked(self, capsys, tmp_path):
        # psi - 1.2 psi^2 is negative past psi = 0.83, and 0.2 at 0.5.
        path = tmp_path / "c.ini"
        path.write_text("[crack]\nmodel = polynomial\ncoefficients = [0, 1, -1.2]\n")
        assert main(["freq", "--crack-psi", "0.5", "--config", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problem"]["crack"]["theta_c"] == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize(
        "config, where",
        [
            ("[crack]\npis = 0.3\n", "[crack] pis"),
            ("[Search]\nmodes = 3\n", "[Search] modes"),
            ("[output]\nformat = json\n", "[output] format"),
            # configparser would copy a [DEFAULT] key into every section, and
            # into none in a file with no other section; here it is a section
            # like any other, whose keys no setting names.
            ("[DEFAULT]\npsi = 0.3\n", "[DEFAULT] psi"),
            ("[DEFAULT]\npsi = 0.3\n\n[crack]\nmodel = power-law\n", "[DEFAULT] psi"),
            ("[crack]\npsi = 0.3\nalpha = 0.5\n", "[crack] alpha"),
        ],
        ids=["misspelt", "section-case", "section", "default", "default-beside", "after-a-known"],
    )
    @pytest.mark.parametrize("command", ["freq", "sweep", "modeshape", "validate"])
    def test_unknown_key_is_refused(self, command, config, where, capsys, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(config)
        assert main([*_BASE.get(command, [command]), "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"usage error: config {where}: unknown key\n")


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


def _outside(flag: str, value: str, bounds: str = "1 to 100000") -> str:
    return f"usage error: argument {flag}: {value} is outside {bounds}\n"


class TestRequestBounds:
    """``solver.MAX_MODES``, ``solver.MAX_SAMPLES`` and ``sweep.MAX_STEPS``. Each
    request runs in a child whose address space is capped, so an unbounded one
    ends in MemoryError instead of taking the machine's memory."""

    HUGE = "99999999999999999999"
    # A config entry is read and checked as its flag is.
    BOUND_CONFIG = f"usage error: config [search] modes: {HUGE} is outside 1 to 100000\n"

    @staticmethod
    def _capped(statements: str, *args: str) -> subprocess.CompletedProcess:
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
            f"{statements}\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        env.pop("ARCH_RESONANCE_LOG", None)
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, timeout=60)

    def test_bounds_are_the_help_texts(self):
        assert (solver.MAX_MODES, solver.MAX_SAMPLES) == (10**5, 10**6)
        for command, flag in (("freq", "--modes"), ("sweep", "--modes"), ("modeshape", "--mode")):
            assert cli._BY_NAME[command][flag].bounds == (1, solver.MAX_MODES)
            assert f"  {flag} {flag[2:].upper()}" in cli._help(command)
            assert "; 1 to 100000\n" in cli._help(command)
        assert cli._BY_NAME["modeshape"]["--samples"].bounds == (2, solver.MAX_SAMPLES)
        assert "; 2 to 1000000\n" in cli._help("modeshape")
        assert sweep.MAX_STEPS == 10**5
        assert cli._BY_NAME["sweep"]["--steps"].bounds == (2, sweep.MAX_STEPS)
        assert "; 2 to 100000\n" in cli._help("sweep")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["freq", "--modes", HUGE], _outside("--modes", HUGE)),
            (["freq", "--modes", "100001"], _outside("--modes", "100001")),
            (["freq", "--modes", "0"], _outside("--modes", "0")),
            (["freq", "--crack-psi", "0.3", "--modes", HUGE], _outside("--modes", HUGE)),
            (["freq", "--config", "modes.ini"], BOUND_CONFIG),
            (["sweep", "--param", "beta", "--steps", "2", "--chirality", "armchair",
              "--config", "modes.ini"], BOUND_CONFIG),
            (["modeshape", "--mode", HUGE], _outside("--mode", HUGE)),
            (["modeshape", "--mode", "0"], _outside("--mode", "0")),
            (["sweep", "--param", "beta", "--steps", "2", "--chirality", "armchair",
              "--modes", HUGE], _outside("--modes", HUGE)),
            (["sweep", "--param", "beta", "--steps", "2", "--chirality", "armchair",
              "--modes", "0"], _outside("--modes", "0")),
            (["modeshape", "--samples", "2" + "0" * 20],
             _outside("--samples", "2" + "0" * 20, "2 to 1000000")),
            (["modeshape", "--samples", "1000001"], _outside("--samples", "1000001", "2 to 1000000")),
            (["modeshape", "--samples", "1"], _outside("--samples", "1", "2 to 1000000")),
            (["modeshape", "--crack-psi", "0.3", "--samples", HUGE],
             _outside("--samples", HUGE, "2 to 1000000")),
            (["sweep", "--param", "beta", "--steps", "100000000000", "--chirality", "armchair"],
             _outside("--steps", "100000000000", "2 to 100000")),
            (["sweep", "--param", "beta", "--steps", "100001", "--chirality", "armchair"],
             _outside("--steps", "100001", "2 to 100000")),
            (["sweep", "--param", "beta", "--steps", "1", "--chirality", "armchair"],
             _outside("--steps", "1", "2 to 100000")),
        ],
        ids=["freq", "freq-one-over", "freq-zero", "freq-cracked", "freq-config", "sweep-config",
             "modeshape-mode", "modeshape-mode-zero", "sweep", "sweep-zero", "modeshape-samples",
             "modeshape-one-over", "modeshape-one", "modeshape-cracked", "sweep-steps",
             "sweep-steps-one-over", "sweep-steps-one"],
    )
    def test_request_beyond_a_bound_is_a_usage_error(self, argv, err, tmp_path):
        config = tmp_path / "modes.ini"
        config.write_text(f"[search]\nmodes = {self.HUGE}\n")
        argv = [str(config) if a == config.name else a for a in argv]
        done = self._capped("from arch_resonance.cli import main\nsys.exit(main(sys.argv[1:]))",
                            *argv)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", err)

    def test_modes_key_below_its_bound(self, capsys, tmp_path):
        # freq and sweep refuse it as they refuse --modes 0; modeshape reads --mode
        # alone, so the key is no setting of its own.
        config = tmp_path / "modes.ini"
        config.write_text("[search]\nmodes = 0\n")
        for argv in (["freq"], ["sweep", "--param", "beta", "--steps", "2"]):
            assert main([*argv, "--config", str(config)]) == 2
            err = "usage error: config [search] modes: 0 is outside 1 to 100000\n"
            assert capsys.readouterr() == ("", err)
        argv = ["modeshape", "--samples", "5", "--config", str(config)]
        assert main(argv) == 0
        alone = capsys.readouterr()
        assert main(argv[:-2]) == 0
        assert capsys.readouterr() == alone

    def test_library_refuses_beyond_the_bounds(self):
        done = self._capped(
            "from arch_resonance import ArchProblem, SearchConfig, find_frequencies, mode_shape\n"
            "from arch_resonance.sweep import SweepSpec\n"
            "problem = ArchProblem(beta=1.0, eta_nd=1.0)\n"
            "root = find_frequencies(problem).roots[0]\n"
            "assert SearchConfig(max_modes=100000).max_modes == 100000\n"
            "for make in (lambda: SearchConfig(max_modes=10**20),\n"
            "             lambda: mode_shape(problem, root, 10**20),\n"
            "             lambda: SweepSpec('beta', 0.1, 3.0, 10**20, {}, eta_nd=1.0)):\n"
            "    try:\n"
            "        make()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == ("max_modes must be at most 100000\nsamples must be at most 1000000\n"
                               "a sweep takes at most 100000 steps\n")


class TestPresets:
    def test_shipped_presets_complete(self):
        table = load_presets()
        assert set(table) == {"armchair", "zigzag", "chiral"}
        for entry in table.values():
            assert entry["youngs_modulus_tpa"] > 0

    def test_readme_block_is_the_shipped_table(self, tmp_path):
        # README's Presets section shows the shipped table as a --presets file.
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Presets\n"):]
        block = section[section.index("```ini\n") + 7:section.index("```\n", 7)]
        path = tmp_path / "presets.ini"
        path.write_text(block)
        assert load_presets(str(path)) == load_presets()

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


# A sweep whose first rows are crack-outside, and one whose last are no-root:
# a blank (None) K first, and after solved rows.
CRACK_OUTSIDE_FIRST = ["sweep", "--param", "beta", "--from", "0.1", "--to", "3", "--steps", "4",
                       "--chirality", "armchair", "--crack-psi", "0.3", "--crack-alpha", "1.5"]
NO_ROOT_LAST = ["sweep", "--param", "eta", "--from", "0", "--to", "1e300", "--steps", "3",
                "--beta", "1", "--chirality", "chiral", "--crack-psi", "0.4", "--crack-alpha", "0.3"]


class TestJsonBytes:
    """``--format json`` prints what ``json.dumps(..., indent=2)`` of its own document does.

    The writer renders JSON without the json module, so these requests pin
    every command's JSON bytes to the stdlib's rendering.
    """

    CRACK = ["--crack-psi", "0.3", "--crack-alpha", "0.4"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--beta", "1", "--eta", "1"],
            ["freq", "--beta", "1", "--eta", "1", "--chirality", "armchair"],
            ["freq", "--beta", "1", "--eta", "1", *CRACK],
            ["sweep", "--param", "beta", "--steps", "2", "--chirality", "zigzag"],
            CRACK_OUTSIDE_FIRST,
            NO_ROOT_LAST,
            ["validate"],
            ["modeshape", "--beta", "1", "--eta", "1", "--samples", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", *CRACK, "--samples", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", "--mode", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", *CRACK, "--mode", "2"],
            ["modeshape", "--beta", "1", "--eta", "1", *CRACK, "--samples", "600"],
        ],
        ids=["freq", "freq-tube", "freq-cracked", "sweep", "sweep-crack-outside-first",
             "sweep-no-root-last", "validate", "modeshape-2", "modeshape-2-cracked", "modeshape",
             "modeshape-cracked", "modeshape-three-blocks"],
    )
    def test_stdlib_rendering(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_blanks_are_null(self, capsys):
        # freq without a tube has no omega_rad_s; a failed sweep point has no K.
        assert main(["freq", "--beta", "1", "--eta", "1", "--format", "json"]) == 0
        spectrum = json.loads(capsys.readouterr().out)["spectrum"]
        assert [row["omega_rad_s"] for row in spectrum] == [None] * 5
        for argv, notes in ((CRACK_OUTSIDE_FIRST, ["crack-outside"] * 2 + ["", ""]),
                            (NO_ROOT_LAST, ["", "no-root", "no-root"])):
            assert main(argv + ["--format", "json"]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert [row["note"] for row in rows] == notes
            assert [row["K"] is None for row in rows] == [bool(note) for note in notes]

    @pytest.mark.parametrize("fmt, sep", [("csv", ","), ("table", "\t")])
    def test_blanks_are_empty_cells(self, fmt, sep, capsys):
        for argv in (CRACK_OUTSIDE_FIRST, NO_ROOT_LAST):
            assert main(argv + ["--format", fmt]) == 0
            for line in capsys.readouterr().out.splitlines()[1:]:
                cells = line.split(sep)
                assert len(cells) == 11
                assert (cells[7:10] == ["", "", ""]) == bool(cells[10])


class TestStreaming:
    """Output is written as it is rendered, a block of rows at a time."""

    def test_header_is_written_before_the_last_point_is_solved(self, monkeypatch):
        written, seen = io.StringIO(), []
        original = solver.find_frequencies
        monkeypatch.setattr(solver, "find_frequencies",
                            lambda *args: seen.append(written.getvalue()) or original(*args))
        monkeypatch.setattr(sys, "stdout", written)
        assert main(["sweep", "--param", "beta", "--steps", "3", "--chirality", "armchair"]) == 0
        assert len(seen) == 3
        assert seen[-1] == "chirality,beta_rad,eta_nd,radius_m,alpha_rad,psi,mode,K,omega_nd," \
                           "omega_rad_s,note\n"

    @pytest.mark.parametrize(
        "argv, code",
        [(["freq", "--beta", "1", "--eta", "1", "--crack-psi", "0.3", "--config", "short.ini"], 1),
         (["sweep", "--param", "beta", "--from", "6", "--to", "7", "--steps", "2",
           "--chirality", "armchair"], 2)],
        ids=["freq-short-range", "sweep-bad-range"],
    )
    def test_a_request_that_fails_first_creates_no_file(self, argv, code, tmp_path, capsys):
        (tmp_path / "short.ini").write_text("[search]\nk-max = 10\n")
        argv = [str(tmp_path / a) if a.endswith(".ini") else a for a in argv]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == code
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_a_failure_partway_leaves_what_was_written(self, monkeypatch, tmp_path, capsys):
        # A failure while rows are written ends the request with one line and
        # exit 1; --out keeps the chunks written before it, here the header.
        original = solver.find_frequencies

        def fail_second(problem, cfg):
            if problem.beta > 1.0:
                raise DoubleRoot("a point failed")
            return original(problem, cfg)

        monkeypatch.setattr(solver, "find_frequencies", fail_second)
        out = tmp_path / "out.csv"
        argv = ["sweep", "--param", "beta", "--from", "1", "--to", "2", "--steps", "2",
                "--chirality", "armchair", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: a point failed\n"
        assert out.read_text().startswith("chirality,beta_rad,") and out.read_text().count("\n") == 1


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
