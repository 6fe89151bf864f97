"""What each entry point imports, and the package surface its lazy exports keep.

A module stays in ``sys.modules`` once any test has loaded it, so every
import check runs in a fresh interpreter and compares its ``sys.modules``
with that of a bare one.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arch_resonance
from arch_resonance import errors, kernel, model
from arch_resonance.cli import main

SRC = Path(arch_resonance.__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
MARKER = "--- sys.modules ---"

# The package's exports, by defining submodule; the submodule names are exported too.
EXPORTS = {
    "crack": (
        "DEFAULT_KAPPA0", "ComplianceModel", "PolynomialCompliance", "PowerLawCompliance",
        "compliance",
    ),
    "errors": (
        "DegenerateSegment", "DoubleRoot", "InvalidModel", "InvalidPreset", "InvalidSpec",
        "MissingPreset", "NoRootsInRange", "OutOfRange", "UsageError",
    ),
    "kernel": (),
    "model": (
        "ArchProblem", "ChiralityClass", "ChiralitySpec", "CrackJoint", "CrackSpec",
        "PhysicalTube", "classify_chirality", "nondimensionalize", "omega_from_K", "omega_nd",
        "resolve_preset", "tube_diameter", "uncracked_K_closed_form",
    ),
    "solver": ("Root", "SearchConfig", "Spectrum", "find_frequencies", "mode_shape"),
    "sweep": (
        "REFERENCE_TABLE", "SweepRow", "SweepSpec", "ValidationRow", "run_sweep",
        "validation_table",
    ),
}
ALL = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])

# Requests that reach every command, cracked and uncracked, freq in every format.
CRACKED = ["--beta", "1", "--eta", "1", "--crack-psi", "0.3"]
EVERY_COMMAND = [
    *(["freq", "--beta", "1", "--eta", "1", "--format", f] for f in ("table", "csv", "json")),
    *(["freq", *CRACKED, "--format", f] for f in ("table", "csv", "json")),
    ["sweep", "--param", "beta", "--steps", "3", "--chirality", "armchair", "--crack-psi", "0.3",
     "--crack-alpha", "0.05", "--modes", "1"],
    ["validate"],
    *(["modeshape", "--beta", "1", "--eta", "1", "--samples", "9", "--format", f] for f in ("csv", "json")),
    *(["modeshape", *CRACKED, "--samples", "9", "--format", f] for f in ("csv", "json")),
]


# Every request of EVERY_COMMAND in one fresh interpreter, at the default log
# level. Standard output is swapped by hand, so the harness loads no contextlib.
EVERY_REQUEST = (
    "import io, os, sys\n"
    "os.environ.pop('ARCH_RESONANCE_LOG', None)\n"
    "from arch_resonance.cli import main\n"
    f"for argv in {EVERY_COMMAND!r}:\n"
    "    sys.stdout = io.StringIO()\n"
    "    assert main(argv) == 0, argv\n"
    "sys.stdout = sys.__stdout__\n"
)


def run_fresh(statements: str, *options: str) -> set[str]:
    """Run ``statements`` in a fresh interpreter started with ``options``; the
    modules it has loaded after them."""
    code = f"{statements}\nimport sys\nprint({MARKER!r}, *sys.modules, sep='\\n')"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True,
        text=True,
        cwd=SRC,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.rpartition(MARKER + "\n")[2].split())


@pytest.fixture(scope="module")
def loaded_by():
    """Modules a fresh interpreter loads for ``statements`` beyond what it starts with."""
    bare = run_fresh("pass")
    return lambda statements: run_fresh(statements) - bare


class TestImportGraph:
    def test_package_loads_no_submodule(self, loaded_by):
        loaded = loaded_by("import arch_resonance")
        assert "numpy" not in loaded
        assert not {m for m in loaded if m.startswith("arch_resonance.")}

    def test_cli_loads_only_what_every_request_needs(self, loaded_by):
        loaded = loaded_by("import arch_resonance.cli")
        heavy = {"numpy", "json", "configparser"} | {
            f"arch_resonance.{m}" for m in ("solver", "kernel", "sweep", "crack")
        }
        assert not loaded & heavy

    def test_benchmark_setup_loads_neither_logging_nor_argparse(self, loaded_by):
        # perfbench's set-up statements: import, shipped presets, an uncracked solve.
        # The shipped presets are a literal, so no parser loads for them.
        loaded = loaded_by(
            "import arch_resonance\n"
            "from arch_resonance import cli, solver\n"
            "cli.load_presets()\n"
            "problem = arch_resonance.ArchProblem(beta=1.0, eta_nd=1.0)\n"
            "solver.find_frequencies(problem, solver.SearchConfig())"
        )
        assert {"arch_resonance.cli", "arch_resonance.solver"} <= loaded
        assert not loaded & {"logging", "argparse", "configparser"}

    def test_default_level_loads_no_logging(self, loaded_by):
        # Nothing logs at warn or above, so no request at the default level needs
        # logging, and the flag table reads every request.
        loaded = loaded_by(EVERY_REQUEST)
        assert {"arch_resonance.solver", "arch_resonance.sweep"} <= loaded
        assert not loaded & {"logging", "argparse"}

    def test_requests_load_no_startup_machinery(self):
        # Without site (python -S) no .pth hook of the interpreter's
        # site-packages loads modules first, so these are the program's own.
        # Annotations are strings, the shipped presets are a literal, each
        # solve keeps its own counts, the flag table reads every request and the
        # records are the package's own, not dataclasses with inspect.
        loaded = run_fresh(EVERY_REQUEST, "-S")
        assert {"arch_resonance.solver", "arch_resonance.sweep", "arch_resonance.kernel"} <= loaded
        unused = {"typing", "threading", "importlib.resources", "pathlib", "tempfile", "argparse",
                  "dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "configparser",
                  "contextlib"}
        assert not loaded & unused

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--beta", "1", "--eta", "1", "--format", "json"],
            ["sweep", "--param", "beta", "--steps", "3", "--chirality", "armchair", "--format", "json"],
            ["validate", "--format", "json"],
        ],
        ids=["freq", "sweep", "validate"],
    )
    def test_json_requests_load_neither_json_nor_re(self, argv):
        # Under python -S, as above: the CLI writes JSON itself, so neither the
        # json module nor the re it imports loads.
        loaded = run_fresh(
            "import io, os, sys\n"
            "os.environ.pop('ARCH_RESONANCE_LOG', None)\n"
            "from arch_resonance.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"code = main({argv!r})\n"
            "sys.stdout = sys.__stdout__\n"
            "assert code == 0\n",
            "-S",
        )
        assert "arch_resonance.cli" in loaded
        assert not loaded & {"json", "re"}

    @pytest.mark.parametrize(
        "argv, code",
        [(["freq", "--bogus"], 2), (["freq", "--beta=1", "--eta=1"], 0), (["freq", "--bet", "1"], 0),
         (["freq", "--help"], 0)],
        ids=["unknown-flag", "equals", "abbreviated", "help"],
    )
    def test_no_request_loads_argparse(self, argv, code):
        # Under python -S, as above: a bad request, the --flag=value form, an
        # abbreviation and a help are read from the flag table too.
        loaded = run_fresh(
            "import contextlib, io, os\n"
            "os.environ.pop('ARCH_RESONANCE_LOG', None)\n"
            "from arch_resonance.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({argv!r}) == {code}",
            "-S",
        )
        assert not loaded & {"argparse", "gettext"}

    def test_no_source_file_names_dataclasses(self):
        # The records come from arch_resonance._record alone.
        files = [p for p in (SRC / "arch_resonance").iterdir() if p.is_file()]
        assert not [p.name for p in files if b"dataclasses" in p.read_bytes()]

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
    def test_debug_level_loads_logging_and_logs(self, loaded_by, argv, tmp_path):
        err = tmp_path / "stderr.txt"
        loaded = loaded_by(
            "import contextlib, io, os\n"
            "os.environ['ARCH_RESONANCE_LOG'] = 'debug'\n"
            "from arch_resonance.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main({argv!r}) == 0\n"
            f"open({str(err)!r}, 'w').write(err.getvalue())"
        )
        assert "logging" in loaded
        lines = err.read_text().splitlines()
        if argv[0] == "validate":  # its rows are closed forms: nothing is solved or logged
            assert lines == []
            return
        assert any(line.startswith("DEBUG find_frequencies: ") for line in lines)
        assert all(line.startswith(("DEBUG ", f"INFO {argv[0]}: ")) for line in lines)
        assert any(line.startswith("INFO ") for line in lines) == (argv[0] in ("freq", "sweep"))

    def test_solver_logs_once_the_caller_imports_logging(self, loaded_by, tmp_path):
        # The solver finds logging when it logs, also if it was loaded first.
        err = tmp_path / "stderr.txt"
        loaded_by(
            "import contextlib, io\n"
            "from arch_resonance import ArchProblem, find_frequencies\n"
            "find_frequencies(ArchProblem(beta=1.0, eta_nd=1.0))\n"
            "import logging\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    logging.basicConfig(level=logging.DEBUG, format='%(name)s %(message)s')\n"
            "    find_frequencies(ArchProblem(beta=1.0, eta_nd=1.0))\n"
            f"open({str(err)!r}, 'w').write(err.getvalue())"
        )
        assert err.read_text() == (
            "arch_resonance.solver find_frequencies: 0 scan evaluations, "
            "0 refinement evaluations, 0 brackets refined\n"
        )

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], 0), (["--help"], 0), (["freq", "--bogus"], 2)],
        ids=["version", "help", "usage-error"],
    )
    def test_requests_answered_at_parse_time_skip_numpy(self, loaded_by, argv, code):
        loaded = loaded_by(f"from arch_resonance.cli import main\nassert main({argv!r}) == {code}")
        assert "numpy" not in loaded

    def test_uncracked_freq_loads_the_solver_alone(self, loaded_by):
        loaded = loaded_by(
            "from arch_resonance.cli import main\n"
            "assert main(['freq', '--beta', '1', '--eta', '1']) == 0"
        )
        assert "arch_resonance.solver" in loaded
        # It reads no user file, so neither configparser nor its re loads.
        unused = {"numpy", "arch_resonance.kernel", "arch_resonance.sweep", "arch_resonance.crack",
                  "json", "configparser", "re"}
        assert not loaded & unused

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--beta", "1", "--eta", "1", "--format", "json"],
            ["sweep", "--param", "beta", "--steps", "3", "--chirality", "all"],
            ["validate"],
        ],
        ids=["freq-json", "sweep", "validate"],
    )
    def test_uncracked_requests_skip_numpy(self, loaded_by, argv):
        loaded = loaded_by(f"from arch_resonance.cli import main\nassert main({argv!r}) == 0")
        assert "arch_resonance.solver" in loaded
        assert not loaded & {"numpy", "arch_resonance.kernel"}

    def test_kernel_alone_skips_numpy(self, loaded_by):
        loaded = loaded_by("import arch_resonance.kernel")
        assert "arch_resonance.kernel" in loaded
        assert "numpy" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["freq", "--beta", "1", "--eta", "1", "--crack-psi", "0.3"],
            ["sweep", "--param", "beta", "--steps", "3", "--chirality", "armchair",
             "--crack-psi", "0.3", "--crack-alpha", "0.05", "--modes", "1"],
            ["freq", "--beta", "1", "--eta", "1", "--crack-psi", "0.3", "--config", "kmin0.ini"],
        ],
        ids=["cracked-freq", "cracked-sweep", "cracked-freq-k-min-0"],
    )
    def test_cracked_searches_load_the_kernel_without_numpy(self, loaded_by, argv, tmp_path):
        # A k-min of 0 puts the scan's first node on the repeated root K = 0.
        config = tmp_path / "kmin0.ini"
        config.write_text("[search]\nk-min = 0\n")
        argv = [str(config) if a == config.name else a for a in argv]
        loaded = loaded_by(f"from arch_resonance.cli import main\nassert main({argv!r}) == 0")
        assert "arch_resonance.kernel" in loaded
        assert "numpy" not in loaded

    def test_cracked_modeshape_loads_the_kernel_without_numpy(self, loaded_by):
        # Its matching matrix, null vector and samples are floats.
        argv = ["modeshape", "--beta", "1", "--eta", "1", "--crack-psi", "0.3", "--samples", "5"]
        loaded = loaded_by(f"from arch_resonance.cli import main\nassert main({argv!r}) == 0")
        assert "arch_resonance.kernel" in loaded
        assert "numpy" not in loaded

    def test_uncracked_modeshape_skips_the_kernel(self, loaded_by):
        # Its shape is the closed-form sine, sampled on floats.
        loaded = loaded_by(
            "from arch_resonance.cli import main\n"
            "assert main(['modeshape', '--beta', '1', '--eta', '1', '--samples', '5']) == 0"
        )
        assert not loaded & {"numpy", "arch_resonance.kernel"}

    def test_every_command_runs_with_numpy_blocked(self, tmp_path, capsys):
        # A None in sys.modules makes every import of numpy fail. Each
        # request's output then equals a normal run's, byte for byte.
        outputs = tmp_path / "outputs.json"
        run_fresh(
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from arch_resonance.cli import main\n"
            "texts = []\n"
            f"for argv in {EVERY_COMMAND!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
            "        assert main(argv) == 0, argv\n"
            "    texts.append(text.getvalue())\n"
            f"open({str(outputs)!r}, 'w').write(json.dumps(texts))"
        )
        blocked = json.loads(outputs.read_text())
        assert len(blocked) == len(EVERY_COMMAND) == 12 and all(blocked)
        for argv, text in zip(EVERY_COMMAND, blocked):
            assert main(argv) == 0
            assert capsys.readouterr().out == text, argv

    def test_closed_form_export_skips_numpy(self, loaded_by):
        loaded = loaded_by(
            "from arch_resonance import uncracked_K_closed_form\n"
            "assert uncracked_K_closed_form(1, 1.0, 1.0) > 0"
        )
        assert not loaded & {"numpy", "arch_resonance.kernel"}

    def test_fresh_figure_sweep_writes_the_golden_without_numpy(self, loaded_by, tmp_path):
        out = tmp_path / "fig3.csv"
        argv = ["sweep", "--param", "beta", "--out", str(out)]
        loaded = loaded_by(f"from arch_resonance.cli import main\nassert main({argv!r}) == 0")
        assert "numpy" not in loaded
        assert out.read_bytes() == (GOLDEN / "fig3.csv").read_bytes()


class TestSurface:
    def test_all_is_unchanged(self):
        assert len(ALL) == 44
        assert sorted(arch_resonance.__all__) == ALL

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_modules_object(self, module):
        source = importlib.import_module(f"arch_resonance.{module}")
        assert getattr(arch_resonance, module) is source
        for name in EXPORTS[module]:
            assert getattr(arch_resonance, name) is getattr(source, name), name

    def test_star_import_binds_every_name(self):
        run_fresh(f"from arch_resonance import *\nassert not set({ALL!r}) - set(globals())")

    def test_dir_lists_every_name_before_any_is_loaded(self):
        loaded = run_fresh(
            f"import arch_resonance\nassert set({ALL!r}) <= set(dir(arch_resonance))"
        )
        assert "arch_resonance.kernel" not in loaded

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            arch_resonance.no_such_name  # noqa: B018
        assert not hasattr(arch_resonance, "no_such_name")

    def test_cli_imports_from_the_package(self):
        loaded = run_fresh("from arch_resonance import cli\nassert callable(cli.main)")
        assert "arch_resonance.cli" in loaded

    def test_segment_tol_is_defined_once(self):
        assert model.SEGMENT_TOL == 1e-9
        assert "SEGMENT_TOL" not in vars(kernel) and "SEGMENT_TOL" not in vars(errors)

    def test_closed_form_is_defined_once(self):
        assert arch_resonance.uncracked_K_closed_form is model.uncracked_K_closed_form
        assert "uncracked_K_closed_form" not in vars(kernel)
