"""Command line front end.

Four subcommands: ``freq`` (spectrum of one problem), ``sweep`` (parameter
sweeps as CSV), ``modeshape`` (sampled spatial mode), ``validate``
(near-straight table against published reference columns). Dimensioned inputs
are accepted in nm / TPa at this boundary and converted to SI internally.

One table, ``_FLAGS``, declares each command's settings: each flag, with its
type, choices and bounds, and the ``[section] key`` config entry it mirrors,
if any; a few settings are config entries alone. :func:`parse` reads every
request's flags from it, each help is rendered from it, and a config value is
read and checked as its flag's value is. A flag wins over its config entry.

Exit codes: 0 success; 1 runtime failure, which is fewer roots in the search
range than modes requested, a determinant dip among them or a range beyond
double precision, a mode shape of a double root, or unwritable output; 2
usage error, which is any bad flag or config value, a missing or malformed
config or presets file, or a bad value met while resolving the settings into
a problem or a sweep, reported in one line on standard error. The environment
variable ``ARCH_RESONANCE_LOG`` (error, warn, info, debug) controls
diagnostics on standard error.
"""

from __future__ import annotations

# Only what every request needs; the rest, logging too, is imported where used.
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from types import SimpleNamespace

from . import __version__, model
from ._record import record, replace
from .errors import DoubleRoot, InvalidPreset, InvalidSpec, MissingPreset, NoRootsInRange
from .errors import UsageError
from .model import _FMT, _fmt

_LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}  # logging's numbers

_SWEEP_DEFAULTS = {
    # parameter: (from, to, steps), the choices of --param; radius bounds are nm at this boundary
    "beta": (0.1, 3.0, 59),
    "eta": (0.0, 4.0, 41),
    "radius": (2.0, 20.0, 41),
}

# The shipped presets, one entry per chirality class, in the layout of a --presets
# file. They are documented placeholders, not measurements: a 1 TPa modulus and a
# 0.34 nm wall are the customary single-wall values, diameters follow from the
# roll-up indices, and mass per length is the graphite-density shell estimate
# rho * pi * d * h with rho = 2260 kg/m^3.
_PRESETS = {
    "armchair": {"youngs_modulus_tpa": 1.0, "n": 5.0, "m": 5.0, "wall_thickness_nm": 0.34,
                 "mass_per_length_kg_per_m": 1.6367e-15, "arch_radius_nm": 10.0},
    "zigzag": {"youngs_modulus_tpa": 1.0, "n": 10.0, "m": 0.0, "wall_thickness_nm": 0.34,
               "mass_per_length_kg_per_m": 1.8899e-15, "arch_radius_nm": 10.0},
    "chiral": {"youngs_modulus_tpa": 1.0, "n": 8.0, "m": 3.0, "wall_thickness_nm": 0.34,
               "mass_per_length_kg_per_m": 1.8613e-15, "arch_radius_nm": 10.0},
}


@record
class CliInvocation:
    command: str
    config_path: str | None
    overrides: dict[str, object]
    output_path: str | None
    format: str


_Flag = namedtuple("_Flag", "name help type default choices bounds dest key")


def _flag(name, help, type=str, default=None, choices=None, bounds=None, dest=None,
          key=None) -> _Flag:
    """A command's setting: a ``type`` value, within ``choices`` or inclusive ``bounds``
    where given, stored under ``dest``, by default the name's. ``key`` is the
    ``(section, name)`` config entry it mirrors; a setting with no flag ``name`` is
    that entry alone."""
    dest = dest or (name[2:] if name else key[1]).replace("-", "_")
    return _Flag(name, help, type, default, choices, bounds, dest, key)


def _float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated numbers, bracketed or not: ``[0, 1.5, 2.0]``."""
    return tuple(map(float, raw.strip().strip("[]").split(",")))


def _common(default_format: str) -> tuple[_Flag, ...]:
    return (_flag("--config", "sectioned key-value config file"),
            _flag("--out", "output path (default: standard output)"),
            _flag("--format", f"output format (default {default_format})", str, default_format,
                  ("table", "csv", "json")))


def _problem(classes: tuple[str, ...]) -> tuple[_Flag, ...]:
    """The settings of a command that solves problems; ``classes`` are its --chirality's."""
    return (
        _flag("--beta", "central angle in rad", float, key=("geometry", "beta")),
        _flag("--eta", "dimensionless nonlocal parameter", float, key=("nonlocal", "eta")),
        _flag("--eta-nm2", "physical nonlocal constant in nm^2", float,
              key=("nonlocal", "eta-nm2")),
        _flag("--radius-nm", "arch radius in nm", float, key=("geometry", "radius-nm")),
        _flag("--diameter-nm", "tube diameter in nm", float, key=("geometry", "diameter-nm")),
        _flag("--n", "roll-up index n (with --m derives diameter)", int, key=("geometry", "n")),
        _flag("--m", "roll-up index m", int, key=("geometry", "m")),
        _flag("--chirality", "chirality class, in any case", str.lower, choices=classes,
              key=("geometry", "chirality")),
        _flag("--crack-alpha", "crack position angle in rad", float, key=("crack", "alpha_rad")),
        _flag("--crack-psi", "crack depth ratio c/h in [0, 1)", float, key=("crack", "psi")),
        _flag("--crack-model", "compliance model (default power-law)",
              choices=("power-law", "polynomial"), key=("crack", "model")),
        _flag(None, None, float, key=("crack", "kappa0")),
        _flag(None, None, float, key=("crack", "scale")),
        _flag(None, None, _float_list, key=("crack", "coefficients")),
        _flag("--presets", "presets file path", key=("material", "presets")),
    )


_CLASSES = tuple(c.value for c in model.ChiralityClass)
_MODES = (1, 100000)  # solver.MAX_MODES, which the library keeps too
_SEARCH = tuple(_flag(None, None, type, key=("search", name))
                for name, type in (("k-min", float), ("k-max", float), ("grid-points", int),
                                   ("refine-tol", float)))

# The one declaration of each command's settings, in the order its help lists the flags.
_FLAGS = {
    "freq": ("natural frequency spectrum of one problem", (
        *_problem(_CLASSES),
        _flag("--modes", "number of modes (default 5)", int, bounds=_MODES,
              key=("search", "modes")),
        *_SEARCH, *_common("table"))),
    "sweep": ("parameter sweep emitting tabular data", (
        *_problem((*_CLASSES, "all")),
        _flag("--modes", "mode index to report (default 1)", int, bounds=_MODES,
              key=("search", "modes")),
        _flag("--param", "swept parameter", choices=tuple(_SWEEP_DEFAULTS)),
        _flag("--from", "sweep start", float, dest="from_"),
        _flag("--to", "sweep end", float),
        _flag("--steps", "number of grid points", int), *_common("csv"))),
    "modeshape": ("sampled spatial mode shape", (
        *_problem(_CLASSES), _flag("--mode", "mode index (default 1)", int, 1, bounds=_MODES),
        _flag("--samples", "sample count (default 201)", int, 201, bounds=(2, 1000000)),
        *_SEARCH, *_common("csv"))),
    "validate": ("near-straight limit against published reference values", (
        _flag("--beta", "small central angle in rad (default 0.05)", float), *_common("table"))),
}
_BY_NAME = {command: {f.name: f for f in flags if f.name} for command, (_, flags) in _FLAGS.items()}
_DEFAULTS = {command: {f.dest: f.default for f in flags.values()}
             for command, flags in _BY_NAME.items()}
_HELP = ("-h", "--help")


def _help(command: str | None) -> str:
    """The help of ``command``, or of the program for None, rendered from the flag table."""
    if command is None:
        usage = "[-h] [--version] {%s} ..." % ",".join(_FLAGS)
        about = "Exit codes: 0 success, 1 runtime failure, 2 usage error."
        rows = [(name, summary) for name, (summary, _) in _FLAGS.items()]
        rows.append(("--version", "print the version and exit"))
    else:
        usage = f"{command} [-h] [--flag VALUE | --flag=VALUE] ..."
        about = _FLAGS[command][0]
        rows = [(f"{f.name} " + ("{%s}" % ",".join(f.choices) if f.choices else f.name[2:].upper()),
                 f.help + ("; %d to %d" % f.bounds if f.bounds else ""))
                for f in _BY_NAME[command].values()]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"usage: arch-resonance {usage}", "", about, ""]
    return "\n".join(lines + [f"  {left:<{width}}{right}" for left, right in rows]) + "\n"


def _named(word: str, names) -> tuple[str | None, str | None]:
    """The one of ``names`` that a ``--name`` or ``--name=value`` word names, in full or
    by a unique prefix, and the value after its '=' (None without one); None for a word
    that names none of them."""
    name, equals, value = word.partition("=")
    if name not in names:
        long = name.startswith("--") and name != "--"
        found = [n for n in names if n.startswith(name)] if long else []
        if len(found) > 1:
            raise UsageError(f"ambiguous option: {word} could match {', '.join(found)}")
        name = found[0] if found else None
    return name, value if equals else None


def _value(flag: _Flag, raw: str, where: str):
    """``raw`` read as ``flag``'s value; a bad one is a UsageError that starts ``where``."""
    try:
        value = flag.type(raw)
    except ValueError:
        kind = flag.type.__name__.lstrip("_").replace("_", " ")
        raise UsageError(f"{where}: invalid {kind} value: {raw!r}") from None
    if flag.choices and value not in flag.choices:
        raise UsageError(f"{where}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, flag.choices))})")
    if flag.bounds and not flag.bounds[0] <= value <= flag.bounds[1]:
        raise UsageError("%s: %d is outside %d to %d" % (where, value, *flag.bounds))
    return value


def parse(args: list[str]) -> CliInvocation:
    """Read an argument vector into an invocation, from the flag table.

    The first word is the command, or ``-h``/``--help`` or ``--version``, which
    print and exit via SystemExit(0). Each later word is a flag, in full or by a
    unique prefix, with its value after ``=`` or as the next word, whatever that
    is; a repeated flag's last value wins. Anything else raises UsageError.
    """
    command = args[0] if args else None
    if command not in _FLAGS:
        if not args:
            raise UsageError("the following arguments are required: command")
        if command not in ("-h", "--help", "--version"):
            raise UsageError(f"argument command: invalid choice: {command!r} "
                             f"(choose from {', '.join(map(repr, _FLAGS))})")
        sys.stdout.write(f"arch-resonance {__version__}\n" if command == "--version" else _help(None))
        raise SystemExit(0)
    flags = _BY_NAME[command]
    overrides = dict(_DEFAULTS[command])
    words = iter(args[1:])
    for word in words:
        flag, raw = flags.get(word), None
        if flag is None:
            name, raw = _named(word, (*flags, *_HELP))
            if name in _HELP and raw is None:
                sys.stdout.write(_help(command))
                raise SystemExit(0)
            if name is None or name in _HELP:
                raise UsageError(f"unrecognized arguments: {word}")
            flag = flags[name]
        if raw is None:
            raw = next(words, None)
            if raw is None:
                raise UsageError(f"argument {flag.name}: expected one argument")
        overrides[flag.dest] = _value(flag, raw, f"argument {flag.name}")
    return CliInvocation(
        command=command,
        config_path=overrides.pop("config"),
        output_path=overrides.pop("out"),
        format=overrides.pop("format"),
        overrides=overrides,
    )


# --------------------------------------------------------------------------
# Config and presets files


def _read_ini(path: str, kind: str) -> dict[str, dict[str, str]]:
    """A UTF-8 config or presets file as plain dicts.

    Values are interpolated here, so a file that is missing, unreadable or
    malformed is a :class:`UsageError` naming it as given, in one line.
    """
    import configparser

    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        return {section: dict(cp[section]) for section in cp.sections()}
    except FileNotFoundError:
        raise UsageError(f"{kind} file not found: {path}") from None
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        reason = "; ".join(str(exc).splitlines())
        raise UsageError(f"cannot read {kind} file {path}: {reason}") from None


def _settings(inv: CliInvocation) -> dict[str, object]:
    """Each setting of the request, by ``dest``: its flag's value if given, else its
    config entry's, read as the flag's would be, else None."""
    flags = _FLAGS[inv.command][1]
    settings = {flag.dest: None for flag in flags} | inv.overrides
    if inv.config_path is not None:
        config = _read_ini(inv.config_path, "config")
        for flag in flags:
            raw = config.get(flag.key[0], {}).get(flag.key[1]) if flag.key else None
            if raw is not None and settings[flag.dest] is None:
                settings[flag.dest] = _value(flag, raw, "config [%s] %s" % flag.key)
    return settings


def load_presets(path: str | None = None) -> dict[str, dict[str, float]]:
    """Parse a presets file (shipped defaults when ``path`` is None).

    Grammar: INI sections named after the chirality class, keys
    ``youngs_modulus_tpa``, ``wall_thickness_nm``, ``mass_per_length_kg_per_m``,
    ``arch_radius_nm`` and either ``diameter_nm`` or ``n``/``m`` (plus
    optional ``bond_length_nm``). All values numeric. A ``path`` is read on
    every call; each call returns a fresh table.
    """
    if path is None:
        return {name: dict(entry) for name, entry in _PRESETS.items()}
    table: dict[str, dict[str, float]] = {}
    for section, raw_entry in _read_ini(path, "presets").items():
        entry = {}
        for key, raw in raw_entry.items():
            try:
                entry[key] = float(raw)
            except ValueError:
                raise InvalidPreset(
                    f"presets [{section}] {key} is not numeric: {raw!r}"
                ) from None
        table[section.lower()] = entry
    return table


def _resolve_compliance_model(s: dict) -> crack_models.ComplianceModel:
    from . import crack as crack_models

    if s["crack_model"] == "polynomial":
        coefficients = s["coefficients"] or ()  # none is the constructor's error
        return crack_models.PolynomialCompliance(coefficients, **_given(scale=s["scale"]))
    return crack_models.PowerLawCompliance(**_given(kappa0=s["kappa0"]))


def _resolve_chirality(s: dict) -> model.ChiralityClass | str | None:
    """The class ``--n/--m`` derive or ``--chirality`` names; given both, they must agree."""
    n, m, name = s["n"], s["m"], s["chirality"]
    if (n is None) != (m is None):
        raise UsageError("--n and --m must be given together")
    named = name if name in (None, "all") else model.ChiralityClass(name)
    derived = named if n is None else model.classify_chirality(model.ChiralitySpec(n, m))
    if named not in (None, derived):
        raise UsageError(f"--chirality {name} contradicts --n {n} --m {m} ({derived.value})")
    return derived


def _resolve_tube(s: dict, chirality, presets) -> model.PhysicalTube:
    """The class's tube from ``presets``, with the geometry flags applied.

    The one place ``--radius-nm``, ``--diameter-nm`` and ``--n/--m`` reach a
    tube, for every command.
    """
    tube = model.resolve_preset(chirality, presets)
    updates = {}
    if s["radius_nm"] is not None:
        updates["radius"] = s["radius_nm"] * 1e-9
    if s["diameter_nm"] is not None:
        updates["diameter"] = s["diameter_nm"] * 1e-9
    elif s["n"] is not None and s["m"] is not None:
        updates["diameter"] = model.tube_diameter(model.ChiralitySpec(s["n"], s["m"])) * 1e-9
    if updates:
        tube = replace(tube, **updates)
    return tube


def _given(**values) -> dict[str, object]:
    """The values that are set: the constructor they go to owns the defaults."""
    return {key: value for key, value in values.items() if value is not None}


@contextmanager
def _bad_input_is_usage_error():
    """Report invalid values met while resolving settings as a usage error."""
    try:
        yield
    except (ValueError, MissingPreset) as exc:
        raise UsageError(str(exc)) from None


def _resolve_inputs(s: dict):
    """Chirality and the keyword arguments of :func:`model.nondimensionalize`.

    Shared by every command that solves a problem: ``beta``, the nonlocal
    parameter as ``eta_nd`` or ``eta_physical`` (m^2), and the crack.
    """
    beta = 1.0 if s["beta"] is None else s["beta"]
    eta_nd, eta_nm2 = s["eta"], s["eta_nm2"]
    if eta_nd is not None and eta_nm2 is not None:
        raise UsageError("--eta and --eta-nm2 are mutually exclusive")
    if eta_nm2 is None and eta_nd is None:
        eta_nd = 1.0
    crack = None
    if s["crack_psi"]:
        alpha = 0.5 * beta if s["crack_alpha"] is None else s["crack_alpha"]
        crack = model.CrackSpec(alpha, s["crack_psi"], _resolve_compliance_model(s))
    inputs = dict(
        beta=beta,
        eta_nd=eta_nd,
        eta_physical=eta_nm2 * 1e-18 if eta_nm2 is not None else None,
        crack=crack,
    )
    return _resolve_chirality(s), inputs


def _resolve_problem(s: dict, modes: int | None):
    """Shared context resolution for freq and modeshape, whose search is for ``modes``.

    Returns (problem, tube, chirality, search config).
    """
    from . import solver

    with _bad_input_is_usage_error():
        chirality, inputs = _resolve_inputs(s)
        for flag in ("radius-nm", "diameter-nm") if chirality is None else ():
            if s[flag.replace("-", "_")] is not None:
                raise UsageError(f"--{flag} needs --chirality or --n/--m")
        presets = None if chirality is None else load_presets(s["presets"])
        tube = None if chirality is None else _resolve_tube(s, chirality, presets)
        problem = model.nondimensionalize(tube, **inputs)
        cfg = solver.SearchConfig(**_given(k_min=s["k_min"], k_max=s["k_max"],
                                           grid_points=s["grid_points"],
                                           refine_tol=s["refine_tol"], max_modes=modes))
    return problem, tube, chirality, cfg


# --------------------------------------------------------------------------
# Output helpers

def _json(doc) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _problem_echo(problem, tube, chirality) -> dict:
    crack = problem.crack
    return {
        "beta": problem.beta,
        "eta_nd": problem.eta_nd,
        "crack": None if crack is None else {"alpha_rad": crack.alpha, "theta_c": crack.theta_c},
        "chirality": chirality.value if chirality is not None else None,
        "radius_m": tube.radius if tube is not None else None,
    }


def _spectrum_payload(spectrum, problem, tube) -> list[dict]:
    out = []
    for i, root in enumerate(spectrum.roots, start=1):
        omega = model.omega_from_K(root.K, tube) if tube is not None else None
        out.append(
            {
                "mode": i,
                "K": root.K,
                "omega_nd": model.omega_nd(root.K, problem.beta),
                "omega_rad_s": omega,
                # Every root is bracketed; the goldens and perfbench's CSV check read it.
                "flag": "Bracketed",
            }
        )
    return out


def _render_spectrum(payload, problem, tube, chirality, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "problem": _problem_echo(problem, tube, chirality),
            "spectrum": payload,
        }
        return _json(doc)
    if fmt == "csv":
        lines = ["mode,K,omega_nd,omega_rad_s,flag"]
        for row in payload:
            values = map(_fmt, (row["K"], row["omega_nd"], row["omega_rad_s"]))
            lines.append(",".join([str(row["mode"]), *values, row["flag"]]))
        return "\n".join(lines) + "\n"
    header = f"{'mode':>4}  {'K':>16}  {'omega_nd':>16}  {'omega_rad_s':>16}  flag"
    lines = [header]
    for row in payload:
        omega = _fmt(row["omega_rad_s"]) or "-"
        lines.append(
            f"{row['mode']:>4}  {_fmt(row['K']):>16}  {_fmt(row['omega_nd']):>16}  "
            f"{omega:>16}  {row['flag']}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Commands


def _cmd_freq(inv: CliInvocation, s: dict) -> str:
    from . import solver

    problem, tube, chirality, cfg = _resolve_problem(s, s["modes"])
    if logging := sys.modules.get("logging"):  # main imports it at info and debug
        logging.getLogger("arch_resonance").info(
            "freq: beta=%g eta_nd=%g crack=%s", problem.beta, problem.eta_nd, problem.crack
        )
    spectrum = solver.find_frequencies(problem, cfg)
    payload = _spectrum_payload(spectrum, problem, tube)
    return _render_spectrum(payload, problem, tube, chirality, inv.format)


def _cmd_modeshape(inv: CliInvocation, s: dict) -> str:
    from . import solver

    mode, samples = s["mode"], s["samples"]  # both within their flags' bounds
    problem, tube, chirality, cfg = _resolve_problem(s, mode)
    spectrum = solver.find_frequencies(problem, cfg)
    shape = solver.mode_shape(problem, spectrum.roots[mode - 1], samples)
    flat = tuple(v for pair in shape for v in pair)  # phi_0, X_0, phi_1, X_1, ...
    if inv.format == "json":
        doc = {
            "problem": _problem_echo(problem, tube, chirality),
            "mode": mode,
            "K": spectrum.roots[mode - 1].K,
            "shape": [],
        }
        # json.dumps with an indent runs json's pure-Python encoder, slow for
        # a long shape, so the pairs are spliced in at the last key, "shape",
        # in that encoder's layout; repr is what json writes for a finite
        # float, and every sample is finite.
        pairs = ",\n".join(["    [\n      %r,\n      %r\n    ]"] * samples) % flat
        return _json(doc).removesuffix("[]\n}\n") + f"[\n{pairs}\n  ]\n}}\n"
    return ("phi_rad,X\n" + f"{_FMT},{_FMT}\n" * samples) % flat


def _cmd_sweep(inv: CliInvocation, s: dict) -> str:
    from . import sweep

    param = s["param"]
    if param is None:
        raise UsageError("--param is required for sweep")
    d_from, d_to, d_steps = _SWEEP_DEFAULTS[param]
    start = d_from if s["from_"] is None else s["from_"]
    stop = d_to if s["to"] is None else s["to"]
    steps = d_steps if s["steps"] is None else s["steps"]
    if param == "radius":
        start, stop = start * 1e-9, stop * 1e-9  # nm at the CLI boundary

    if any(s[dest] is not None for dest in ("diameter_nm", "n", "m")):
        raise UsageError(
            "sweep uses each chirality preset's diameter; "
            "--diameter-nm and --n/--m do not apply (use --chirality)"
        )
    with _bad_input_is_usage_error():
        chirality, inputs = _resolve_inputs(s)
        classes = tuple(model.ChiralityClass) if chirality in (None, "all") else (chirality,)
        presets = load_presets(s["presets"])
        spec = sweep.SweepSpec(
            parameter=param,
            start=start,
            stop=stop,
            steps=steps,
            tubes={c: _resolve_tube(s, c, presets) for c in classes},
            **inputs,
            **_given(mode=s["modes"]),
        )
    if logging := sys.modules.get("logging"):
        logging.getLogger("arch_resonance").info(
            "sweep: %s over [%g, %g] x %d", param, start, stop, steps
        )
    try:
        rows = sweep.run_sweep(spec)
    except InvalidSpec as exc:  # an invalid end of the range, found before any solve
        raise UsageError(str(exc)) from None
    if inv.format == "json":
        return _json([row.__dict__ for row in rows])
    if inv.format == "table":
        text_rows = sweep.rows_to_csv(rows).splitlines()
        return "\n".join(line.replace(",", "\t") for line in text_rows) + "\n"
    return sweep.rows_to_csv(rows)


def _cmd_validate(inv: CliInvocation, s: dict) -> str:
    from . import sweep

    beta_small = 0.05 if s["beta"] is None else s["beta"]
    try:
        rows = sweep.validation_table(beta_small)
    except InvalidSpec as exc:
        raise UsageError(str(exc)) from None
    if inv.format == "json":
        return _json([row.__dict__ for row in rows])
    if inv.format == "csv":
        return sweep.validation_to_csv(rows)
    lines = [f"{'Mode':>4}  {'eta':>5}  {'Present':>10}  {'Thai':>10}  {'Computed':>12}"]
    for r in rows:
        lines.append(
            f"{r.mode:>4}  {_fmt(r.eta):>5}  {_fmt(r.present):>10}  "
            f"{_fmt(r.thai):>10}  {_fmt(r.omega_nd):>12}"
        )
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "freq": _cmd_freq,
    "sweep": _cmd_sweep,
    "modeshape": _cmd_modeshape,
    "validate": _cmd_validate,
}


def run(inv: CliInvocation) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    settings = _settings(inv)
    try:
        text = _COMMANDS[inv.command](inv, settings)
        _write(text, inv.output_path)
    except (NoRootsInRange, DoubleRoot) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    value = os.environ.get("ARCH_RESONANCE_LOG") or "warn"
    level = _LOG_LEVELS.get(value.lower())
    if level is None:
        print(f"usage error: ARCH_RESONANCE_LOG={value!r} is not error, warn, info or debug",
              file=sys.stderr)
        return 2
    # Nothing logs at warn or above; lines go to sys.stderr as it is when written.
    if level < 30 or "logging" in sys.modules:
        import logging

        stderr = SimpleNamespace(write=lambda text: sys.stderr.write(text),
                                 flush=lambda: sys.stderr.flush())
        logging.basicConfig(stream=stderr, level=level, format="%(levelname)s %(message)s")
        logging.getLogger("arch_resonance").setLevel(level)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        inv = parse(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return run(inv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
