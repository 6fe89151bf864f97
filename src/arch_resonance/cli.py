"""Command line front end.

Four subcommands: ``freq`` (spectrum of one problem), ``sweep`` (parameter
sweeps), ``modeshape`` (sampled spatial mode), ``validate`` (near-straight
table against published reference columns). Dimensioned inputs are accepted
in nm / TPa at this boundary and converted to SI internally. Each command
resolves and solves what can fail, then hands its columns, JSON head and rows
to one writer, :func:`_render`, the only code that knows the output formats;
:func:`run` writes its chunks as they come.

One table, ``_FLAGS``, declares each command's settings: each flag, with its
type, choices and bounds, and the ``[section] key`` config entry it mirrors,
if any; a few settings are config entries alone. :func:`parse` reads a whole
request from it, flags and then the ``--config`` file, into one dict of the
command's settings; each help is rendered from it, and a config value is read
and checked as its flag's value is. A flag wins over its config entry, and a
config key that no command's setting names is refused.

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
from itertools import chain, islice
from types import SimpleNamespace

from . import __version__, model
from ._record import replace
from .errors import DoubleRoot, InvalidPreset, InvalidSpec, MissingPreset, NoRootsInRange
from .errors import UsageError

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
        _flag("--steps", "number of grid points", int, bounds=(2, 100000)),  # sweep.MAX_STEPS
        *_common("csv"))),
    "modeshape": ("sampled spatial mode shape", (
        *_problem(_CLASSES), _flag("--mode", "mode index (default 1)", int, 1, bounds=_MODES),
        _flag("--samples", "sample count (default 201)", int, 201, bounds=(2, 1000000)),
        *_SEARCH, *_common("csv"))),
    "validate": ("near-straight limit against published reference values", (
        _flag("--beta", "small central angle in rad (default 0.05)", float), *_common("table"))),
}
_BY_NAME = {command: {f.name: f for f in flags if f.name} for command, (_, flags) in _FLAGS.items()}
_KEYS = {f.key for _, flags in _FLAGS.values() for f in flags if f.key}  # one file serves all
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


def parse(args: list[str]) -> tuple[str, dict[str, object]]:
    """Read a whole request from the flag table: its command and its settings.

    The first word is the command, or ``-h``/``--help`` or ``--version``, which
    print and exit via SystemExit(0). Each later word is a flag, in full or by a
    unique prefix, with its value after ``=`` or as the next word, whatever that
    is; a repeated flag's last value wins. Each setting, by ``dest``, is its
    flag's value if given, else its ``--config`` entry's, read as the flag's
    would be, else its default. A config key that no command's setting names,
    and anything else bad, raise UsageError.
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
    flags, given = _BY_NAME[command], {}
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
        given[flag.dest] = _value(flag, raw, f"argument {flag.name}")
    settings = {f.dest: f.default for f in _FLAGS[command][1]} | given
    if settings["config"] is not None:
        keyed = {f.key: f for f in _FLAGS[command][1] if f.key}
        for section, entries in _read_ini(settings["config"], "config").items():
            for key, raw in entries.items():
                where = f"config [{section}] {key}"
                if (section, key) not in _KEYS:
                    raise UsageError(f"{where}: unknown key")
                flag = keyed.get((section, key))
                if flag and flag.dest not in given:
                    settings[flag.dest] = _value(flag, raw, where)
    return command, settings


# --------------------------------------------------------------------------
# Config and presets files


def _read_ini(path: str, kind: str) -> dict[str, dict[str, str]]:
    """A UTF-8 config or presets file as plain dicts.

    Values are interpolated here, so a file that is missing, unreadable or
    malformed is a :class:`UsageError` naming it as given, in one line. A
    presets file's ``[DEFAULT]`` keys are copied into each of its sections; in a
    config file ``[DEFAULT]`` is a section like any other.
    """
    import configparser

    cp = configparser.ConfigParser(default_section="DEFAULT" if kind == "presets" else None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
        return {section: dict(cp[section]) for section in cp.sections()}
    except FileNotFoundError:
        raise UsageError(f"{kind} file not found: {path}") from None
    except (OSError, configparser.Error, UnicodeDecodeError) as exc:
        reason = "; ".join(str(exc).splitlines())
        raise UsageError(f"cannot read {kind} file {path}: {reason}") from None


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

    try:
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
    except (ValueError, MissingPreset) as exc:  # a bad value met while resolving
        raise UsageError(str(exc)) from None
    return problem, tube, chirality, cfg


# --------------------------------------------------------------------------
# Commands: each resolves and solves what can fail, then hands its output to
# the writer as (columns, JSON head, rows).

_SPECTRUM = ("mode", "K", "omega_nd", "omega_rad_s", "flag")


def _problem_echo(problem, tube, chirality) -> dict:
    crack = problem.crack
    return {
        "beta": problem.beta,
        "eta_nd": problem.eta_nd,
        "crack": None if crack is None else {"alpha_rad": crack.alpha, "theta_c": crack.theta_c},
        "chirality": chirality.value if chirality is not None else None,
        "radius_m": tube.radius if tube is not None else None,
    }


def _cmd_freq(s: dict) -> tuple:
    from . import solver

    problem, tube, chirality, cfg = _resolve_problem(s, s["modes"])
    if logging := sys.modules.get("logging"):  # main imports it at info and debug
        logging.getLogger("arch_resonance").info(
            "freq: beta=%g eta_nd=%g crack=%s", problem.beta, problem.eta_nd, problem.crack
        )
    spectrum = solver.find_frequencies(problem, cfg)
    # Every root is bracketed; the goldens and perfbench's CSV check read the flag.
    rows = ((i, root.K, model.omega_nd(root.K, problem.beta),
             None if tube is None else model.omega_from_K(root.K, tube), "Bracketed")
            for i, root in enumerate(spectrum.roots, start=1))
    return _SPECTRUM, {"problem": _problem_echo(problem, tube, chirality), "spectrum": dict}, rows


def _cmd_modeshape(s: dict) -> tuple:
    from . import solver

    mode, samples = s["mode"], s["samples"]  # both within their flags' bounds
    problem, tube, chirality, cfg = _resolve_problem(s, mode)
    root = solver.find_frequencies(problem, cfg).roots[mode - 1]
    head = {"problem": _problem_echo(problem, tube, chirality), "mode": mode, "K": root.K,
            "shape": list}
    return ("phi_rad", "X"), head, solver.mode_shape(problem, root, samples)


def _cmd_sweep(s: dict) -> tuple:
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
    try:  # SweepSpec checks both ends of the range before any point is solved
        chirality, inputs = _resolve_inputs(s)
        classes = tuple(model.ChiralityClass) if chirality in (None, "all") else (chirality,)
        presets = load_presets(s["presets"])
        tubes = {c: _resolve_tube(s, c, presets) for c in classes}
        spec = sweep.SweepSpec(param, start, stop, steps, tubes, **inputs, **_given(mode=s["modes"]))
    except (ValueError, MissingPreset) as exc:  # a bad value met while resolving
        raise UsageError(str(exc)) from None
    if logging := sys.modules.get("logging"):
        logging.getLogger("arch_resonance").info(
            "sweep: %s over [%g, %g] x %d", param, start, stop, steps
        )
    return sweep.SweepRow.__match_args__, None, sweep.row_values(spec)


def _cmd_validate(s: dict) -> tuple:
    from . import sweep

    beta_small = 0.05 if s["beta"] is None else s["beta"]
    try:
        rows = sweep.validation_values(beta_small)
    except InvalidSpec as exc:
        raise UsageError(str(exc)) from None
    return sweep.ValidationRow.__match_args__, None, rows


_COMMANDS = {
    "freq": _cmd_freq,
    "sweep": _cmd_sweep,
    "modeshape": _cmd_modeshape,
    "validate": _cmd_validate,
}

# --------------------------------------------------------------------------
# The writer: the one place that knows the output formats

_BLOCK = 256  # rows rendered by one % and written as one chunk
# A table's layout: the cell separator, each column's right-aligned width (none
# past the tuple), the text of a blank cell and the header labels (None: the
# column names). A command without a layout of its own writes CSV as its table.
_CSV = (",", (), "", None)
_TABLES = {
    "freq": ("  ", (4, 16, 16, 16), "-", None),
    "sweep": ("\t", (), "", None),
    "validate": ("  ", (4, 5, 10, 10, 12), "", ("Mode", "eta", "Present", "Thai", "Computed")),
}
# (command, format) -> its fixed text: a memo, as the text depends on nothing else.
_LAYOUTS: dict = {}
_KIND = {str: 1, type(None): 2}  # a cell's type -> its spec in a layout's column; else 0


def _json(value, indent: str) -> str:
    """``value`` in ``json.dumps(indent=2)``'s layout, nested ``indent`` deep: a
    dict, None, a string of the fixed vocabulary (nothing to escape), or a finite
    number, whose repr is its JSON (as an empty dict's is)."""
    if isinstance(value, dict) and value:
        inner = indent + "  "
        items = ",\n".join(f'{inner}"{key}": {_json(v, inner)}' for key, v in value.items())
        return f"{{\n{items}\n{indent}}}"
    return "null" if value is None else f'"{value}"' if isinstance(value, str) else repr(value)


def _layout(command: str, fmt: str, columns, key, form) -> tuple:
    """The fixed text of a command's output in ``fmt``, as :func:`_render` reads it.

    That is the header; each column's spec of a number, of a string and of a
    blank (None: its text, then ``%.0s``, which writes nothing); a row's
    opening, cell separator and closing; the text between rows, before the
    first, after the last, and in place of none; and a memo of row templates.
    """
    if fmt == "json":
        indent = "  " if key else ""  # of the list of rows
        at = indent + "  "  # of each row
        prefixes = [f'{at}  "{c}": ' if form is dict else at + "  " for c in columns]
        kinds = [(p + "%r", p + '"%s"', p + "null%.0s") for p in prefixes]
        brackets = "{}" if form is dict else "[]"
        end = "\n}\n" if key else "\n"
        return (f'  "{key}": ' if key else "", kinds, f"{at}{brackets[0]}\n", ",\n",
                f"\n{at}{brackets[1]}", ",\n", "[\n", f"\n{indent}]{end}", f"[]{end}", {})
    sep, widths, blank, labels = _TABLES.get(command, _CSV) if fmt == "table" else _CSV
    widths = [*widths, *[""] * (len(columns) - len(widths))]
    header = sep.join(f"%{w}s" % label for w, label in zip(widths, labels or columns))
    kinds = [(f"%{w}.9g", f"%{w}s", f"%{w}s" % blank + "%.0s") for w in widths]
    return header + "\n", kinds, "", sep, "", "\n", "", "\n", "", {}


def _render(command: str, fmt: str, columns, head, rows):
    """Yield a command's output in ``fmt``, its rows a block at a time.

    Each row is a tuple in ``columns`` order of strings and numbers, and None
    for a blank number; a column of strings holds strings in every row. A CSV
    or table (the command's layout in :data:`_TABLES`) starts with a header
    line and writes a number in 9 significant digits. JSON is what
    ``json.dumps(doc, indent=2)`` writes, with the list of rows for doc, each
    an object of the columns; given a ``head``, doc is the head, and the rows
    are the value of its last key, whose value (``dict`` or ``list``) is the
    form of each row.
    """
    layout = _LAYOUTS.get((command, fmt))
    if layout is None:
        key, form = [*head.items()][-1] if head else (None, dict)
        layout = _LAYOUTS[command, fmt] = _layout(command, fmt, columns, key, form)
    header, _, _, _, _, between, first, last, empty, _ = layout
    if fmt == "json" and head:
        entries = [*head.items()][:-1]
        header = "{\n" + "".join(f'  "{k}": {_json(v, "  ")},\n' for k, v in entries) + header
    yield header
    rows, lead, size = iter(rows), first, _BLOCK
    while size == _BLOCK and (block := list(islice(rows, _BLOCK))):
        flat, size, text = tuple(chain.from_iterable(block)), len(block), None
        if lead is first:
            line, blanks = _template(layout, block[0])
        # A block whose blanks are the first row's takes one %: a number in a
        # blank's cell would be lost, and a None in a number's fails %.9g but
        # not JSON's %r, so those are counted.
        if all(flat[j::len(columns)].count(None) == size for j in blanks) and (
                fmt != "json" or flat.count(None) == size * len(blanks)):
            try:  # the row template repeated, a separator between each two
                text = ((line + between) * size)[:-len(between)] % flat
            except TypeError:  # a None in a number's cell
                pass
        if text is None:  # the blanks vary: row by row
            text = between.join([_template(layout, row)[0] % row for row in block])
        yield lead + text
        lead = between
    yield empty if lead is first else last


def _template(layout: tuple, row) -> tuple:
    """The % template of a row with ``row``'s strings and blanks, and its blanks' indices."""
    _, kinds, opening, sep, closing, *_, lines = layout
    types = tuple(map(type, row))
    if types not in lines:
        specs = [kind[_KIND.get(t, 0)] for kind, t in zip(kinds, types)]
        blanks = [j for j, t in enumerate(types) if t is type(None)]
        lines[types] = opening + sep.join(specs) + closing, blanks
    return lines[types]


def run(command: str, settings: dict[str, object]) -> int:
    """Execute a parsed request; returns the process exit code.

    The command solves what can fail before it hands over its rows, and its
    output is written as it is rendered: to standard output, or to ``--out``,
    opened when the first chunk arrives, so a request that fails first
    creates no file. A failure after that leaves what was written.
    """
    path = settings["out"]
    try:
        columns, head, rows = _COMMANDS[command](settings)
        chunks = _render(command, settings["format"], columns, head, rows)
        if path is None:
            for chunk in chunks:  # standard output may be any object with a write
                sys.stdout.write(chunk)
        elif (chunk := next(chunks, None)) is not None:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(chunk)
                fh.writelines(chunks)
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
        return run(*parse(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
