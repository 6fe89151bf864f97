"""Command line front end.

Four subcommands: ``freq`` (spectrum of one problem), ``sweep`` (parameter
sweeps as CSV), ``modeshape`` (sampled spatial mode), ``validate``
(near-straight table against published reference columns). Values can come
from flags or from a sectioned config file; flags win. Dimensioned inputs are
accepted in nm / TPa at this boundary and converted to SI internally.

Exit codes: 0 success; 1 runtime failure, which is fewer roots in the search
range than modes requested, a determinant dip among them or a range beyond
double precision, a mode shape of a double root, or unwritable output; 2
usage error, which is any bad flag, a missing or malformed config or presets
file, or a bad config or preset value met while resolving them into a
problem or a sweep, reported in one line on standard error. The environment
variable ``ARCH_RESONANCE_LOG`` (error, warn, info, debug) controls
diagnostics on standard error.
"""

from __future__ import annotations

# Only what every request needs; the rest, argparse and logging too, is imported where used.
import functools
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, replace
from types import SimpleNamespace

from . import __version__, model
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


@dataclass(frozen=True)
class CliInvocation:
    command: str
    config_path: str | None
    overrides: dict[str, object]
    output_path: str | None
    format: str


_Flag = namedtuple("_Flag", "name help type default choices group dest")


def _flag(name, help, type=str, default=None, choices=None, group=None, dest=None) -> _Flag:
    """A command's flag, as argparse declares it and :func:`parse` reads it. A request
    gives at most one flag of a ``group``; ``dest`` defaults to argparse's."""
    return _Flag(name, help, type, default, choices, group, dest or name[2:].replace("-", "_"))


def _common(default_format: str) -> tuple[_Flag, ...]:
    return (_flag("--config", "sectioned key-value config file"),
            _flag("--out", "output path (default: standard output)"),
            _flag("--format", f"output format (default {default_format})", str, default_format,
                  ("table", "csv", "json")))


_PROBLEM_FLAGS = (
    _flag("--beta", "central angle in rad", float),
    _flag("--eta", "dimensionless nonlocal parameter", float, group="eta"),
    _flag("--eta-nm2", "physical nonlocal constant in nm^2", float, group="eta"),
    _flag("--radius-nm", "arch radius in nm", float),
    _flag("--diameter-nm", "tube diameter in nm", float),
    _flag("--n", "roll-up index n (with --m derives diameter)", int),
    _flag("--m", "roll-up index m", int),
    _flag("--chirality", "chirality class: armchair, zigzag or chiral (sweep also: all)"),
    _flag("--crack-alpha", "crack position angle in rad", float),
    _flag("--crack-psi", "crack depth ratio c/h in [0, 1)", float),
    _flag("--crack-model", "compliance model name"),
    _flag("--presets", "presets file path"),
)

# The one declaration of each command's flags, in the order its help lists them.
_FLAGS = {
    "freq": ("natural frequency spectrum of one problem", (
        *_PROBLEM_FLAGS, _flag("--modes", "number of modes (default 5)", int), *_common("table"))),
    "sweep": ("parameter sweep emitting tabular data", (
        *_PROBLEM_FLAGS,
        _flag("--modes", "mode index to report (default 1)", int),
        _flag("--param", "swept parameter", choices=tuple(_SWEEP_DEFAULTS)),
        _flag("--from", "sweep start", float, dest="from_"),
        _flag("--to", "sweep end", float),
        _flag("--steps", "number of grid points", int), *_common("csv"))),
    "modeshape": ("sampled spatial mode shape", (
        *_PROBLEM_FLAGS, _flag("--mode", "mode index (default 1)", int, 1),
        _flag("--samples", "sample count (default 201)", int, 201), *_common("csv"))),
    "validate": ("near-straight limit against published reference values", (
        _flag("--beta", "small central angle in rad (default 0.05)", float), *_common("table"))),
}
_BY_NAME = {command: {f.name: f for f in flags} for command, (_, flags) in _FLAGS.items()}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # noqa: A003 - argparse API
            raise UsageError(message)

    parser = _Parser(prog="arch-resonance", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _FLAGS.items():
        groups = {None: sub.add_parser(command, help=summary)}
        for f in flags:
            if f.group not in groups:
                groups[f.group] = groups[None].add_mutually_exclusive_group()
            groups[f.group].add_argument(
                f.name, dest=f.dest, type=f.type, default=f.default, choices=f.choices, help=f.help
            )
    parser.commands = sub.choices  # command word -> its subparser
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing does not mutate it."""
    return build_parser()


def _negatives_joined(args: list[str]) -> list[str]:
    """A command's vector with each ``--flag -number`` pair before any ``--`` that
    :func:`_plain` reads, a numeric flag and a negative number, joined into
    ``--flag=-number``, which argparse reads as the value, not as a flag."""
    joined = args[:1]
    for raw in args[1:]:
        if raw[:1] == "-" and "--" not in joined and _plain([args[0], joined[-1], raw]):
            joined[-1] += "=" + raw
        else:
            joined.append(raw)
    return joined


def _plain(args: list[str]) -> dict[str, object] | None:
    """argparse's namespace of a plain vector, read from the table, where each value
    converts to its flag's type and choices (a number may start with '-', as in
    ``--beta=-1e-3``); None for any other vector."""
    flags = _BY_NAME[args[0]]
    namespace = {"command": args[0], **{f.dest: f.default for f in flags.values()}}
    given = {}  # group, or a lone flag's own name -> the flag given
    for name, raw in zip(args[1::2], args[2::2]):
        flag = flags.get(name)
        if flag is None or given.setdefault(flag.group or name, name) != name:
            return None
        if raw[:1] == "-" and flag.type is str:  # argparse's to read, or to refuse
            return None
        try:
            namespace[flag.dest] = flag.type(raw)
        except ValueError:
            return None
        if flag.choices and namespace[flag.dest] not in flag.choices:
            return None
    return namespace if len(args) % 2 else None


def parse(args: list[str]) -> CliInvocation:
    """Parse an argument vector into a validated invocation.

    A plain vector, a command word and exact ``--flag value`` pairs, is read
    from the flag table, and argparse is not built; any other led by a command
    word goes to its subparser alone (:func:`_negatives_joined`), anything else
    to the full parser. Unknown flags raise UsageError naming the offender;
    ``--help`` and ``--version`` exit via SystemExit(0).
    """
    overrides = _plain(args) if args and args[0] in _FLAGS else None
    if overrides is None:
        parser = _parser()
        sub = parser.commands.get(args[0]) if args else None
        overrides = vars(sub.parse_args(_negatives_joined(args)[1:], SimpleNamespace(command=args[0]))
                         if sub else parser.parse_args(args))
    return CliInvocation(
        command=overrides.pop("command"),
        config_path=overrides.pop("config", None),
        output_path=overrides.pop("out", None),
        format=overrides.pop("format", "table"),
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


def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    return {} if path is None else _read_ini(path, "config")


def _numeric_table(sections: dict[str, dict[str, str]]) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    for section, raw_entry in sections.items():
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


@functools.cache
def _shipped_presets() -> dict[str, dict[str, float]]:
    """The package's ``presets.ini``, beside this module, parsed once per process on first use."""
    path = os.path.join(os.path.dirname(__file__), "presets.ini")
    return _numeric_table(_read_ini(path, "presets"))


def load_presets(path: str | None = None) -> dict[str, dict[str, float]]:
    """Parse a presets file (shipped defaults when ``path`` is None).

    Grammar: INI sections named after the chirality class, keys
    ``youngs_modulus_tpa``, ``wall_thickness_nm``, ``mass_per_length_kg_per_m``,
    ``arch_radius_nm`` and either ``diameter_nm`` or ``n``/``m`` (plus
    optional ``bond_length_nm``). All values numeric. A ``path`` is read on
    every call; the shipped file is parsed once, and each call returns a
    fresh copy of it.
    """
    if path is None:
        return {section: dict(entry) for section, entry in _shipped_presets().items()}
    return _numeric_table(_read_ini(path, "presets"))


class _Settings:
    """Layered lookup: flag value, then config section key, then default."""

    def __init__(self, overrides: dict[str, object], config: dict[str, dict[str, str]]):
        self.overrides = overrides
        self.config = config

    def get(self, flag: str, section: str, key: str | None = None, cast=float, default=None):
        value = self.overrides.get(flag.replace("-", "_"))
        if value is not None:
            return value
        raw = self.config.get(section, {}).get(key if key is not None else flag)
        if raw is not None:
            try:
                return cast(raw)
            except ValueError:
                raise UsageError(f"config [{section}] {flag}: bad value {raw!r}") from None
        return default


def _parse_coefficient_list(raw: str) -> tuple[float, ...]:
    text = raw.strip().strip("[]")
    if not text:
        raise UsageError("[crack] coefficients: empty list")
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"[crack] coefficients: bad list {raw!r}") from None


def _resolve_compliance_model(s: _Settings) -> crack_models.ComplianceModel:
    from . import crack as crack_models

    name = s.get("crack-model", "crack", key="model", cast=str, default="power-law")
    if name == "power-law":
        kappa0 = s.get("kappa0", "crack", cast=float, default=crack_models.DEFAULT_KAPPA0)
        return crack_models.PowerLawCompliance(kappa0=kappa0)
    if name == "polynomial":
        raw = s.config.get("crack", {}).get("coefficients")
        if raw is None:
            raise UsageError("[crack] coefficients required for the polynomial model")
        coeffs = _parse_coefficient_list(raw)
        scale = s.get("scale", "crack", cast=float, default=1.0)
        return crack_models.PolynomialCompliance(coeffs, scale)
    raise UsageError(f"--crack-model: unknown model {name!r}")


def _resolve_chirality(s: _Settings, allow_all: bool) -> model.ChiralityClass | str | None:
    n = s.get("n", "geometry", cast=int)
    m = s.get("m", "geometry", cast=int)
    if (n is None) != (m is None):
        raise UsageError("--n and --m must be given together")
    if n is not None:
        return model.classify_chirality(model.ChiralitySpec(n, m))
    name = s.get("chirality", "geometry", cast=str)
    if name is None:
        return None
    name = name.lower()
    if name == "all":
        if allow_all:
            return "all"
        raise UsageError("--chirality all is only valid for sweep")
    try:
        return model.ChiralityClass(name)
    except ValueError:
        raise UsageError(f"--chirality: unknown class {name!r}") from None


def _resolve_tube(s: _Settings, chirality, presets) -> model.PhysicalTube:
    """The class's tube from ``presets``, with the geometry flags applied.

    The one place ``--radius-nm``, ``--diameter-nm`` and ``--n/--m`` reach a
    tube, for every command.
    """
    tube = model.resolve_preset(chirality, presets)
    radius_nm = s.get("radius-nm", "geometry", cast=float)
    diameter_nm = s.get("diameter-nm", "geometry", cast=float)
    n = s.get("n", "geometry", cast=int)
    m = s.get("m", "geometry", cast=int)
    updates = {}
    if radius_nm is not None:
        updates["radius"] = radius_nm * 1e-9
    if diameter_nm is not None:
        updates["diameter"] = diameter_nm * 1e-9
    elif n is not None and m is not None:
        updates["diameter"] = model.tube_diameter(model.ChiralitySpec(n, m)) * 1e-9
    if updates:
        tube = replace(tube, **updates)
    return tube


def _presets(s: _Settings) -> dict[str, dict[str, float]]:
    return load_presets(s.get("presets", "material", cast=str))


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


def _resolve_inputs(s: _Settings, allow_all: bool):
    """Chirality and the keyword arguments of :func:`model.nondimensionalize`.

    Shared by every command that solves a problem: ``beta``, the nonlocal
    parameter as ``eta_nd`` or ``eta_physical`` (m^2), and the crack.
    """
    beta = s.get("beta", "geometry", cast=float, default=1.0)
    eta_nd = s.get("eta", "nonlocal", cast=float)
    eta_nm2 = s.get("eta-nm2", "nonlocal", cast=float)
    if eta_nd is not None and eta_nm2 is not None:
        raise UsageError("--eta and --eta-nm2 are mutually exclusive")
    if eta_nm2 is None and eta_nd is None:
        eta_nd = 1.0
    crack = None
    psi = s.get("crack-psi", "crack", key="psi", cast=float, default=0.0)
    if psi:
        alpha = s.get("crack-alpha", "crack", key="alpha_rad", cast=float, default=0.5 * beta)
        crack = model.CrackSpec(alpha, psi, _resolve_compliance_model(s))
    inputs = dict(
        beta=beta,
        eta_nd=eta_nd,
        eta_physical=eta_nm2 * 1e-18 if eta_nm2 is not None else None,
        crack=crack,
    )
    return _resolve_chirality(s, allow_all), inputs


def _resolve_problem(s: _Settings):
    """Shared context resolution for freq and modeshape.

    Returns (problem, tube, chirality, search config).
    """
    from . import solver

    with _bad_input_is_usage_error():
        chirality, inputs = _resolve_inputs(s, allow_all=False)
        for flag in ("radius-nm", "diameter-nm") if chirality is None else ():
            if s.get(flag, "geometry", cast=str) is not None:
                raise UsageError(f"--{flag} needs --chirality or --n/--m")
        tube = None if chirality is None else _resolve_tube(s, chirality, _presets(s))
        problem = model.nondimensionalize(tube, **inputs)
        cfg = solver.SearchConfig(
            **_given(
                k_min=s.get("k-min", "search", cast=float),
                k_max=s.get("k-max", "search", cast=float),
                grid_points=s.get("grid-points", "search", cast=int),
                refine_tol=s.get("refine-tol", "search", cast=float),
                max_modes=s.get("modes", "search", cast=int),
            )
        )
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


def _cmd_freq(inv: CliInvocation, s: _Settings) -> str:
    from . import solver

    problem, tube, chirality, cfg = _resolve_problem(s)
    if logging := sys.modules.get("logging"):  # main imports it at info and debug
        logging.getLogger("arch_resonance").info(
            "freq: beta=%g eta_nd=%g crack=%s", problem.beta, problem.eta_nd, problem.crack
        )
    spectrum = solver.find_frequencies(problem, cfg)
    payload = _spectrum_payload(spectrum, problem, tube)
    return _render_spectrum(payload, problem, tube, chirality, inv.format)


def _cmd_modeshape(inv: CliInvocation, s: _Settings) -> str:
    from . import solver

    problem, tube, chirality, cfg = _resolve_problem(s)
    mode = s.overrides["mode"]
    samples = s.overrides["samples"]
    if mode < 1:
        raise UsageError("--mode must be >= 1")
    if samples < 2:
        raise UsageError("--samples must be >= 2")
    spectrum = solver.find_frequencies(problem, replace(cfg, max_modes=mode))
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


def _cmd_sweep(inv: CliInvocation, s: _Settings) -> str:
    from . import sweep

    param = s.overrides.get("param")
    if param is None:
        raise UsageError("--param is required for sweep")
    d_from, d_to, d_steps = _SWEEP_DEFAULTS[param]
    start = s.overrides.get("from_")
    stop = s.overrides.get("to")
    steps = s.overrides.get("steps")
    start = d_from if start is None else start
    stop = d_to if stop is None else stop
    steps = d_steps if steps is None else steps
    if param == "radius":
        start, stop = start * 1e-9, stop * 1e-9  # nm at the CLI boundary

    if any(s.get(flag, "geometry", cast=str) is not None for flag in ("diameter-nm", "n", "m")):
        raise UsageError(
            "sweep uses each chirality preset's diameter; "
            "--diameter-nm and --n/--m do not apply (use --chirality)"
        )
    with _bad_input_is_usage_error():
        chirality, inputs = _resolve_inputs(s, allow_all=True)
        classes = tuple(model.ChiralityClass) if chirality in (None, "all") else (chirality,)
        presets = _presets(s)
        spec = sweep.SweepSpec(
            parameter=param,
            start=start,
            stop=stop,
            steps=steps,
            tubes={c: _resolve_tube(s, c, presets) for c in classes},
            **inputs,
            **_given(mode=s.get("modes", "search", cast=int)),
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


def _cmd_validate(inv: CliInvocation, s: _Settings) -> str:
    from . import sweep

    beta_small = s.overrides.get("beta")
    beta_small = 0.05 if beta_small is None else beta_small
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
    settings = _Settings(inv.overrides, _read_config(inv.config_path))
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
