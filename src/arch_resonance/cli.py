"""Command line front end.

Four subcommands: ``freq`` (spectrum of one problem), ``sweep`` (parameter
sweeps as CSV), ``modeshape`` (sampled spatial mode), ``validate``
(near-straight table against published reference columns). Values can come
from flags or from a sectioned config file; flags win. Dimensioned inputs are
accepted in nm / TPa at this boundary and converted to SI internally.

Exit codes: 0 success; 1 runtime failure, which is fewer roots in the search
range than modes requested, or unwritable output; 2 usage error, which is any
bad flag, config or preset value met while resolving them into a problem or a
sweep, reported in one line on standard error. The environment variable
``ARCH_RESONANCE_LOG`` (error, warn, info, debug) controls diagnostics on
standard error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Mapping

from . import __version__
from . import crack as crack_models
from . import model, solver, sweep
from .errors import InvalidPreset, InvalidSpec, MissingPreset, NoRootsInRange, UsageError

logger = logging.getLogger("arch_resonance")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

_SWEEP_DEFAULTS = {
    # parameter: (from, to, steps); radius bounds are nm at this boundary
    "beta": (0.1, 3.0, 59),
    "eta": (0.0, 4.0, 41),
    "radius": (2.0, 20.0, 41),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


@dataclass(frozen=True)
class CliInvocation:
    command: str
    config_path: str | None
    overrides: dict[str, Any]
    output_path: str | None
    format: str


def _add_common(p: argparse.ArgumentParser, default_format: str) -> None:
    p.add_argument("--config", help="sectioned key-value config file")
    p.add_argument("--out", help="output path (default: standard output)")
    p.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default=default_format,
        help=f"output format (default {default_format})",
    )


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, help="central angle in rad")
    eta = p.add_mutually_exclusive_group()
    eta.add_argument("--eta", type=float, help="dimensionless nonlocal parameter")
    eta.add_argument(
        "--eta-nm2", type=float, help="physical nonlocal constant in nm^2"
    )
    p.add_argument("--radius-nm", type=float, help="arch radius in nm")
    p.add_argument("--diameter-nm", type=float, help="tube diameter in nm")
    p.add_argument("--n", type=int, help="roll-up index n (with --m derives diameter)")
    p.add_argument("--m", type=int, help="roll-up index m")
    p.add_argument(
        "--chirality",
        help="chirality class: armchair, zigzag or chiral (sweep also: all)",
    )
    p.add_argument("--crack-alpha", type=float, help="crack position angle in rad")
    p.add_argument("--crack-psi", type=float, help="crack depth ratio c/h in [0, 1)")
    p.add_argument("--crack-model", help="compliance model name")
    p.add_argument("--presets", help="presets file path")


def build_parser() -> _Parser:
    parser = _Parser(prog="arch-resonance", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    freq = sub.add_parser("freq", help="natural frequency spectrum of one problem")
    _add_problem_flags(freq)
    freq.add_argument("--modes", type=int, help="number of modes (default 5)")
    _add_common(freq, "table")

    swp = sub.add_parser("sweep", help="parameter sweep emitting tabular data")
    _add_problem_flags(swp)
    swp.add_argument("--modes", type=int, help="mode index to report (default 1)")
    swp.add_argument(
        "--param", choices=("beta", "eta", "radius"), help="swept parameter"
    )
    swp.add_argument("--from", dest="from_", type=float, help="sweep start")
    swp.add_argument("--to", dest="to", type=float, help="sweep end")
    swp.add_argument("--steps", type=int, help="number of grid points")
    _add_common(swp, "csv")

    shape = sub.add_parser("modeshape", help="sampled spatial mode shape")
    _add_problem_flags(shape)
    shape.add_argument("--mode", type=int, default=1, help="mode index (default 1)")
    shape.add_argument(
        "--samples", type=int, default=201, help="sample count (default 201)"
    )
    _add_common(shape, "csv")

    val = sub.add_parser(
        "validate", help="near-straight limit against published reference values"
    )
    val.add_argument(
        "--beta", type=float, help="small central angle in rad (default 0.05)"
    )
    _add_common(val, "table")
    return parser


def parse(args: list[str]) -> CliInvocation:
    """Parse an argument vector into a validated invocation.

    Unknown flags raise :class:`UsageError` naming the offender; ``--help``
    and ``--version`` short-circuit through SystemExit(0).
    """
    ns = build_parser().parse_args(args)
    overrides = vars(ns).copy()
    command = overrides.pop("command")
    config_path = overrides.pop("config", None)
    output_path = overrides.pop("out", None)
    fmt = overrides.pop("format", "table")
    return CliInvocation(
        command=command,
        config_path=config_path,
        overrides=overrides,
        output_path=output_path,
        format=fmt,
    )


# --------------------------------------------------------------------------
# Config and presets files


def _read_config(path: str | None) -> dict[str, dict[str, str]]:
    if path is None:
        return {}
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    return {section: dict(cp[section]) for section in cp.sections()}


def load_presets(path: str | None = None) -> dict[str, dict[str, float]]:
    """Parse a presets file (shipped defaults when ``path`` is None).

    Grammar: INI sections named after the chirality class, keys
    ``youngs_modulus_tpa``, ``wall_thickness_nm``, ``mass_per_length_kg_per_m``,
    ``arch_radius_nm`` and either ``diameter_nm`` or ``n``/``m`` (plus
    optional ``bond_length_nm``). All values numeric.
    """
    cp = configparser.ConfigParser()
    if path is None:
        text = (
            resources.files("arch_resonance").joinpath("presets.ini").read_text()
        )
        cp.read_string(text)
    else:
        read = cp.read(path)
        if not read:
            raise UsageError(f"presets file not found: {path}")
    table: dict[str, dict[str, float]] = {}
    for section in cp.sections():
        entry = {}
        for key, raw in cp[section].items():
            try:
                entry[key] = float(raw)
            except ValueError:
                raise InvalidPreset(
                    f"presets [{section}] {key} is not numeric: {raw!r}"
                ) from None
        table[section.lower()] = entry
    return table


class _Settings:
    """Layered lookup: flag value, then config section key, then default."""

    def __init__(self, overrides: Mapping[str, Any], config: Mapping[str, Mapping[str, str]]):
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
        return crack_models.PolynomialCompliance("polynomial", coeffs, scale)
    raise UsageError(f"--crack-model: unknown model {name!r}")


def _resolve_chirality(s: _Settings, allow_all: bool) -> Any:
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


def _resolve_tube(s: _Settings, chirality) -> model.PhysicalTube | None:
    if chirality is None or chirality == "all":
        return None
    presets = load_presets(s.get("presets", "material", cast=str))
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
    with _bad_input_is_usage_error():
        chirality, inputs = _resolve_inputs(s, allow_all=False)
        tube = _resolve_tube(s, chirality)
        problem = model.nondimensionalize(tube, **inputs)
        cfg = solver.SearchConfig(
            k_min=s.get("k-min", "search", cast=float, default=1e-6),
            k_max=s.get("k-max", "search", cast=float),
            grid_points=s.get("grid-points", "search", cast=int, default=2000),
            refine_tol=s.get("refine-tol", "search", cast=float, default=1e-10),
            max_modes=s.get("modes", "search", cast=int, default=5),
        )
    return problem, tube, chirality, cfg


# --------------------------------------------------------------------------
# Output helpers

_FMT = "%.9g"


def _num(x: float | None) -> str:
    return "" if x is None else _FMT % x


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _problem_echo(problem, tube, chirality) -> dict:
    echo: dict[str, Any] = {"beta": problem.beta, "eta_nd": problem.eta_nd}
    if problem.crack is not None:
        echo["crack"] = {
            "alpha_rad": problem.crack.alpha,
            "theta_c": problem.crack.theta_c,
        }
    else:
        echo["crack"] = None
    echo["chirality"] = chirality.value if chirality is not None else None
    echo["radius_m"] = tube.radius if tube is not None else None
    return echo


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
                "flag": root.flag.value,
            }
        )
    return out


def _render_spectrum(payload, problem, tube, chirality, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "problem": _problem_echo(problem, tube, chirality),
            "spectrum": payload,
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = ["mode,K,omega_nd,omega_rad_s,flag"]
        for row in payload:
            lines.append(
                ",".join(
                    (
                        str(row["mode"]),
                        _num(row["K"]),
                        _num(row["omega_nd"]),
                        _num(row["omega_rad_s"]),
                        row["flag"],
                    )
                )
            )
        return "\n".join(lines) + "\n"
    header = f"{'mode':>4}  {'K':>16}  {'omega_nd':>16}  {'omega_rad_s':>16}  flag"
    lines = [header]
    for row in payload:
        omega = _num(row["omega_rad_s"]) or "-"
        lines.append(
            f"{row['mode']:>4}  {_num(row['K']):>16}  {_num(row['omega_nd']):>16}  "
            f"{omega:>16}  {row['flag']}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Commands


def _cmd_freq(inv: CliInvocation, s: _Settings) -> str:
    problem, tube, chirality, cfg = _resolve_problem(s)
    logger.info(
        "freq: beta=%g eta_nd=%g crack=%s", problem.beta, problem.eta_nd, problem.crack
    )
    spectrum = solver.find_frequencies(problem, cfg)
    payload = _spectrum_payload(spectrum, problem, tube)
    return _render_spectrum(payload, problem, tube, chirality, inv.format)


def _cmd_modeshape(inv: CliInvocation, s: _Settings) -> str:
    problem, tube, chirality, cfg = _resolve_problem(s)
    mode = s.overrides["mode"]
    samples = s.overrides["samples"]
    if mode < 1:
        raise UsageError("--mode must be >= 1")
    if samples < 2:
        raise UsageError("--samples must be >= 2")
    spectrum = solver.find_frequencies(problem, replace(cfg, max_modes=mode))
    shape = solver.mode_shape(problem, spectrum.roots[mode - 1], samples)
    if inv.format == "json":
        doc = {
            "problem": _problem_echo(problem, tube, chirality),
            "mode": mode,
            "K": spectrum.roots[mode - 1].K,
            "shape": [[phi, x] for phi, x in shape.tolist()],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["phi_rad,X"]
    for phi, x in shape:
        lines.append(f"{_FMT % phi},{_FMT % x}")
    return "\n".join(lines) + "\n"


def _cmd_sweep(inv: CliInvocation, s: _Settings) -> str:
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

    with _bad_input_is_usage_error():
        chirality, inputs = _resolve_inputs(s, allow_all=True)
        if inputs["eta_physical"] is not None:
            eta_kind, eta_value = "physical", inputs["eta_physical"]
        else:
            eta_kind, eta_value = "nd", inputs["eta_nd"]
        radius_nm = s.get("radius-nm", "geometry", cast=float)
        spec = sweep.SweepSpec(
            parameter=param,
            start=start,
            stop=stop,
            steps=steps,
            presets=load_presets(s.get("presets", "material", cast=str)),
            chirality_set=(
                tuple(model.ChiralityClass) if chirality in (None, "all") else (chirality,)
            ),
            mode=s.get("modes", "search", cast=int, default=1),
            beta=inputs["beta"],
            eta_kind=eta_kind,
            eta_value=eta_value,
            radius_m=radius_nm * 1e-9 if radius_nm is not None else None,
            crack=inputs["crack"],
        )
    logger.info("sweep: %s over [%g, %g] x %d", param, start, stop, steps)
    try:
        rows = sweep.run_sweep(spec)
    except InvalidSpec as exc:  # an invalid end of the range, found before any solve
        raise UsageError(str(exc)) from None
    if inv.format == "json":
        doc = [row.__dict__ for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    if inv.format == "table":
        text_rows = sweep.rows_to_csv(rows).splitlines()
        return "\n".join(line.replace(",", "\t") for line in text_rows) + "\n"
    return sweep.rows_to_csv(rows)


def _cmd_validate(inv: CliInvocation, s: _Settings) -> str:
    beta_small = s.overrides.get("beta")
    beta_small = 0.05 if beta_small is None else beta_small
    try:
        rows = sweep.validation_table(beta_small)
    except InvalidSpec as exc:
        raise UsageError(str(exc)) from None
    if inv.format == "json":
        return json.dumps([row.__dict__ for row in rows], indent=2) + "\n"
    if inv.format == "csv":
        return sweep.validation_to_csv(rows)
    lines = [f"{'Mode':>4}  {'eta':>5}  {'Present':>10}  {'Thai':>10}  {'Computed':>12}"]
    for r in rows:
        lines.append(
            f"{r.mode:>4}  {_num(r.eta):>5}  {_num(r.present) or '-':>10}  "
            f"{_num(r.thai) or '-':>10}  {_num(r.omega_nd):>12}"
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
    except NoRootsInRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(
        os.environ.get("ARCH_RESONANCE_LOG", "warn").lower(), logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(message)s")
    logger.setLevel(level)
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
