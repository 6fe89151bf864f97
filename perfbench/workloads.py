"""Seeded workloads: each item is one timed call plus the check of its output.

``figures``  regenerates the golden figure sweeps (tests/golden/fig3..7.csv)
             through ``cli.main(["sweep", ...])``, two grid values at a time,
             and byte-compares every row with the golden file.
             Uncracked mode-1 solves: the 4x4 determinant scan dominates.
``cracked``  cracked problems solved with ``solver.find_frequencies``, five
             modes each, every root checked against an independent shooting
             determinant. The 8x8 assembly, determinant and null vector
             dominate; no CLI.
``queries``  single ``cli.main`` requests, one client in a closed loop:
             ``freq`` in every format, ``modeshape``, ``validate`` and
             malformed requests that must exit with code 2, uncracked and
             cracked; cracked roots are checked against an independent
             shooting determinant. Shows the fixed cost of each request next
             to the solve.

``known_defect_probes`` are requests that hit defects the program is known to
have today. They are run outside the timed passes and reported separately,
so that they show on every run without counting as workload failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from arch_resonance import cli, crack, model, solver

# Request kind -> requests per pass. Every kind of valid request gets the same
# share, and malformed requests a small one. The shares are a choice, not
# measured traffic. 100 requests per pass put 10 beyond p90.
QUERY_MIX = {
    "freq-uncracked": 18,
    "freq-cracked": 18,
    "modeshape-uncracked": 18,
    "modeshape-cracked": 18,
    "validate": 18,
    "malformed": 10,
}

# Cracked problems per pass of ``cracked``, and the modes each asks for. The
# solves cost about the same, so a run's two passes put 14 latencies beyond
# p90 in a pass a little shorter than those of the other workloads.
CRACKED_PROBLEMS = 70
CRACKED_MODES = 5

# The golden figures and the sweep grids cli.py's ``sweep`` defaults produce
# for them: (golden file, --param, start, stop, steps); radius in nm.
FIGURES = (
    ("fig3.csv", "beta", 0.1, 3.0, 59),
    ("fig4.csv", "eta", 0.0, 4.0, 41),
    ("fig5.csv", "radius", 2.0, 20.0, 41),
)
# Single-chirality copies of fig5, covered byte for byte by its windows.
FIG5_SUBSETS = {"fig6.csv": "armchair", "fig7.csv": "zigzag"}
CHIRALITIES = ("armchair", "zigzag", "chiral")

# Stated accuracy of a reported eigenvalue against the closed form: the
# solver's refine tolerance convention (absolute below K = 1) at 1e-8.
K_TOL = 1e-8
# Largest |X| allowed at a support, and largest deviation of an uncracked
# mode shape from its closed-form sine, in units of the peak.
SHAPE_TOL = 1e-6
MODESHAPE_SAMPLES = 200
# Steps per expected root of the grid that counts the shooting determinant's
# roots between two reported eigenvalues.
ROOT_GRID = 8


@dataclass(frozen=True)
class Item:
    """One request: what it is, the call to time, and the check of its output.

    ``check`` returns None when the output is correct, else the reason.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def run_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """``cli.main`` with standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Looked up at call time, so that a traced pass reaches the wrapper.
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_item(argv: list[str], check: Callable[[str, str], "str | None"]) -> Item:
    """A ``cli.main`` request that must exit 0 and pass ``check(stdout, stderr)``."""
    argv = tuple(argv)

    def check_output(output) -> str | None:
        code, out, err = output
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        return check(out, err)

    return Item(" ".join(argv), lambda: run_cli(argv), check_output)


def usage_error_item(argv: list[str]) -> Item:
    """A malformed request: exit code 2, one line on stderr, nothing on stdout."""
    argv = tuple(argv)

    def check_output(output) -> str | None:
        code, out, err = output
        if code != 2:
            return f"exit code {code}, expected 2"
        if out or len(err.splitlines()) != 1 or not err.startswith("usage error: "):
            return f"expected a one-line usage error, got {err.strip()[-200:]!r}"
        return None

    return Item(" ".join(argv), lambda: run_cli(argv), check_output)


# --------------------------------------------------------------------------
# Checks


def spectrum_error(ks, count: int, roots_ok) -> str | None:
    """The requested count, ascending, and ``roots_ok(ks)``."""
    if len(ks) != count:
        return f"{len(ks)} of {count} modes"
    if any(b < a for a, b in zip(ks, ks[1:])):
        return f"spectrum not ascending: {ks}"
    return roots_ok(list(ks))


def closed_form_error(beta: float, eta: float, first: int = 1):
    """Checks eigenvalues of modes first, first + 1, ... against the closed form."""

    def check(ks: list[float]) -> str | None:
        from oracle import closed_form_spectrum

        exact_ks = closed_form_spectrum(first - 1 + len(ks), beta, eta)[first - 1 :]
        for k, exact in zip(ks, exact_ks):
            if abs(k - exact) > K_TOL * max(1.0, exact):
                return f"K={k!r}, closed form {exact!r}"
        return None

    return check


def shooting_error(beta: float, eta: float, alpha: float, theta: float, first: int = 1):
    """Checks eigenvalues of modes first, first + 1, ... against the shooting
    determinant: each must be one of its roots, ``first - 1`` roots must lie
    below the first, and none between two consecutive ones."""

    def check(ks: list[float]) -> str | None:
        # scipy stays out of the measured process until now
        from oracle import sign_changes, straddle, straddles

        lo, below = 0.0, first - 1
        for k in ks:
            if not straddles(k, beta, eta, alpha, theta):
                return f"K={k!r} is not a root of the shooting determinant"
            points = ROOT_GRID * max(1, below)
            found = sign_changes(lo, k - straddle(k), beta, eta, alpha, theta, points)
            if found != below:
                return f"{found} roots of the shooting determinant below K={k!r}, expected {below}"
            lo, below = k + straddle(k), 0
        return None

    return check


def parse_spectrum(fmt: str, text: str) -> list[tuple[int, float]]:
    """(mode, K) rows of ``freq`` output in any of its formats."""
    if fmt == "json":
        return [(row["mode"], row["K"]) for row in json.loads(text)["spectrum"]]
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "mode,K,omega_nd,omega_rad_s,flag":
            raise ValueError(f"bad csv header {lines[0]!r}")
        fields = [line.split(",") for line in lines[1:]]
    else:
        if lines[0].split()[:2] != ["mode", "K"]:
            raise ValueError(f"bad table header {lines[0]!r}")
        fields = [line.split() for line in lines[1:]]
    return [(int(f[0]), float(f[1])) for f in fields]


def freq_check(fmt: str, count: int, roots_ok) -> Callable[[str, str], "str | None"]:
    def check(out: str, err: str) -> str | None:
        rows = parse_spectrum(fmt, out)
        if [m for m, _ in rows] != list(range(1, len(rows) + 1)):
            return f"mode column {[m for m, _ in rows]}"
        return spectrum_error([k for _, k in rows], count, roots_ok)

    return check


def modeshape_check(fmt: str, beta: float, mode: int, roots_ok, sine: bool):
    """Sample grid, unit peak, zero at both supports; a sine when uncracked."""

    def check(out: str, err: str) -> str | None:
        if fmt == "json":
            doc = json.loads(out)
            points = doc["shape"]
            error = roots_ok([doc["K"]])
            if error:
                return error
        else:
            lines = out.splitlines()
            if lines[0] != "phi_rad,X":
                return f"bad header {lines[0]!r}"
            points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        n = MODESHAPE_SAMPLES
        if len(points) != n:
            return f"{len(points)} of {n} samples"
        phis = [p[0] for p in points]
        xs = [p[1] for p in points]
        if any(abs(phi - beta * i / (n - 1)) > 1e-8 * beta for i, phi in enumerate(phis)):
            return "sample angles are not a uniform grid over [0, beta]"
        if max(xs) != 1.0 or min(xs) < -1.0:
            return f"samples span [{min(xs)!r}, {max(xs)!r}], not a unit peak"
        peak = xs.index(1.0)
        if max(abs(xs[0]), abs(xs[-1])) > SHAPE_TOL:
            return f"X at the supports is {xs[0]!r}, {xs[-1]!r}"
        if sine:
            s = [math.sin(mode * math.pi * phi / beta) for phi in phis]
            worst = max(abs(x - v / s[peak]) for x, v in zip(xs, s))
            if worst > SHAPE_TOL:
                return f"deviates from the closed-form sine by {worst:.3g}"
        return None

    return check


def validate_check(fmt: str, golden: list[str]) -> Callable[[str, str], "str | None"]:
    """``validate`` output, re-rendered as csv lines, must equal the golden file."""

    def num(x) -> str:
        return "" if x is None else "%.9g" % x

    def check(out: str, err: str) -> str | None:
        if fmt == "csv":
            lines = out.splitlines()
        elif fmt == "json":
            lines = golden[:1] + [
                ",".join((str(r["mode"]), num(r["eta"]), num(r["present"]), num(r["thai"]), num(r["omega_nd"])))
                for r in json.loads(out)
            ]
        else:
            lines = golden[:1] + [
                ",".join("" if f == "-" else f for f in line.split())
                for line in out.splitlines()[1:]
            ]
        if lines != golden:
            return "differs from tests/golden/validate.csv"
        return None

    return check


# --------------------------------------------------------------------------
# Input generation


def _golden(golden_dir: Path, name: str) -> list[str]:
    return (golden_dir / name).read_text(encoding="utf-8").splitlines()


def _windows(n: int, at_start: bool) -> list[tuple[int, int]]:
    """Cover range(n) with windows of 2 consecutive grid values; an odd grid
    gets one window that overlaps its neighbour, at the start or the end."""
    starts = list(range(0, n - 1, 2))
    if n % 2:
        starts = [0, *range(1, n - 1, 2)] if at_start else [*starts, n - 2]
    return [(lo, lo + 2) for lo in starts]


def _half(windows: list, odd: bool) -> list:
    """Every other window: neighbours cost about the same, so either half of a
    grid costs about half of it, whichever half the seed picks."""
    return windows[int(odd) :: 2]


def figures_items(rng: random.Random, golden_dir: Path) -> list[Item]:
    """Half the rows of fig3..5 (and so of fig6, fig7), one sub-sweep per item.

    The seed picks the half; all of them take about 15 s on a 2-core x86-64
    VM, too long to repeat often in one run.
    """
    items = []
    for name, param, start, stop, steps in FIGURES:
        lines = _golden(golden_dir, name)
        header, rows = lines[0], lines[1:]
        by_class = {c: [r for r in rows if r.startswith(c + ",")] for c in CHIRALITIES}
        if name == "fig5.csv":
            for subset, chirality in FIG5_SUBSETS.items():
                if _golden(golden_dir, subset) != [header, *by_class[chirality]]:
                    raise ValueError(f"{subset} is no longer the {chirality} rows of {name}")
        grid = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
        for chirality in CHIRALITIES:
            if len(by_class[chirality]) != steps:
                raise ValueError(f"{name}: expected {steps} {chirality} rows")
            for lo, hi in _half(_windows(steps, rng.random() < 0.5), rng.random() < 0.5):
                argv = [
                    "sweep", "--param", param,
                    "--from", repr(grid[lo]), "--to", repr(grid[hi - 1]),
                    "--steps", str(hi - lo), "--chirality", chirality,
                ]
                expected = "\n".join([header, *by_class[chirality][lo:hi]]) + "\n"
                items.append(cli_item(argv, _bytes_check(expected, name)))
    rng.shuffle(items)
    return items


def _bytes_check(expected: str, name: str):
    def check(out: str, err: str) -> str | None:
        return None if out == expected else f"rows differ from tests/golden/{name}"

    return check


def _stratified(rng: random.Random, n: int, dims: int = 4) -> list[tuple[float, ...]]:
    """n points of [0, 1)^dims with one point in each of n equal slices of
    every axis (a Latin hypercube): a pass's mean cost then varies far less
    from seed to seed than with independent draws."""
    axes = []
    for _ in range(dims):
        slices = list(range(n))
        rng.shuffle(slices)
        axes.append([(k + rng.random()) / n for k in slices])
    return list(zip(*axes))


def _crack_draw(u: tuple[float, ...]) -> tuple[float, float, float, float]:
    """beta, eta, alpha, psi of one cracked problem from a point of [0, 1)^4."""
    beta = 0.5 + 2.5 * u[0]
    return beta, 4.0 * u[1], beta * (0.1 + 0.8 * u[2]), 0.1 + 0.7 * u[3]


def _geometry(chirality: str | None) -> tuple[float, float]:
    """(wall thickness, arch radius) the CLI scales the crack compliance by."""
    if chirality is None:
        return (1.0, 1.0)
    tube = model.resolve_preset(model.ChiralityClass(chirality), cli.load_presets())
    return (tube.wall_thickness, tube.radius)


def _theta(psi: float, chirality: str | None) -> float:
    return crack.compliance(crack.PowerLawCompliance(), psi, _geometry(chirality))


def _problem_flags(rng: random.Random, u: tuple[float, ...], cracked: bool):
    """CLI flags of a random problem, its beta, and the maker of the check of
    its eigenvalues (called with the first mode reported)."""
    beta, eta, alpha, psi = _crack_draw(u)
    chirality = rng.choice((None, *CHIRALITIES))
    argv = ["--beta", repr(beta), "--eta", repr(eta)]
    if chirality is not None:
        argv += ["--chirality", chirality]
    if not cracked:
        return argv, beta, lambda first: closed_form_error(beta, eta, first)
    argv += ["--crack-psi", repr(psi), "--crack-alpha", repr(alpha)]
    theta = _theta(psi, chirality)
    return argv, beta, lambda first: shooting_error(beta, eta, alpha, theta, first)


def _malformed(rng: random.Random) -> list[str]:
    return rng.choice(
        (
            ["freq", "--beta", repr(-rng.uniform(0.1, 3.0))],
            ["freq", "--beta", repr(rng.uniform(6.5, 10.0))],
            ["freq", "--eta", "1", "--eta-nm2", "1"],
            ["freq", "--eta-nm2", repr(rng.uniform(0.1, 2.0))],
            ["freq", "--chirality", "graphene"],
            ["freq", "--n", str(rng.randint(1, 20))],
            ["freq", "--modes", "abc"],
            ["freq", "--bogus"],
            ["sweep"],
            ["modeshape", "--mode", "0"],
            ["modeshape", "--samples", "1"],
            ["validate", "--beta", repr(rng.uniform(0.6, 3.0))],
        )
    )


def query_items(rng: random.Random, golden_dir: Path) -> list[Item]:
    validate_golden = _golden(golden_dir, "validate.csv")
    items = []
    for kind, count in QUERY_MIX.items():
        for i, u in enumerate(_stratified(rng, count)):
            fmt = ("table", "csv", "json")[i % 3]
            if kind.startswith("freq"):
                flags, _, roots_ok = _problem_flags(rng, u, kind == "freq-cracked")
                # Five modes are what the default search range is documented to
                # cover; eight fit below it for every drawn problem.
                modes = rng.randint(1, 8)
                argv = ["freq", *flags, "--modes", str(modes), "--format", fmt]
                items.append(cli_item(argv, freq_check(fmt, modes, roots_ok(1))))
            elif kind.startswith("modeshape"):
                cracked = kind == "modeshape-cracked"
                flags, beta, roots_ok = _problem_flags(rng, u, cracked)
                fmt = ("csv", "json")[i % 2]
                mode = rng.randint(1, 3)
                argv = [
                    "modeshape", *flags, "--mode", str(mode),
                    "--samples", str(MODESHAPE_SAMPLES), "--format", fmt,
                ]
                check = modeshape_check(fmt, beta, mode, roots_ok(mode), sine=not cracked)
                items.append(cli_item(argv, check))
            elif kind == "validate":
                argv = ["validate", "--format", fmt]
                items.append(cli_item(argv, validate_check(fmt, validate_golden)))
            else:
                items.append(usage_error_item(_malformed(rng)))
    rng.shuffle(items)
    return items


def cracked_item(beta: float, eta: float, alpha: float, theta: float) -> Item:
    """One cracked problem solved by the solver itself, five modes."""
    problem = model.ArchProblem(beta, eta, model.CrackJoint(alpha, theta))
    config = solver.SearchConfig(max_modes=CRACKED_MODES)
    roots_ok = shooting_error(beta, eta, alpha, theta)

    def check(spectrum) -> str | None:
        return spectrum_error(spectrum.K_values, CRACKED_MODES, roots_ok)

    label = f"find_frequencies beta={beta!r} eta={eta!r} alpha={alpha!r} theta_c={theta!r}"
    # Looked up at call time, so that a traced pass reaches the wrapper.
    return Item(label, lambda: solver.find_frequencies(problem, config), check)


def cracked_items(rng: random.Random) -> list[Item]:
    """Cracked problems, the crack's compliance scaled by the armchair preset's geometry."""
    items = []
    for u in _stratified(rng, CRACKED_PROBLEMS):
        beta, eta, alpha, psi = _crack_draw(u)
        items.append(cracked_item(beta, eta, alpha, _theta(psi, "armchair")))
    return items


def build(workload: str, seed: int, golden_dir: Path) -> list[Item]:
    """The items of one pass of ``workload``; the same seed gives the same items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figures":
        return figures_items(rng, golden_dir)
    if workload == "cracked":
        return cracked_items(rng)
    if workload == "queries":
        return query_items(rng, golden_dir)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# Known defects


def known_defect_probes(seed: int) -> list[Item]:
    """Requests that fail today because of defects listed in ROADMAP.md.

    Each states the behaviour a correct program has; a fix makes its check
    pass and lowers the reported known-defect failure count.
    """
    rng = random.Random(f"defects:{seed}")
    modes = rng.randint(16, 20)
    double_beta = math.pi / math.sqrt(0.4)  # K_1 = K_2 = 0.36 at eta = 0
    psi = rng.uniform(0.1, 0.8)
    return [
        # Short spectrum: the default search range holds 15 roots here.
        cli_item(
            ["freq", "--beta", "1", "--eta", "1", "--modes", str(modes), "--format", "csv"],
            freq_check("csv", modes, closed_form_error(1.0, 1.0)),
        ),
        # A double root must be reported twice.
        cli_item(
            ["freq", "--beta", repr(double_beta), "--eta", "0", "--modes", "2", "--format", "json"],
            freq_check("json", 2, closed_form_error(double_beta, 0.0)),
        ),
        # Bad input must give exit code 2, not a traceback.
        usage_error_item(["freq", "--eta", "nan"]),
        usage_error_item(["freq", "--crack-psi", repr(psi), "--crack-alpha", "1e-12"]),
    ]
