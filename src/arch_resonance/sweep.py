"""Parameter sweeps and the near-straight validation table.

A sweep varies one of {central angle, nonlocal parameter, arch radius} while
holding the rest of the context fixed, solves for the requested mode at every
point and per chirality class, and emits rows ready for CSV serialization.
Every point is reduced through :func:`model.nondimensionalize`. A range that
is invalid input at either end raises :class:`InvalidSpec` before anything is
solved; a point that cannot be solved keeps its row, with a blank K and a note
saying why (``no-root``, ``crack-outside``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from . import model, solver
from .errors import DegenerateSegment, InvalidPreset, InvalidSpec, MissingPreset, NoRootsInRange

CSV_HEADER = "chirality,beta_rad,eta_nd,radius_m,alpha_rad,psi,mode,K,omega_nd,omega_rad_s,note"

_CANONICAL_ORDER = (
    model.ChiralityClass.ARMCHAIR,
    model.ChiralityClass.ZIGZAG,
    model.ChiralityClass.CHIRAL,
)

_PARAMETERS = ("beta", "eta", "radius")

# Mode-1 reference values for the uncracked near-straight limit, printed next
# to the computed column by the validation table: eta -> (present, thai).
REFERENCE_TABLE: dict[int, tuple[float, float]] = {
    0: (9.75821, 9.2745),
    1: (7.05584, 8.8482),
    2: (5.80188, 8.4757),
    3: (5.04192, 8.1466),
    4: (4.51883, 7.8530),
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the varied parameter, its grid, and the fixed context.

    ``eta_kind`` selects how the nonlocal parameter is held: ``"nd"`` fixes
    the dimensionless value directly, ``"physical"`` fixes the material
    constant in m^2 so the dimensionless value tracks the (possibly swept)
    radius. An ``eta`` sweep always sweeps the dimensionless value.
    """

    parameter: str
    start: float
    stop: float
    steps: int
    presets: Mapping[str, Mapping[str, float]]
    chirality_set: tuple[model.ChiralityClass, ...] = _CANONICAL_ORDER
    mode: int = 1
    beta: float = 1.0
    eta_kind: str = "nd"
    eta_value: float = 1.0
    radius_m: float | None = None
    crack: model.CrackSpec | None = None

    def __post_init__(self):
        if self.parameter not in _PARAMETERS:
            raise InvalidSpec(f"parameter must be one of {_PARAMETERS}")
        if self.steps < 2:
            raise InvalidSpec("a sweep needs at least 2 steps")
        if not -math.inf < self.start < self.stop < math.inf:
            raise InvalidSpec("sweep range must be finite with start < stop")
        if self.eta_kind not in ("nd", "physical"):
            raise InvalidSpec("eta_kind must be 'nd' or 'physical'")
        if self.mode < 1:
            raise InvalidSpec("mode index must be >= 1")
        if not self.chirality_set:
            raise InvalidSpec("chirality_set must not be empty")
        ordered = tuple(c for c in _CANONICAL_ORDER if c in self.chirality_set)
        object.__setattr__(self, "chirality_set", ordered)


@dataclass(frozen=True)
class SweepRow:
    chirality: str
    beta_rad: float
    eta_nd: float | None
    radius_m: float
    alpha_rad: float
    psi: float
    mode: int
    K: float | None
    omega_nd: float | None
    omega_rad_s: float | None
    note: str = ""


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    span = stop - start
    return [start + span * i / (steps - 1) for i in range(steps)]


def _reduce(
    spec: SweepSpec,
    value: float,
    tube: model.PhysicalTube,
    crack: model.CrackSpec | None,
) -> tuple[model.PhysicalTube, model.ArchProblem]:
    """The tube and the dimensionless problem at one grid value."""
    if spec.parameter == "radius":
        tube = replace(tube, radius=value)
    elif spec.radius_m is not None:
        tube = replace(tube, radius=spec.radius_m)
    beta = value if spec.parameter == "beta" else spec.beta
    if spec.parameter == "eta":
        eta_nd, eta_physical = value, None
    elif spec.eta_kind == "nd":
        eta_nd, eta_physical = spec.eta_value, None
    else:
        eta_nd, eta_physical = None, spec.eta_value
    problem = model.nondimensionalize(tube, eta_physical, crack, beta=beta, eta_nd=eta_nd)
    return tube, problem


def _solve_point(
    spec: SweepSpec, value: float, chirality: model.ChiralityClass, preset: model.PhysicalTube
) -> SweepRow:
    k_value = None
    note = ""
    try:
        tube, problem = _reduce(spec, value, preset, spec.crack)
    except DegenerateSegment:
        tube, problem = _reduce(spec, value, preset, None)
        note = "crack-outside"
    else:
        cfg = solver.SearchConfig(max_modes=spec.mode)
        try:
            k_value = solver.find_frequencies(problem, cfg).roots[-1].K
        except NoRootsInRange:
            note = "no-root"
    solved = k_value is not None
    return SweepRow(
        chirality=chirality.value,
        beta_rad=problem.beta,
        eta_nd=problem.eta_nd,
        radius_m=tube.radius,
        alpha_rad=spec.crack.position_angle if spec.crack is not None else 0.0,
        psi=spec.crack.depth_ratio if spec.crack is not None else 0.0,
        mode=spec.mode,
        K=k_value,
        omega_nd=model.omega_nd(k_value, problem.beta) if solved else None,
        omega_rad_s=model.omega_from_K(k_value, tube) if solved else None,
        note=note,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep grid in parameter-major order.

    Produces ``steps * len(chirality_set)`` rows. Before anything is solved,
    both ends of the range are reduced for each chirality class: validity is
    monotone in the swept value, so a range with an invalid tube, central
    angle or nonlocal parameter raises :class:`InvalidSpec`, as does a missing
    or invalid preset. A point that fails keeps its row with a blank K and a
    note: ``no-root`` (the search range holds fewer roots than the mode
    index) or ``crack-outside`` (the crack angle does not fit that arch).
    """
    grid = _linspace(spec.start, spec.stop, spec.steps)
    tubes = {}
    for chirality in spec.chirality_set:
        try:
            tubes[chirality] = model.resolve_preset(chirality, spec.presets)
        except (MissingPreset, InvalidPreset) as exc:
            raise InvalidSpec(str(exc)) from None
        for end in (grid[0], grid[-1]):
            try:
                _reduce(spec, end, tubes[chirality], spec.crack)
            except DegenerateSegment:
                pass  # a crack-outside row, not an invalid range
            except ValueError as exc:
                raise InvalidSpec(f"{spec.parameter} = {end:g}: {exc}") from None
    rows = []
    for value in grid:
        for chirality in spec.chirality_set:
            rows.append(_solve_point(spec, value, chirality, tubes[chirality]))
    return rows


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return "%.9g" % x


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows with the fixed header, 9 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.chirality,
                    _fmt(r.beta_rad),
                    _fmt(r.eta_nd),
                    _fmt(r.radius_m),
                    _fmt(r.alpha_rad),
                    _fmt(r.psi),
                    str(r.mode),
                    _fmt(r.K),
                    _fmt(r.omega_nd),
                    _fmt(r.omega_rad_s),
                    r.note,
                )
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ValidationRow:
    mode: int
    eta: float
    present: float | None
    thai: float | None
    omega_nd: float


def validation_table(
    beta_small: float = 0.05,
    eta_list: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0),
) -> list[ValidationRow]:
    """Computed near-straight frequencies next to the published reference columns.

    For each nonlocal value the fundamental of the uncracked arch is solved
    and reported as Omega = sqrt(K1) * beta^2. Agreement with the reference
    columns is reported, not asserted; their normalization is only pinned in
    the classical limit, where Omega -> pi^2 as beta -> 0.
    """
    if not 0.0 < beta_small <= 0.5:
        raise InvalidSpec("validation requires a small central angle in (0, 0.5]")
    rows = []
    for eta in eta_list:
        problem = model.ArchProblem(beta=beta_small, eta_nd=eta)
        spectrum = solver.find_frequencies(problem, solver.SearchConfig(max_modes=1))
        omega = model.omega_nd(spectrum.roots[0].K, beta_small)
        ref = None
        if float(eta).is_integer():
            ref = REFERENCE_TABLE.get(int(eta))
        rows.append(
            ValidationRow(
                mode=1,
                eta=eta,
                present=ref[0] if ref else None,
                thai=ref[1] if ref else None,
                omega_nd=omega,
            )
        )
    return rows


def validation_to_csv(rows: list[ValidationRow]) -> str:
    lines = ["mode,eta,present,thai,omega_nd"]
    for r in rows:
        lines.append(
            ",".join(
                (str(r.mode), _fmt(r.eta), _fmt(r.present), _fmt(r.thai), _fmt(r.omega_nd))
            )
        )
    return "\n".join(lines) + "\n"
