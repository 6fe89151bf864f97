"""Parameter sweeps and the near-straight validation table.

A sweep varies one of {central angle, nonlocal parameter, arch radius} while
holding the rest of the context fixed, solves for the requested mode at each
point and chirality class in turn, and emits rows ready for CSV serialization.
Every point is reduced through :func:`model.nondimensionalize`. A range that
is invalid input at either end raises :class:`InvalidSpec` before anything is
solved; a point that cannot be solved keeps its row, with a blank K and a note
saying why (``no-root``, ``crack-outside``).
"""

from __future__ import annotations

import math

from . import model, solver
from ._record import record, replace
from .errors import DegenerateSegment, InvalidSpec, NoRootsInRange
from .model import _fmt

CSV_HEADER = "chirality,beta_rad,eta_nd,radius_m,alpha_rad,psi,mode,K,omega_nd,omega_rad_s,note"

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


@record
class SweepSpec:
    """One sweep: the varied parameter, its grid, the tubes and the fixed context.

    ``tubes`` maps each chirality class to its tube, in row order. ``beta``,
    ``eta_nd``/``eta_physical`` (m^2; exactly one of the two) and ``crack``
    are the keywords of :func:`model.nondimensionalize`, and the swept
    parameter replaces its own at every point: a ``radius`` sweep sets each
    tube's radius, and an ``eta`` sweep always sweeps the dimensionless
    value. A fixed ``eta_physical`` makes the dimensionless value track the
    (possibly swept) radius.
    """

    parameter: str
    start: float
    stop: float
    steps: int
    tubes: dict[model.ChiralityClass, model.PhysicalTube]
    mode: int = 1
    beta: float = 1.0
    eta_nd: float | None = None
    eta_physical: float | None = None
    crack: model.CrackSpec | None = None

    def __post_init__(self):
        if self.parameter not in _PARAMETERS:
            raise InvalidSpec(f"parameter must be one of {_PARAMETERS}")
        if self.steps < 2:
            raise InvalidSpec("a sweep needs at least 2 steps")
        if not -math.inf < self.start < self.stop < math.inf:
            raise InvalidSpec("sweep range must be finite with start < stop")
        if (self.eta_nd is None) == (self.eta_physical is None):
            raise InvalidSpec("give exactly one of eta_nd and eta_physical")
        if self.mode < 1:
            raise InvalidSpec("mode index must be >= 1")
        if not self.tubes:
            raise InvalidSpec("a sweep needs at least one tube")


@record
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
    inputs = dict(beta=spec.beta, eta_nd=spec.eta_nd, eta_physical=spec.eta_physical)
    if spec.parameter == "radius":
        tube = replace(tube, radius=value)
    elif spec.parameter == "eta":
        inputs.update(eta_nd=value, eta_physical=None)
    else:
        inputs["beta"] = value
    return tube, model.nondimensionalize(tube, crack=crack, **inputs)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep grid in parameter-major order.

    Produces ``steps * len(tubes)`` rows, the classes of each grid value in
    the order of ``tubes``. Before anything is solved, both ends of the range
    are reduced for each tube: validity is monotone in the swept value, so a
    range with an invalid tube, central angle or nonlocal parameter raises
    :class:`InvalidSpec`, and so does a mode beyond :data:`solver.MAX_MODES`.
    Each point is then reduced and solved in turn
    (:func:`solver.find_frequencies`). A point that fails keeps its row with
    a blank K and a note: ``no-root`` (the search range holds fewer roots
    than the mode index) or ``crack-outside`` (the crack angle does not fit
    that arch).
    """
    grid = _linspace(spec.start, spec.stop, spec.steps)
    for tube in spec.tubes.values():
        for end in (grid[0], grid[-1]):
            try:
                _reduce(spec, end, tube, spec.crack)
            except DegenerateSegment:
                pass  # a crack-outside row, not an invalid range
            except ValueError as exc:
                raise InvalidSpec(f"{spec.parameter} = {end:g}: {exc}") from None
    try:
        cfg = solver.SearchConfig(max_modes=spec.mode)
    except ValueError as exc:  # a mode beyond solver.MAX_MODES
        raise InvalidSpec(str(exc)) from None
    rows = []
    for value in grid:
        for chirality, tube in spec.tubes.items():
            k_value, note = None, ""
            try:
                point_tube, problem = _reduce(spec, value, tube, spec.crack)
            except DegenerateSegment:
                point_tube, problem = _reduce(spec, value, tube, None)
                note = "crack-outside"
            else:
                try:
                    k_value = solver.find_frequencies(problem, cfg).roots[-1].K
                except NoRootsInRange:
                    note = "no-root"
            solved = k_value is not None
            rows.append(
                SweepRow(
                    chirality=chirality.value,
                    beta_rad=problem.beta,
                    eta_nd=problem.eta_nd,
                    radius_m=point_tube.radius,
                    alpha_rad=spec.crack.position_angle if spec.crack is not None else 0.0,
                    psi=spec.crack.depth_ratio if spec.crack is not None else 0.0,
                    mode=spec.mode,
                    K=k_value,
                    omega_nd=model.omega_nd(k_value, problem.beta) if solved else None,
                    omega_rad_s=model.omega_from_K(k_value, point_tube) if solved else None,
                    note=note,
                )
            )
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows with the fixed header, 9 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        context = map(_fmt, (r.beta_rad, r.eta_nd, r.radius_m, r.alpha_rad, r.psi))
        result = map(_fmt, (r.K, r.omega_nd, r.omega_rad_s))
        lines.append(",".join([r.chirality, *context, str(r.mode), *result, r.note]))
    return "\n".join(lines) + "\n"


@record
class ValidationRow:
    mode: int
    eta: float
    present: float
    thai: float
    omega_nd: float


def validation_table(beta_small: float = 0.05) -> list[ValidationRow]:
    """Computed near-straight frequencies next to the published reference columns.

    For each nonlocal value of :data:`REFERENCE_TABLE` the fundamental of the
    uncracked arch is reported as Omega = sqrt(K1) * beta^2, K1 its closed
    form (:func:`model.uncracked_K_closed_form`): at beta <= 0.5 < pi no mode
    falls, so K1 is the first root :func:`solver.find_frequencies` gives.
    Agreement with the reference columns is reported, not asserted; their
    normalization is only pinned in the classical limit, where
    Omega -> pi^2 as beta -> 0.
    """
    if not model.BETA_MIN <= beta_small <= 0.5:
        raise InvalidSpec(
            f"validation requires a small central angle in [{model.BETA_MIN:g}, 0.5]"
        )
    rows = []
    for eta, (present, thai) in REFERENCE_TABLE.items():
        eta = float(eta)
        omega = model.omega_nd(model.uncracked_K_closed_form(1, beta_small, eta), beta_small)
        rows.append(ValidationRow(mode=1, eta=eta, present=present, thai=thai, omega_nd=omega))
    return rows


def validation_to_csv(rows: list[ValidationRow]) -> str:
    lines = ["mode,eta,present,thai,omega_nd"]
    for r in rows:
        values = map(_fmt, (r.eta, r.present, r.thai, r.omega_nd))
        lines.append(",".join([str(r.mode), *values]))
    return "\n".join(lines) + "\n"
