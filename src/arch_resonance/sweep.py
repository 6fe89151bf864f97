"""Parameter sweeps and the near-straight validation table.

A sweep varies one of {central angle, nonlocal parameter, arch radius} while
holding the rest of the context fixed, solves for the requested mode at each
point and chirality class in turn, and yields one row per point and class.
Every point is reduced through :func:`model.nondimensionalize`. A range that
is invalid input at either end makes :class:`SweepSpec` raise
:class:`InvalidSpec`, so nothing is solved; a point that cannot be solved
keeps its row, with a blank K and a note saying why (``no-root``,
``crack-outside``).
"""

from __future__ import annotations

import math

from . import model, solver
from ._record import record, replace
from .errors import DegenerateSegment, InvalidSpec, NoRootsInRange

_PARAMETERS = ("beta", "eta", "radius")
# The most grid values a sweep takes, so that what it allocates is bounded: at
# the bound, a cracked JSON sweep of all three classes takes about 33 s and
# 790 MB (2-core x86-64 VM), where 10**11 steps run out of memory.
MAX_STEPS = 10**5

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

    Both ends of the range are reduced for each tube: validity is monotone in
    the swept value, so a range with an invalid tube, central angle or
    nonlocal parameter raises :class:`InvalidSpec`, and so does a mode beyond
    :data:`solver.MAX_MODES`.
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
        if self.steps > MAX_STEPS:
            raise InvalidSpec(f"a sweep takes at most {MAX_STEPS} steps")
        if not -math.inf < self.start < self.stop < math.inf:
            raise InvalidSpec("sweep range must be finite with start < stop")
        if (self.eta_nd is None) == (self.eta_physical is None):
            raise InvalidSpec("give exactly one of eta_nd and eta_physical")
        if self.mode < 1:
            raise InvalidSpec("mode index must be >= 1")
        if not self.tubes:
            raise InvalidSpec("a sweep needs at least one tube")
        span, last = self.stop - self.start, self.steps - 1
        for tube in self.tubes.values():
            for i in (0, last):
                end = self.start + span * i / last  # _linspace's first and last value
                try:
                    _reduce(self, end, tube, self.crack)
                except DegenerateSegment:
                    pass  # a crack-outside row, not an invalid range
                except ValueError as exc:
                    raise InvalidSpec(f"{self.parameter} = {end:g}: {exc}") from None
        if self.mode > solver.MAX_MODES:
            raise InvalidSpec(f"max_modes must be at most {solver.MAX_MODES}")


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


def _linspace(start: float, stop: float, steps: int):
    span, last = stop - start, steps - 1
    return (start + span * i / last for i in range(steps))


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


def run_sweep(spec: SweepSpec):
    """Yield the sweep's rows in parameter-major order, each as it is solved.

    Yields ``steps * len(tubes)`` rows, the classes of each grid value in the
    order of ``tubes``; ``list(run_sweep(spec))`` is all of them. Each point
    is reduced and solved in turn (:func:`solver.find_frequencies`). A point
    that fails keeps its row with a blank K and a note: ``no-root`` (the
    search range holds fewer roots than the mode index) or ``crack-outside``
    (the crack angle does not fit that arch).
    """
    return (SweepRow(*values) for values in row_values(spec))


def row_values(spec: SweepSpec):
    """Yield each row of :func:`run_sweep` as the tuple of its fields, in order."""
    cfg = solver.SearchConfig(max_modes=spec.mode)
    crack = spec.crack
    alpha, psi = (0.0, 0.0) if crack is None else (crack.position_angle, crack.depth_ratio)
    for value in _linspace(spec.start, spec.stop, spec.steps):
        for chirality, tube in spec.tubes.items():
            k_value, note = None, ""
            try:
                point_tube, problem = _reduce(spec, value, tube, crack)
            except DegenerateSegment:
                point_tube, problem = _reduce(spec, value, tube, None)
                note = "crack-outside"
            else:
                try:
                    k_value = solver.find_frequencies(problem, cfg).roots[-1].K
                except NoRootsInRange:
                    note = "no-root"
            omegas = (None, None) if k_value is None else (
                model.omega_nd(k_value, problem.beta), model.omega_from_K(k_value, point_tube))
            yield (chirality.value, problem.beta, problem.eta_nd, point_tube.radius, alpha, psi,
                   spec.mode, k_value, *omegas, note)


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
    return [ValidationRow(*values) for values in validation_values(beta_small)]


def validation_values(beta_small: float = 0.05) -> list[tuple]:
    """Each row of :func:`validation_table` as the tuple of its fields, in order."""
    if not model.BETA_MIN <= beta_small <= 0.5:
        raise InvalidSpec(
            f"validation requires a small central angle in [{model.BETA_MIN:g}, 0.5]"
        )
    return [(1, float(eta), present, thai,
             model.omega_nd(model.uncracked_K_closed_form(1, beta_small, eta), beta_small))
            for eta, (present, thai) in REFERENCE_TABLE.items()]
