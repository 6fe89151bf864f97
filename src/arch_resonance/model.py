"""Input types and unit bookkeeping for curved-nanotube vibration problems.

Chirality indices, tube geometry and material presets live here, together
with the reduction of a dimensional tube description to the dimensionless
:class:`ArchProblem` the solver consumes, and the reverse conversion from the
dimensionless eigenvalue K back to an angular frequency, and the uncracked
arch's closed-form eigenvalues. Internal units are
SI; the few helpers that speak nanometers say so explicitly.
"""

from __future__ import annotations

import enum
import math
import sys

from ._record import record
from .errors import DegenerateSegment, InvalidPreset, MissingPreset

DEFAULT_BOND_LENGTH_NM = 0.142
# Smallest central angle, rad. Eigenvalues grow like (pi/beta)^4 and the
# cracked determinant loses precision as they grow: at 1e-3 the cracked roots
# of random problems match an 80-digit shooting determinant, at 1e-4 half of
# them do not.
BETA_MIN = 1e-3
# Shortest segment a crack may leave at either side, rad.
SEGMENT_TOL = 1e-9
_FMT = "%.9g"  # 9 significant digits, every number the package writes


def _fmt(x: float | None) -> str:
    return "" if x is None else _FMT % x


class ChiralityClass(enum.Enum):
    ARMCHAIR = "armchair"
    ZIGZAG = "zigzag"
    CHIRAL = "chiral"


@record
class ChiralitySpec:
    """Roll-up indices (n, m) of the graphene sheet, canonicalized to m <= n.

    n^2 + n*m + m^2 must not exceed the largest float, so that
    :func:`tube_diameter` is a float.
    """

    n: int
    m: int
    bond_length: float = DEFAULT_BOND_LENGTH_NM  # nm

    def __post_init__(self):
        n, m = int(self.n), int(self.m)
        if m > n:
            n, m = m, n
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        if n < 1:
            raise ValueError(f"roll-up index n must be >= 1, got ({self.n}, {self.m})")
        if m < 0:
            raise ValueError("roll-up index m must be >= 0")
        if self.bond_length <= 0:
            raise ValueError("bond length must be positive")
        if n * n + n * m + m * m > sys.float_info.max:  # exact: int against float
            raise ValueError("roll-up indices too large: n^2 + n*m + m^2 exceeds the largest float")


def classify_chirality(spec: ChiralitySpec) -> ChiralityClass:
    """Armchair when n == m, zigzag when m == 0, chiral otherwise."""
    if spec.n == spec.m:
        return ChiralityClass.ARMCHAIR
    if spec.m == 0:
        return ChiralityClass.ZIGZAG
    return ChiralityClass.CHIRAL


def tube_diameter(spec: ChiralitySpec) -> float:
    """Tube diameter in nm from the standard roll-up geometry.

    d = (sqrt(3) * a_cc / pi) * sqrt(n^2 + n*m + m^2)
    """
    n, m = spec.n, spec.m
    return (math.sqrt(3.0) * spec.bond_length / math.pi) * math.sqrt(
        n * n + n * m + m * m
    )


@record
class PhysicalTube:
    """Dimensional description of one tube bent into an arch (SI units).

    ``mass_per_length`` folds the density-thickness product into a single
    effective inertia parameter. The second moment of area is always
    recomputed from the diameter, never stored. Every field, and I, E*I and
    mass_per_length*R^4 (:func:`omega_from_K`), must be finite and positive.
    """

    youngs_modulus: float  # Pa
    radius: float  # arch radius, m
    diameter: float  # tube cross-section diameter, m
    wall_thickness: float  # m
    mass_per_length: float  # kg/m

    def __post_init__(self):
        for name in (
            "youngs_modulus",
            "radius",
            "diameter",
            "wall_thickness",
            "mass_per_length",
        ):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.diameter >= 2.0 * self.radius:
            raise ValueError("tube diameter must be smaller than twice the arch radius")
        try:  # the factors of omega_from_K; ** raises OverflowError where * gives inf
            moment = self.moment_of_inertia
            factors = (moment, self.youngs_modulus * moment, self.mass_per_length * self.radius**4)
        except OverflowError:
            factors = (math.inf,)
        if not all(0.0 < f < math.inf for f in factors):
            raise ValueError("the tube's I, E*I and mass_per_length*R^4 must be finite and positive")

    @property
    def moment_of_inertia(self) -> float:
        """I = pi d^4 / 64, in m^4."""
        return math.pi * self.diameter**4 / 64.0


@record
class CrackSpec:
    """Physical crack description: position angle, depth ratio, compliance model."""

    position_angle: float  # rad, measured like phi from the left support
    depth_ratio: float  # psi = c/h in [0, 1)
    compliance_model: crack_models.ComplianceModel

    def __post_init__(self):
        if not 0.0 <= self.depth_ratio < 1.0:
            raise ValueError("depth ratio must lie in [0, 1)")
        if self.position_angle <= 0:
            raise ValueError("crack position angle must be positive")


@record
class CrackJoint:
    """Crack reduced to its dimensionless form: position plus spring compliance."""

    alpha: float  # rad
    theta_c: float  # dimensionless, >= 0


@record
class ArchProblem:
    """Complete nondimensional problem: central angle, nonlocal parameter, crack.

    Every field must be finite, the central angle must lie in [``BETA_MIN``,
    2*pi], and a crack angle must lie inside the arch, more than
    ``SEGMENT_TOL`` from either support (else :class:`DegenerateSegment`,
    checked last, so it marks a problem that is valid but for where its crack
    sits).
    """

    beta: float  # central angle, rad
    eta_nd: float  # dimensionless nonlocal parameter
    crack: CrackJoint | None = None

    def __post_init__(self):
        if not BETA_MIN <= self.beta <= 2.0 * math.pi:
            raise ValueError(f"central angle must lie in [{BETA_MIN:g}, 2*pi]")
        if not math.isfinite(self.eta_nd):
            raise ValueError("nonlocal parameter must be finite")
        if self.eta_nd < 0:
            raise ValueError("nonlocal parameter must be nonnegative")
        if self.crack is not None:
            alpha, theta_c = self.crack.alpha, self.crack.theta_c
            if not 0.0 <= theta_c < math.inf:
                raise ValueError("crack compliance must be finite and nonnegative")
            if not (alpha > SEGMENT_TOL and self.beta - alpha > SEGMENT_TOL):
                raise DegenerateSegment(
                    f"crack angle alpha={alpha} must lie inside the arch of "
                    f"beta={self.beta}, more than {SEGMENT_TOL} from either support"
                )


def resolve_preset(
    chirality: ChiralityClass,
    preset_table: dict[str, dict[str, float]],
) -> PhysicalTube:
    """Build a :class:`PhysicalTube` from a presets table.

    The table maps the lowercase class name to a flat entry with keys
    ``youngs_modulus_tpa``, ``wall_thickness_nm``, ``mass_per_length_kg_per_m``,
    ``arch_radius_nm`` and either ``diameter_nm`` or roll-up indices ``n``/``m``
    (plus optional ``bond_length_nm``); an index read as a float must be a
    finite integer, else :class:`InvalidPreset` names its key.
    """
    try:
        entry = preset_table[chirality.value]
    except KeyError:
        raise MissingPreset(f"no preset entry for {chirality.value!r}") from None

    def _get(key: str) -> float:
        try:
            return float(entry[key])
        except KeyError:
            raise InvalidPreset(
                f"preset {chirality.value!r} is missing key {key!r}"
            ) from None

    if "diameter_nm" in entry:
        d_nm = float(entry["diameter_nm"])
    elif "n" in entry and "m" in entry:
        bond = float(entry.get("bond_length_nm", DEFAULT_BOND_LENGTH_NM))
        for key in ("n", "m"):
            value = entry[key]
            if isinstance(value, float) and not value.is_integer():  # inf and nan too
                raise InvalidPreset(
                    f"preset {chirality.value!r}: {key} must be a finite integer, got {value!r}"
                )
        try:
            spec = ChiralitySpec(int(entry["n"]), int(entry["m"]), bond)
        except ValueError as exc:
            raise InvalidPreset(str(exc)) from None
        d_nm = tube_diameter(spec)
    else:
        raise InvalidPreset(
            f"preset {chirality.value!r} needs either 'diameter_nm' or 'n'/'m'"
        )

    values = dict(
        youngs_modulus=_get("youngs_modulus_tpa") * 1e12,
        radius=_get("arch_radius_nm") * 1e-9,
        diameter=d_nm * 1e-9,
        wall_thickness=_get("wall_thickness_nm") * 1e-9,
        mass_per_length=_get("mass_per_length_kg_per_m"),
    )
    try:
        return PhysicalTube(**values)
    except ValueError as exc:
        raise InvalidPreset(f"preset {chirality.value!r}: {exc}") from None


def nondimensionalize(
    tube: PhysicalTube | None,
    eta_physical: float | None = None,
    crack: CrackSpec | None = None,
    *,
    beta: float,
    eta_nd: float | None = None,
) -> ArchProblem:
    """Reduce a dimensional description to an :class:`ArchProblem`.

    The nonlocal parameter is given exactly once: either ``eta_physical``,
    the small-scale material constant in m^2, which enters the governing
    equation as ``eta_physical / R^2``, or the dimensionless ``eta_nd``
    itself. A crack's depth ratio is converted to a spring compliance
    through its model, scaled by the tube's h/R. Without a tube the geometry
    factor is 1, and a physical constant has no radius to scale by. Invalid
    input raises ``ValueError``, a crack angle outside the arch
    :class:`DegenerateSegment`.
    """
    if (eta_physical is None) == (eta_nd is None):
        raise ValueError("give exactly one of eta_physical and eta_nd")
    if eta_physical is not None:
        if tube is None:
            raise ValueError("a physical nonlocal constant needs a tube radius")
        eta_nd = eta_physical / tube.radius**2
    joint = None
    if crack is not None:
        from . import crack as crack_models

        geometry = (tube.wall_thickness, tube.radius) if tube is not None else (1.0, 1.0)
        theta = crack_models.compliance(crack.compliance_model, crack.depth_ratio, geometry)
        joint = CrackJoint(alpha=crack.position_angle, theta_c=theta)
    return ArchProblem(beta=beta, eta_nd=eta_nd, crack=joint)


def uncracked_K_closed_form(n: int, beta: float, eta_nd: float) -> float:
    """Exact eigenvalue of the simply supported uncracked arch for mode n.

    Substituting X = sin(n*pi*phi/beta) gives
    K_n = (lam^2 - 1)^2 / (1 + eta*lam^2) with lam = n*pi/beta.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if beta <= 0:
        raise ValueError("central angle must be positive")
    if eta_nd < 0:
        raise ValueError("nonlocal parameter must be nonnegative")
    lam2 = (n * math.pi / beta) ** 2
    return (lam2 - 1.0) ** 2 / (1.0 + eta_nd * lam2)


def omega_from_K(K: float, tube: PhysicalTube) -> float:
    """Angular frequency in rad/s for a dimensionless eigenvalue K.

    omega = sqrt(K * E * I / (mu * R^4)).
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    stiffness = tube.youngs_modulus * tube.moment_of_inertia
    return math.sqrt(K * stiffness / (tube.mass_per_length * tube.radius**4))


def omega_nd(K: float, beta: float) -> float:
    """Dimensionless frequency sqrt(K) * beta^2.

    This scale reduces to the classical simply supported beam frequency
    parameter in the straight limit beta -> 0, which makes it convenient for
    comparing against straight-beam references.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    return math.sqrt(K) * beta * beta
