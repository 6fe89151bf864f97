"""Rotational-spring compliance of a part-through crack.

A crack of depth ratio ``psi = c/h`` is represented downstream as a massless
rotational spring producing a slope jump proportional to the local curvature.
The literature offers several flexibility functions for this mapping; none is
canonical for a circular thin-walled section, so this module ships a
documented power-law default and accepts user polynomials, both satisfying
the same contract: zero at ``psi = 0``, nonnegative and nondecreasing on
``[0, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidModel, OutOfRange

# Order-of-magnitude consistent with single-edge-crack flexibility results.
DEFAULT_KAPPA0 = 6.0 * math.pi

_VALIDATION_GRID_POINTS = 1000
_VALIDATION_GRID_END = 0.95


@dataclass(frozen=True)
class PowerLawCompliance:
    """theta_c = kappa0 * (h/R) * psi**2 / (1 - psi)**2."""

    name: str = "power-law"
    kappa0: float = DEFAULT_KAPPA0

    def __post_init__(self):
        if self.kappa0 < 0:
            raise InvalidModel("kappa0 must be nonnegative")

    def raw(self, psi: float) -> float:
        """Dimensionless compliance before the h/R geometry factor."""
        r = psi / (1.0 - psi)
        return self.kappa0 * (r * r)  # grouped so theta is exactly linear in kappa0


@dataclass(frozen=True)
class PolynomialCompliance:
    """theta_c = scale * (h/R) * sum(c_i * psi**i).

    Intended for transplanting a flexibility polynomial from the literature.
    The constant term must be zero (an intact section has no compliance) and
    the polynomial must be nonnegative on a 1000-point grid of [0, 0.95];
    violations raise :class:`InvalidModel` at construction.
    """

    name: str
    coefficients: tuple[float, ...] = field(default=())
    scale: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise InvalidModel("polynomial model needs at least one coefficient")
        if coeffs[0] != 0.0:
            raise InvalidModel("polynomial constant term must be zero")
        if self.scale < 0:
            raise InvalidModel("scale must be nonnegative")
        for i in range(_VALIDATION_GRID_POINTS):
            psi = _VALIDATION_GRID_END * i / (_VALIDATION_GRID_POINTS - 1)
            if self._poly(psi) < 0.0:
                raise InvalidModel(
                    f"polynomial compliance is negative at psi={psi:.4f}"
                )

    def _poly(self, psi: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * psi + c
        return acc

    def raw(self, psi: float) -> float:
        return self.scale * self._poly(psi)


ComplianceModel = PowerLawCompliance | PolynomialCompliance


def compliance(
    model: ComplianceModel,
    psi: float,
    geometry: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Dimensionless rotational compliance theta_c for depth ratio ``psi``.

    ``geometry`` is (wall thickness, arch radius); the compliance of a local
    hinge enters the slope-jump condition scaled by their ratio h/R. Pass the
    default (1, 1) to disable the geometry factor for purely nondimensional
    studies.
    """
    if not 0.0 <= psi < 1.0:
        raise OutOfRange(f"depth ratio must lie in [0, 1), got {psi}")
    h, radius = geometry
    if h <= 0 or radius <= 0:
        raise ValueError("geometry factors must be positive")
    return (h / radius) * model.raw(psi)
