"""Exception types shared across the package."""


class MissingPreset(LookupError):
    """A chirality class has no entry in the presets table."""


class InvalidPreset(ValueError):
    """A presets entry is incomplete or has a non-positive value."""


class OutOfRange(ValueError):
    """Crack depth ratio outside the admissible interval [0, 1)."""


class InvalidModel(ValueError):
    """Compliance model is unknown or violates the nonnegativity contract."""


class DegenerateSegment(ValueError):
    """Crack angle outside the arch or so close to a support that a segment vanishes.

    A sweep reports such a point as a ``crack-outside`` row: with a fixed
    crack angle, the swept arch may be too short to hold the crack.
    """


class NoRootsInRange(RuntimeError):
    """Fewer roots than requested, a dip among them, or a K range beyond double precision."""


class DoubleRoot(RuntimeError):
    """A mode shape was asked of a double root, whose shapes span a plane."""


class InvalidSpec(ValueError):
    """A sweep or validation request is internally inconsistent."""


class UsageError(Exception):
    """Command line invocation error; maps to exit code 2."""
