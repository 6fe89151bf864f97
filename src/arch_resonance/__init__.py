"""Natural frequencies and mode shapes of cracked curved nanobeams.

The pipeline: describe a tube (:mod:`arch_resonance.model`), reduce it to the
dimensionless arch problem, find eigenvalues as boundary-determinant roots
(:mod:`arch_resonance.solver` over :mod:`arch_resonance.kernel`), and map them
back to frequencies. :mod:`arch_resonance.sweep` and :mod:`arch_resonance.cli`
drive parameter studies and file output.

Every exported name resolves on first access (PEP 562): ``import
arch_resonance`` loads no submodule until a name is used.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the names the package exports from it.
_EXPORTS = {
    "crack": (
        "DEFAULT_KAPPA0", "ComplianceModel", "PolynomialCompliance", "PowerLawCompliance",
        "compliance",
    ),
    "errors": (
        "DegenerateSegment", "DoubleRoot", "InvalidModel", "InvalidPreset", "InvalidSpec",
        "MissingPreset", "NoRootsInRange", "OutOfRange", "UsageError",
    ),
    # The kernel's functions, and the solver's search internals, are reached
    # through their modules.
    "kernel": (),
    "model": (
        "ArchProblem", "ChiralityClass", "ChiralitySpec", "CrackJoint", "CrackSpec",
        "PhysicalTube", "classify_chirality", "nondimensionalize", "omega_from_K", "omega_nd",
        "resolve_preset", "tube_diameter", "uncracked_K_closed_form",
    ),
    "solver": ("Root", "SearchConfig", "Spectrum", "find_frequencies", "mode_shape"),
    "sweep": (
        "REFERENCE_TABLE", "SweepRow", "SweepSpec", "ValidationRow", "run_sweep",
        "validation_table",
    ),
}
# Exported name -> the submodule that defines it; a submodule names itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule behind ``name`` on first access and keep the value."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
