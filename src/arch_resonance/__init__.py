"""Natural frequencies and mode shapes of cracked curved nanobeams.

The pipeline: describe a tube (:mod:`arch_resonance.model`), reduce it to the
dimensionless arch problem, find eigenvalues as boundary-determinant roots
(:mod:`arch_resonance.solver` over :mod:`arch_resonance.kernel`), and map them
back to frequencies. :mod:`arch_resonance.sweep` and :mod:`arch_resonance.cli`
drive parameter studies and file output.
"""

__version__ = "0.1.0"

from .crack import (
    DEFAULT_KAPPA0,
    ComplianceModel,
    PolynomialCompliance,
    PowerLawCompliance,
    compliance,
)
from .errors import (
    DegenerateSegment,
    InvalidModel,
    InvalidPreset,
    InvalidSpec,
    MissingPreset,
    NoRootsInRange,
    OutOfRange,
    UsageError,
)
from .kernel import (
    BoundaryMatrix,
    Branch,
    CharCoeffs,
    ModeBasis,
    assemble_cracked,
    assemble_uncracked,
    characteristic_coefficients,
    det_sign_logmag,
    null_vector,
    quartic_roots,
    uncracked_K_closed_form,
)
from .model import (
    ArchProblem,
    ChiralityClass,
    ChiralitySpec,
    CrackJoint,
    CrackSpec,
    PhysicalTube,
    classify_chirality,
    nondimensionalize,
    omega_from_K,
    omega_nd,
    resolve_preset,
    tube_diameter,
)
from .solver import (
    Root,
    RootFlag,
    ScanResult,
    SearchConfig,
    Spectrum,
    boundary_determinant,
    boundary_matrix,
    find_frequencies,
    mode_shape,
    refine_root,
    scan_and_bracket,
)
from .sweep import (
    REFERENCE_TABLE,
    SweepRow,
    SweepSpec,
    ValidationRow,
    rows_to_csv,
    run_sweep,
    validation_table,
    validation_to_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
