"""Exact logarithmic series solutions of A-hypergeometric (GKZ) systems.

All arithmetic is exact rational; there is no floating point anywhere in
the package.  See the README for the problem-file schema, the series
text format, and the command-line interface.
"""

from .ci_mirror import (
    CISpec,
    MirrorMap,
    build_system,
    integrality_report,
    mirror_map,
    positive_grading,
)
from .coefficients import (
    UniLogPoly,
    bracket,
    bracket_vec,
    chain_constants,
    elem_sym_shifted,
    f_coeffs,
    mono_sum_shifted,
)
from .errors import (
    DegenerateHull,
    GkzError,
    MinimalityViolation,
    NoPositiveFunctional,
    NonLatticeExponent,
    PoleAtShift,
    ProblemFileError,
    ResourceLimit,
    UndefinedBracket,
)
from .lattice import IntMatrix, RelationLattice, kernel_basis
from .logseries import (
    LogSeries,
    LogTerm,
    SeriesMeta,
    build_tail,
    combine,
    from_text,
    log_free_coefficients,
    tails_read,
    to_text,
)
from .operators import (
    BoxOp,
    CertifiedReport,
    EulerOp,
    apply_box,
    apply_euler,
    differentiate,
    verify_box_annihilation,
    verify_euler_annihilation,
)
from .polytope import (
    Polytope,
    has_unique_interior_point,
    interior_lattice_points,
    minkowski_hull,
)
from .support import SupportBox, SupportVerdict, nsupp

__version__ = "0.1.0"

__all__ = [
    "CISpec",
    "MirrorMap",
    "build_system",
    "integrality_report",
    "mirror_map",
    "positive_grading",
    "UniLogPoly",
    "bracket",
    "bracket_vec",
    "chain_constants",
    "elem_sym_shifted",
    "f_coeffs",
    "mono_sum_shifted",
    "DegenerateHull",
    "GkzError",
    "MinimalityViolation",
    "NoPositiveFunctional",
    "NonLatticeExponent",
    "PoleAtShift",
    "ProblemFileError",
    "ResourceLimit",
    "UndefinedBracket",
    "IntMatrix",
    "RelationLattice",
    "kernel_basis",
    "LogSeries",
    "LogTerm",
    "SeriesMeta",
    "build_tail",
    "combine",
    "from_text",
    "log_free_coefficients",
    "tails_read",
    "to_text",
    "BoxOp",
    "CertifiedReport",
    "EulerOp",
    "apply_box",
    "apply_euler",
    "differentiate",
    "verify_box_annihilation",
    "verify_euler_annihilation",
    "Polytope",
    "has_unique_interior_point",
    "interior_lattice_points",
    "minkowski_hull",
    "SupportBox",
    "SupportVerdict",
    "nsupp",
]
