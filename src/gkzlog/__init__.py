"""Exact logarithmic series solutions of A-hypergeometric (GKZ) systems.

All arithmetic is exact rational; there is no floating point anywhere in
the package.  See the README for the problem-file schema, the series
text format, and the command-line interface.

The names below are resolved on first access (PEP 562): ``import
gkzlog`` loads no submodule, and ``gkzlog.mirror_map`` loads
``gkzlog.ci_mirror`` and what it imports, nothing else.
"""

from importlib import import_module

__version__ = "0.1.0"


# The module that defines each exported name, in the order of __all__.
_HOME = {
    "CISpec": "ci_mirror",
    "MirrorMap": "ci_mirror",
    "build_system": "ci_mirror",
    "integrality_report": "ci_mirror",
    "mirror_map": "ci_mirror",
    "positive_grading": "ci_mirror",
    "UniLogPoly": "coefficients",
    "chain_constants": "coefficients",
    "f_coeffs": "coefficients",
    "DegenerateHull": "errors",
    "GkzError": "errors",
    "MinimalityViolation": "errors",
    "NoPositiveFunctional": "errors",
    "NonLatticeExponent": "errors",
    "ProblemFileError": "errors",
    "ResourceLimit": "errors",
    "UndefinedBracket": "errors",
    "IntMatrix": "lattice",
    "RelationLattice": "lattice",
    "kernel_basis": "lattice",
    "LogSeries": "logseries",
    "build_tails": "logseries",
    "combine": "logseries",
    "from_text": "logseries",
    "log_free_coefficients": "logseries",
    "tails_read": "logseries",
    "to_text": "logseries",
    "BoxOp": "operators",
    "CertifiedReport": "operators",
    "EulerOp": "operators",
    "apply_box": "operators",
    "apply_euler": "operators",
    "differentiate": "operators",
    "verify_box_operators": "operators",
    "verify_euler_annihilation": "operators",
    "Polytope": "polytope",
    "has_unique_interior_point": "polytope",
    "interior_lattice_points": "polytope",
    "minkowski_hull": "polytope",
    "SupportBox": "support",
    "SupportVerdict": "support",
}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
