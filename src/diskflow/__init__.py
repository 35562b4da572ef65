"""Numerical toolkit for continuous semigroups of holomorphic self-maps
of the unit disk with boundary attracting point 1: flow integration,
linearization (Abel functions), boundary asymptotics, conjugations with
Mobius groups, and backward flow invariant domains.
"""

import importlib

from .errors import (
    CornerUndeterminedError,
    DiskflowError,
    ExpressionSyntaxError,
    InversionFailureError,
    NotContainedError,
    NotInClassError,
    NotInDiskError,
    StripNotContainedError,
    UnknownCatalogIdError,
)
from .expr import (
    BoundaryLimitEstimate,
    Expr,
    berkson_porta_p,
    boundary_limit,
    compile_expr,
    evaluate,
    parse,
    validate_generator,
)
from .geometry import cayley, horocycle_distance, inverse_cayley
from .flow import (
    ConvergenceDiagnostics,
    Trajectory,
    backward_extendability,
    convergence_profile,
    flow_point,
    integrate,
    semigroup_residual,
)
from .abel import (
    LinearizationModel,
    PlanarDomainStats,
    abel_flow,
    abel_h,
    bloch_norm,
    find_boundary_null_points,
    invert_h,
    linearize,
    planar_domain_stats,
    visser_ostrovskii,
)
from .classify import (
    AsymptoticProfile,
    classify,
    halfplane_criterion_M,
    rigidity_criterion,
    tangency_criterion,
    theorem_argument_bound,
)
from .conjugate import (
    ConjugationCertificate,
    MobiusGroup,
    bfid_report,
    corner_opening,
    inner_conjugator,
    outer_conjugator,
)
from . import catalog, jsonio

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: the verify-paper suite is imported on first access, so
    # that ``import diskflow`` does not pay for it
    if name == "verification":
        return importlib.import_module(f"{__name__}.verification")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsymptoticProfile",
    "BoundaryLimitEstimate",
    "ConjugationCertificate",
    "ConvergenceDiagnostics",
    "CornerUndeterminedError",
    "DiskflowError",
    "Expr",
    "ExpressionSyntaxError",
    "InversionFailureError",
    "LinearizationModel",
    "MobiusGroup",
    "NotContainedError",
    "NotInClassError",
    "NotInDiskError",
    "PlanarDomainStats",
    "StripNotContainedError",
    "UnknownCatalogIdError",
    "Trajectory",
    "abel_flow",
    "abel_h",
    "backward_extendability",
    "berkson_porta_p",
    "bfid_report",
    "bloch_norm",
    "boundary_limit",
    "catalog",
    "cayley",
    "classify",
    "compile_expr",
    "convergence_profile",
    "corner_opening",
    "evaluate",
    "find_boundary_null_points",
    "flow_point",
    "halfplane_criterion_M",
    "horocycle_distance",
    "inner_conjugator",
    "integrate",
    "inverse_cayley",
    "invert_h",
    "jsonio",
    "linearize",
    "outer_conjugator",
    "parse",
    "planar_domain_stats",
    "rigidity_criterion",
    "semigroup_residual",
    "tangency_criterion",
    "theorem_argument_bound",
    "validate_generator",
    "verification",
    "visser_ostrovskii",
]
