"""Numerical verification lab for overdetermined torsion problems in cones."""

__version__ = "0.1.0"

from .mesh import BoundaryRadius, SectorGrid, build_grid
from .oracles import (
    RadialSolutionEuclidean,
    RadialSolutionSpaceForm,
    overdetermined_constant,
)
from .profiles import (
    OperatorProfile,
    make_mean_curvature_profile,
    make_power_profile,
    profile_from_id,
    regularize,
)
from .rigidity import ExperimentConfig, convergence_study, deviation_scan
from .solver import solve_Lf, solve_linear_spaceform
from .spaceforms import EUCLIDEAN, HYPERBOLIC, SPHERE, ConeSection, space_form_from_id

__all__ = [
    "__version__",
    "BoundaryRadius",
    "SectorGrid",
    "build_grid",
    "RadialSolutionEuclidean",
    "RadialSolutionSpaceForm",
    "overdetermined_constant",
    "OperatorProfile",
    "make_power_profile",
    "make_mean_curvature_profile",
    "profile_from_id",
    "regularize",
    "ExperimentConfig",
    "deviation_scan",
    "convergence_study",
    "solve_Lf",
    "solve_linear_spaceform",
    "EUCLIDEAN",
    "HYPERBOLIC",
    "SPHERE",
    "ConeSection",
    "space_form_from_id",
]
