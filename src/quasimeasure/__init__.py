"""Topological measures on a planar grid and their quasi-integrals.

The package realizes set functions that are additive on disjoint unions and
regular but need not extend to Borel measures, evaluates the non-linear
functionals they induce via exact Riemann-Stieltjes integration of step
distribution functions, and reconstructs the measure back from the
functional for round-trip verification.
"""

from .errors import (
    ConfigError,
    DomainError,
    FrameError,
    FrameMismatchError,
    GeometryError,
    InfiniteMeasureError,
    QuasimeasureError,
    TieBreakError,
    VariantError,
)
from .fields import (
    PiecewiseLinearMap,
    ScalarField,
    add,
    build_plateau,
    compose,
    neg_part,
    pos_part,
    scale,
    sup_distance,
    sup_norm,
    support_region,
    truncate,
)
from .grid import Frame
from .integration import (
    DistributionFn,
    QuasiIntegral,
    QuasiIntegralResult,
    distribution_function,
    linear_oracle,
    quasi_integral,
)
from .measures import (
    AtomicMeasure,
    DensityMeasure,
    PointCountMeasure,
    TopologicalMeasure,
    tm_eval,
)
from .reconstruct import (
    ReconstructionReport,
    RoundTripEntry,
    mu_rho_compact,
    mu_rho_open,
    roundtrip,
)
from .regions import Region, dilate, empty_region, erode, frame_interior, rect_region
from .scenario import Scenario, execute_scenario, load_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "ConfigError", "DensityMeasure", "DistributionFn",
    "DomainError", "Frame", "FrameError", "FrameMismatchError",
    "GeometryError", "InfiniteMeasureError", "PiecewiseLinearMap",
    "PointCountMeasure", "QuasiIntegral", "QuasiIntegralResult",
    "QuasimeasureError", "ReconstructionReport", "Region", "RoundTripEntry",
    "ScalarField", "Scenario", "TieBreakError", "TopologicalMeasure",
    "VariantError", "add", "build_plateau", "compose", "dilate",
    "distribution_function", "empty_region", "erode", "execute_scenario",
    "frame_interior", "linear_oracle", "load_scenario",
    "mu_rho_compact", "mu_rho_open", "neg_part", "pos_part", "quasi_integral",
    "rect_region", "roundtrip", "run_scenario", "scale", "sup_distance",
    "sup_norm", "support_region", "tm_eval", "truncate",
]
