"""The package's public surface: a new or removed name shows up here."""

import quasimeasure

PUBLIC = [
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


def test_public_names_are_pinned():
    assert sorted(quasimeasure.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [n for n in quasimeasure.__all__ if not hasattr(quasimeasure, n)] == []
