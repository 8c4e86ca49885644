"""Canonical crossed-rectangles configuration.

Two overlapping closed rectangles carry unit plateaus whose supports each
exclude one of five marked points; the solid-set measure over those points
makes the resulting quasi-integral provably non-additive. All coordinates
are chosen off the gridlines of any power-of-two resolution (and any other
resolution not a multiple of 1000), so cell membership is never ambiguous.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, add, build_plateau
from .grid import Frame
from .measures import PointCountMeasure
from .regions import COMPACT, OPEN, Region, empty_region, frame_interior, rect_region

# Closed rectangles: RECT_K = [1,7]x[5,7], RECT_C = [5,7]x[1,7]; they overlap
# in the square [5,7]x[5,7].
RECT_K = (1.0, 7.0, 5.0, 7.0)
RECT_C = (5.0, 7.0, 1.0, 7.0)
# Open neighborhoods: OUTER_U contains RECT_K but not the point marked in
# C-minus-K; OUTER_V contains RECT_C but not the point in K-minus-C.
OUTER_U = (0.5, 7.5, 4.5, 7.5)
OUTER_V = (4.5, 7.5, 0.5, 7.5)

# Three points inside the overlap square, one in K-minus-C, one in C-minus-K.
MARKED_POINTS = np.array([
    [5.37, 5.63],
    [6.21, 6.17],
    [6.73, 5.29],
    [2.31, 6.43],
    [6.43, 2.31],
])

# Solid-set table: 0 for at most one point, 1/2 for two or three, 1 beyond.
VALUE_BY_COUNT = np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0])

RAMP_WIDTH = 0.25


def standard_frame(resolution: int = 64) -> Frame:
    return Frame(0.0, 10.0, 0.0, 10.0, resolution, resolution)


def crossing_measure() -> PointCountMeasure:
    return PointCountMeasure(MARKED_POINTS, VALUE_BY_COUNT)


def crossing_regions(frame: Frame) -> dict[str, Region]:
    """Named regions of the configuration."""
    K = rect_region(frame, *RECT_K, role=COMPACT)
    C = rect_region(frame, *RECT_C, role=COMPACT)
    return {
        "K": K,
        "C": C,
        "core": K.intersection(C),
        "U": rect_region(frame, *OUTER_U, role=OPEN),
        "V": rect_region(frame, *OUTER_V, role=OPEN),
        "side_pocket": rect_region(frame, 1.5, 3.5, 5.5, 6.9, role=OPEN),
        "interior": frame_interior(frame),
        "empty": empty_region(frame),
    }


def crossing_fields(frame: Frame, height: float = 1.0) -> tuple[ScalarField, ScalarField]:
    """The plateau pair (f on K supported in U, g on C supported in V)."""
    regions = crossing_regions(frame)
    f = build_plateau(regions["K"], regions["U"], height, RAMP_WIDTH)
    g = build_plateau(regions["C"], regions["V"], height, RAMP_WIDTH)
    return f, g


def crossing_sum(frame: Frame, height: float = 1.0) -> ScalarField:
    f, g = crossing_fields(frame, height)
    return add(f, g)
