"""Reference values the benchmark computes without calling quasimeasure.

Every function here works on plain numpy arrays: the field samples the
benchmark generated itself, the marked points and the solid-set table. A
frame is described by its extent (x_min, x_max, y_min, y_max) and its
resolution n (n x n cells, samples at cell centers), as in
`quasimeasure.presets.standard_frame`.
"""

from __future__ import annotations

import numpy as np

EXTENT = (0.0, 10.0, 0.0, 10.0)

# The five-point solid-set measure of the crossed-rectangles example
# (`quasimeasure.presets.crossing_measure`), restated so that the oracles do
# not read it from the program. The benchmark checks at set-up that the
# program's preset still matches.
MARKED_POINTS = np.array([
    [5.37, 5.63],
    [6.21, 6.17],
    [6.73, 5.29],
    [2.31, 6.43],
    [6.43, 2.31],
])
VALUE_BY_COUNT = np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0])


def cell_size(n: int, extent=EXTENT) -> tuple[float, float]:
    x_min, x_max, y_min, y_max = extent
    return (x_max - x_min) / n, (y_max - y_min) / n


def cell_centers(n: int, extent=EXTENT) -> tuple[np.ndarray, np.ndarray]:
    """(xx, yy) grids of cell-center coordinates, indexed [row=y, col=x]."""
    x_min, _, y_min, _ = extent
    dx, dy = cell_size(n, extent)
    xs = x_min + (np.arange(n) + 0.5) * dx
    ys = y_min + (np.arange(n) + 0.5) * dy
    return np.meshgrid(xs, ys)


def point_cells(points: np.ndarray, n: int, extent=EXTENT) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the cells holding the points; all points must lie inside."""
    x_min, _, y_min, _ = extent
    dx, dy = cell_size(n, extent)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cols = np.floor((pts[:, 0] - x_min) / dx).astype(int)
    rows = np.floor((pts[:, 1] - y_min) / dy).astype(int)
    if bool(((cols < 0) | (cols >= n) | (rows < 0) | (rows >= n)).any()):
        raise ValueError("every point must lie inside the frame")
    return rows, cols


def layer_cake(point_values: np.ndarray, inner: np.ndarray,
               table: np.ndarray = VALUE_BY_COUNT) -> float:
    """rho of a non-negative field whose superlevel sets are a disc or an annulus.

    `point_values[i]` is the field sample in the cell of marked point i.
    `inner[i]` marks the points on the hole side of an annulus: such a point
    lies in the hole of {f > t} once t >= its value. For a single peak no
    point is inner, every superlevel set is solid and
    F(t) = table[#{i : v_i > t}]. For an annulus the mass of {f > t} is the
    solid hull's value minus the hole's:
    F(t) = table[above + in_hole] - table[in_hole]. F is a step function
    that can only change at the point values, so the integral over t >= 0
    is an exact sum over those breakpoints.
    """
    v = np.asarray(point_values, dtype=float)
    inner = np.asarray(inner, dtype=bool)
    if bool((v < 0).any()):
        raise ValueError("layer_cake expects a non-negative field")
    levels = np.unique(np.concatenate([[0.0], v]))
    total = 0.0
    for lo, hi in zip(levels[:-1], levels[1:]):
        above = int((v > lo).sum())
        in_hole = int((inner & (v <= lo)).sum())
        total += (table[above + in_hole] - table[in_hole]) * (hi - lo)
    return float(total)


def density_integral(values: np.ndarray, density, cell_area: float) -> float:
    """Sum of f * w * cell_area for a constant or per-cell density w."""
    return float(np.sum(np.asarray(values) * density)) * cell_area


def atomic_integral(values: np.ndarray, points: np.ndarray, weights: np.ndarray,
                    n: int, extent=EXTENT) -> float:
    """Sum of w_i * f(cell of point i)."""
    rows, cols = point_cells(points, n, extent)
    return float(np.sum(np.asarray(weights) * np.asarray(values)[rows, cols]))


def points_in_rect(points: np.ndarray, rect) -> int:
    """Number of points strictly inside the rectangle (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = rect
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    inside = (pts[:, 0] > x0) & (pts[:, 0] < x1) & (pts[:, 1] > y0) & (pts[:, 1] < y1)
    return int(inside.sum())
