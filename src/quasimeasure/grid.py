"""Bounded rectangular frame holding the sampling grid.

The frame is a window onto the plane: everything outside it is modelled as
empty space where all fields vanish. Samples live at cell centers, so a
field and a region share the same (ny, nx) raster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_CELLS = 8

# The cell budget: 2048², four times the 1024² frames the benchmark ladder
# reaches. A run holds several float rasters of the frame at once, so a
# frame past it would allocate gigabytes before any check could fail.
MAX_CELLS = 2048 * 2048

# Relative scale of the geometric tie guard (fraction of a cell diagonal).
TIE_EPS_CELL_FRACTION = 1e-6


@dataclass(frozen=True)
class Frame:
    """Axis-aligned window [x_min, x_max] x [y_min, y_max] split into nx*ny cells."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("frame extents must be strictly positive")
        if self.nx < MIN_CELLS or self.ny < MIN_CELLS:
            raise ValueError(f"frame needs at least {MIN_CELLS} cells per axis")
        if self.nx * self.ny > MAX_CELLS:
            raise ValueError(f"frame of {self.nx} x {self.ny} cells exceeds the budget "
                             f"of {MAX_CELLS} cells")
        # an infinite extent, finite ones whose difference overflows, or a
        # cell size or area that underflows to zero or overflows
        if not 0 < self.cell_area < math.inf:
            raise ValueError("frame cell area must be positive and finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def min_cell(self) -> float:
        return min(self.dx, self.dy)

    @property
    def shape(self) -> tuple[int, int]:
        """(ny, nx): arrays are indexed [row=y, col=x]."""
        return (self.ny, self.nx)

    @property
    def tie_eps_geom(self) -> float:
        """Geometric tie guard: points closer than this to a gridline are ambiguous."""
        return 0.5 * float(np.hypot(self.dx, self.dy)) * TIE_EPS_CELL_FRACTION

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.dy

    def center_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of cell-center coordinates, shaped like the raster."""
        xx, yy = np.meshgrid(self.x_centers(), self.y_centers())
        return xx, yy

    def contains_point(self, x: float, y: float) -> bool:
        return self.x_min < x < self.x_max and self.y_min < y < self.y_max


def edge_cells(a: np.ndarray) -> np.ndarray:
    """Entries of the outermost ring of a 2-D array, each corner once."""
    return np.concatenate((a[0], a[-1], a[1:-1, 0], a[1:-1, -1]))
