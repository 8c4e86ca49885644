"""Topological measures evaluated on rasterized regions.

Three variants:

* PointCountMeasure: a solid-set function. On a solid region the value is a
  superadditive non-decreasing table indexed by how many marked points the
  region contains; general regions are handled by the hole-subtraction
  recursion forced by additivity on disjoint unions. This family contains
  the genuinely non-linear examples.
* DensityMeasure / AtomicMeasure: ordinary measures, used as the linear
  baseline. Each hands out its atoms of mass, so a field's distribution
  function is a layer-cake sum of their weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .fields import ScalarField
from .grid import Frame
from .regions import (
    Region,
    _component_masks,
    _hole_masks,
    point_cells,
)

POINT_COUNT = "point_count"
DENSITY = "density"
ATOMIC = "atomic"


class TopologicalMeasure:
    """Common interface: mass of a region and total mass of the plane."""

    kind: str = "abstract"

    def mass(self, region: Region) -> float:
        raise NotImplementedError

    def total_mass(self, frame: Frame) -> float:
        raise NotImplementedError

    def is_finite(self, frame: Frame) -> bool:
        return math.isfinite(self.total_mass(frame))

    def atoms(self, f: ScalarField) -> tuple[np.ndarray, np.ndarray | float] | None:
        """f's value under each in-frame atom of mass, and the atom's weight.

        Only an additive measure has atoms; a single float weight applies to
        every atom. None for a measure that is not additive.
        """
        return None


@dataclass(frozen=True, eq=False)
class PointCountMeasure(TopologicalMeasure):
    """Solid-set measure driven by marked-point counts.

    value_by_count[c] is the mass of a solid region containing c of the
    points; the table must start at 0, be non-decreasing and superadditive
    (value[i+j] >= value[i] + value[j]).
    """

    points: np.ndarray
    value_by_count: np.ndarray

    kind = POINT_COUNT

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float).reshape(-1, 2))
        table = np.ascontiguousarray(np.asarray(self.value_by_count, dtype=float))
        n = len(pts)
        if table.shape != (n + 1,):
            raise ValueError(f"value_by_count must have length {n + 1}")
        if table[0] != 0.0:
            raise ValueError("value_by_count[0] must be 0")
        if bool((np.diff(table) < 0).any()):
            raise ValueError("value_by_count must be non-decreasing")
        if bool((table < 0).any()):
            raise ValueError("value_by_count must be non-negative")
        for i in range(n + 1):
            for j in range(n + 1 - i):
                if table[i + j] < table[i] + table[j] - 1e-12:
                    raise ValueError(
                        f"value_by_count is not superadditive at ({i}, {j})"
                    )
        pts.setflags(write=False)
        table.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "value_by_count", table)

    def total_mass(self, frame: Frame) -> float:
        return float(self.value_by_count[-1])

    def mass(self, region: Region) -> float:
        cells = point_cells(region.frame, self.points)
        inside = cells[:, 0] >= 0
        rows, cols = cells[inside, 0], cells[inside, 1]
        max_depth = max(region.frame.nx, region.frame.ny)
        return self._mass_of_mask(region.mask, rows, cols, max_depth)

    def _lam(self, count: int) -> float:
        return float(self.value_by_count[count])

    def _mass_of_mask(self, mask, rows, cols, depth) -> float:
        if depth < 0:
            raise RecursionError("hole nesting exceeds grid depth; mask is corrupt")
        total = 0.0
        for comp in _component_masks(mask):
            hole_masks = _hole_masks(comp)
            hull = comp.copy()
            for hm in hole_masks:
                hull |= hm
            count = int(hull[rows, cols].sum()) if len(rows) else 0
            val = self._lam(count)
            for hm in hole_masks:
                val -= self._mass_of_mask(hm, rows, cols, depth - 1)
            total += val
        return total


@dataclass(frozen=True, eq=False)
class DensityMeasure(TopologicalMeasure):
    """Cell-area-weighted density, constant or per-cell.

    The density applies inside the frame. With unbounded=True it is taken to
    continue beyond the window, so the total mass is infinite while every
    compact set still has finite mass.
    """

    density: float | np.ndarray = 1.0
    unbounded: bool = False

    kind = DENSITY

    def __post_init__(self):
        d = self.density
        if isinstance(d, np.ndarray):
            d = np.ascontiguousarray(np.asarray(d, dtype=float))
            if bool((d < 0).any()):
                raise ValueError("density must be non-negative")
            d.setflags(write=False)
            object.__setattr__(self, "density", d)
        else:
            if d < 0:
                raise ValueError("density must be non-negative")
            object.__setattr__(self, "density", float(d))

    def _density_grid(self, frame: Frame) -> np.ndarray:
        if isinstance(self.density, np.ndarray):
            if self.density.shape != frame.shape:
                raise ValueError(
                    f"density grid shape {self.density.shape} != frame shape {frame.shape}"
                )
            return self.density
        return np.full(frame.shape, self.density)

    def total_mass(self, frame: Frame) -> float:
        if self.unbounded:
            return math.inf
        return float(self._density_grid(frame).sum()) * frame.cell_area

    def mass(self, region: Region) -> float:
        grid = self._density_grid(region.frame)
        return float(grid[region.mask].sum()) * region.frame.cell_area

    def atoms(self, f: ScalarField) -> tuple[np.ndarray, np.ndarray | float]:
        """Every cell is an atom of mass density * cell_area."""
        area = f.frame.cell_area
        if isinstance(self.density, np.ndarray):
            return f.values.ravel(), self._density_grid(f.frame).ravel() * area
        return f.values.ravel(), self.density * area


@dataclass(frozen=True, eq=False)
class AtomicMeasure(TopologicalMeasure):
    """Finitely many weighted point masses."""

    points: np.ndarray
    weights: np.ndarray

    kind = ATOMIC

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float).reshape(-1, 2))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if w.shape != (len(pts),):
            raise ValueError("weights must match points")
        if bool((w < 0).any()):
            raise ValueError("weights must be non-negative")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def total_mass(self, frame: Frame) -> float:
        return float(self.weights.sum())

    def _in_frame(self, frame: Frame):
        """Cell rows, cell columns and weights of the points inside the frame."""
        cells = point_cells(frame, self.points)
        inside = cells[:, 0] >= 0
        return cells[inside, 0], cells[inside, 1], self.weights[inside]

    def mass(self, region: Region) -> float:
        rows, cols, weights = self._in_frame(region.frame)
        return float(weights[region.mask[rows, cols]].sum())

    def atoms(self, f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
        rows, cols, weights = self._in_frame(f.frame)
        return f.values[rows, cols], weights


def tm_eval(mu: TopologicalMeasure, region: Region) -> float:
    """Mass of a region under the measure; always >= 0."""
    value = mu.mass(region)
    if value < 0:
        raise AssertionError(f"measure returned negative mass {value}")
    return value

