"""Rasterized planar sets: regions, the boxed topology kernel, morphology and
marked points.

Digital-topology convention: regions are 4-connected, complements are
8-connected. A complement component is "unbounded" when it reaches the
frame boundary (outside the frame everything is connected through the
unbounded exterior of the window); the bounded ones are the holes. The
kernel (`_components_in_boxes`, `_holes`) gives components and holes as
boxed parts, each a bounding box and the set's cells inside it, and the
point-count mass recursion is its one caller. Every dilation and erosion
is a level set of a chessboard distance transform, and one box predicate,
`_inside`, states both where a dilation exits the frame and where it
reaches the edge ring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import FrameError, FrameMismatchError, TieBreakError
from .grid import Frame, edge_cells

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
EIGHT_CONN = np.ones((3, 3), dtype=bool)

OPEN = "open"
COMPACT = "compact"


@dataclass(frozen=True, eq=False)
class Region:
    """Subset of the frame as a per-cell membership mask with a role tag.

    Open-role regions may not include frame-boundary cells: they stand for
    open sets with compact closure strictly inside the window.
    """

    frame: Frame
    mask: np.ndarray
    role: str = OPEN

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool, order="C")  # a copy: the caller keeps its mask
        if mask.shape != self.frame.shape:
            raise ValueError(f"mask shape {mask.shape} != frame shape {self.frame.shape}")
        if self.role not in (OPEN, COMPACT):
            raise ValueError(f"role must be 'open' or 'compact', got {self.role!r}")
        if self.role == OPEN and bool(edge_cells(mask).any()):
            raise FrameError("open-role region may not include frame-boundary cells")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    # -- basic queries ------------------------------------------------

    @property
    def cell_count(self) -> int:
        return int(self.mask.sum())

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def with_role(self, role: str) -> "Region":
        return Region(self.frame, self.mask, role)

    def _check_frame(self, other: "Region"):
        if self.frame != other.frame:
            raise FrameMismatchError("regions live on different frames")

    # -- set algebra (the result keeps this region's role) --

    def union(self, other: "Region") -> "Region":
        self._check_frame(other)
        return Region(self.frame, self.mask | other.mask, self.role)

    def intersection(self, other: "Region") -> "Region":
        self._check_frame(other)
        return Region(self.frame, self.mask & other.mask, self.role)

    def difference(self, other: "Region") -> "Region":
        self._check_frame(other)
        return Region(self.frame, self.mask & ~other.mask, self.role)

    def subset_of(self, other: "Region") -> bool:
        self._check_frame(other)
        return bool(np.all(~self.mask | other.mask))


def rect_region(frame: Frame, x0: float, x1: float, y0: float, y1: float,
                role: str = COMPACT) -> Region:
    """Cells whose centers fall in the rectangle.

    Compact role uses the closed rectangle, open role the open one; with
    generic bounds (off the gridlines) the two rasterizations coincide.
    """
    xs = frame.x_centers()
    ys = frame.y_centers()
    if role == COMPACT:
        in_x = (xs >= x0) & (xs <= x1)
        in_y = (ys >= y0) & (ys <= y1)
    else:
        in_x = (xs > x0) & (xs < x1)
        in_y = (ys > y0) & (ys < y1)
    mask = in_y[:, None] & in_x[None, :]
    return Region(frame, mask, role)


def empty_region(frame: Frame, role: str = OPEN) -> Region:
    return Region(frame, np.zeros(frame.shape, dtype=bool), role)


def frame_interior(frame: Frame) -> Region:
    """All cells off the frame's edge ring, open role."""
    mask = np.zeros(frame.shape, dtype=bool)
    mask[1:-1, 1:-1] = True
    return Region(frame, mask, OPEN)


# -- components and holes, as boxed parts ------------------------------


def _bbox(mask: np.ndarray) -> tuple[slice, slice] | None:
    """Bounding box of the set cells, or None for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(mask[r0:r1].any(axis=0))
    return slice(r0, r1), slice(int(cols[0]), int(cols[-1]) + 1)


def _shift(box: tuple[slice, slice], r0: int, c0: int) -> tuple[slice, slice]:
    rows, cols = box
    return slice(rows.start + r0, rows.stop + r0), slice(cols.start + c0, cols.stop + c0)


def _grow(box: tuple[slice, slice], k: int, shape: tuple[int, int]) -> tuple[slice, slice]:
    """`box` grown by k cells on every side, clamped to an array of `shape`."""
    rows, cols = box
    return (slice(max(rows.start - k, 0), min(rows.stop + k, shape[0])),
            slice(max(cols.start - k, 0), min(cols.stop + k, shape[1])))


_Part = tuple[tuple[slice, slice], np.ndarray]  # (box, the set's cells inside the box)


def _components_in_boxes(mask: np.ndarray, box: tuple[slice, slice]) -> list[_Part]:
    """Each 4-connected component of `mask`, whose set's bounding box is
    `box`, boxed in `mask`'s coordinates.

    The mask is labelled once, cropped to the box. Raster order inside the box
    is raster order in the mask, so components come in label order. A lone
    component's cells are a view of `mask`.
    """
    sub = mask[box]
    labels, n = ndimage.label(sub, structure=FOUR_CONN)
    if n == 1:
        return [(box, sub)]
    r0, c0 = box[0].start, box[1].start
    return [(_shift(b, r0, c0), labels[b] == k)
            for k, b in enumerate(ndimage.find_objects(labels), start=1)]


def _holes(mask: np.ndarray) -> tuple[np.ndarray, list[_Part]]:
    """Labels of the 8-connected complement of `mask` padded by one empty ring,
    and each hole, boxed in those labels' coordinates, in raster order.

    Label 1 is the pad's component; the labels sit one row and one column
    below and right of the cells of `mask`. When everything outside `mask` is
    empty (it is cropped to a box holding all of the set), touching the pad is
    touching the frame boundary: each cell outside the box reaches the
    boundary through empty cells. So the holes are exactly the bounded
    complement components.
    """
    complement = np.ones((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    np.logical_not(mask, out=complement[1:-1, 1:-1])
    labels, n = ndimage.label(complement, structure=EIGHT_CONN)
    if n == 1:
        return labels, []
    if n == 2:
        # a lone hole is boxed from its own mask: find_objects costs about
        # as much as the labelling itself
        hole = labels == 2
        box = _bbox(hole)
        return labels, [(box, hole[box])]
    return labels, [(b, labels[b] == k)
                    for k, b in enumerate(ndimage.find_objects(labels)[1:], start=2)]


# -- morphology --------------------------------------------------------


def _embed(r: Region, box: tuple[slice, slice], sub: np.ndarray) -> Region:
    """The region of r's frame and role whose cells are `sub` inside `box`."""
    mask = np.zeros(r.frame.shape, dtype=bool)
    mask[box] = sub
    return Region(r.frame, mask, r.role)


def _inside(box: tuple[slice, slice], k: int, shape: tuple[int, int]) -> bool:
    """Whether `box` grown by k cells stays inside an array of `shape`: a
    set's k-cell dilation stays in the frame when its box is inside at k, and
    off the frame's edge ring when it is inside at k + 1."""
    rows, cols = box
    return (rows.start >= k and cols.start >= k
            and rows.stop <= shape[0] - k and cols.stop <= shape[1] - k)


def erode(r: Region, k: int) -> Region:
    """Chebyshev erosion by k cells: the set cells at chessboard distance > k
    from every cell outside the set.

    The transform runs on the set's bounding box padded by one empty ring,
    which stands for everything outside the box, in the frame or beyond it:
    every cell there is empty, and the pad is as near to the box as any.
    """
    if k < 0:
        raise ValueError("erosion radius must be >= 0")
    box = _bbox(r.mask) if k else None
    if box is None:
        return r
    dist = ndimage.distance_transform_cdt(np.pad(r.mask[box], 1), metric="chessboard")
    return _embed(r, box, dist[1:-1, 1:-1] > k)


def dilate(r: Region, k: int) -> Region:
    """Chebyshev dilation by k cells, the part of `_dilations` for radius k;
    FrameError if the result would exit the frame. A dilation that only
    reaches the frame's edge ring stays in the frame.
    """
    if k < 0:
        raise ValueError("dilation radius must be >= 0")
    box = _bbox(r.mask) if k else None
    if box is None:
        return r
    if not _inside(box, k, r.frame.shape):
        raise FrameError(f"dilation by {k} cells exits the frame")
    [(part, cells)] = _dilations(r.mask, box, [k])
    return _embed(r, part, cells)


def _dilations(mask: np.ndarray, box: tuple[slice, slice], radii) -> list[_Part]:
    """The k-cell dilation of `mask`, whose set's bounding box is `box`, as a
    boxed part for each radius k in `radii`, in that order; the callers keep
    each one in the frame by `_inside`. The part is the dilation's bounding
    box grown by one ring and clamped to the frame, and the dilation's cells
    on it: the crop that `fields.distance_map` of the dilation transforms.

    One chessboard distance transform gives every dilation, as the cells at
    distance <= k. A two-pass chamfer with unit weights over the 3x3
    neighbourhood (Rosenfeld & Pfaltz, J. ACM 1966) gives the exact
    Chebyshev distance in cells, so {c <= k} is the k-fold 3x3 dilation.
    The transform runs on the largest part only: a path from a cell to its
    nearest set cell stays inside their common bounding rectangle, which
    lies in the part, so the crop changes no value.
    """
    big = _grow(box, max(radii) + 1, mask.shape)
    dist = ndimage.distance_transform_cdt(~mask[big], metric="chessboard")
    r0, c0 = big[0].start, big[1].start
    parts = [_grow(box, k + 1, mask.shape) for k in radii]
    return [(part, dist[_shift(part, -r0, -c0)] <= k) for k, part in zip(radii, parts)]


# -- marked points ------------------------------------------------------


def point_cells(frame: Frame, points: np.ndarray) -> np.ndarray:
    """(m, 2) array of (row, col) for points inside the frame; -1 rows outside.

    Raises TieBreakError when an inside point sits within tie_eps_geom of a
    gridline, where cell membership would be numerically ambiguous.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    eps = frame.tie_eps_geom
    out = np.full((len(pts), 2), -1, dtype=int)
    for idx, (x, y) in enumerate(pts):
        if not frame.contains_point(x, y):
            continue
        fx = (x - frame.x_min) / frame.dx
        fy = (y - frame.y_min) / frame.dy
        col, row = int(np.floor(fx)), int(np.floor(fy))
        # distance to the nearest vertical / horizontal gridline
        d = min((fx - col) * frame.dx, (col + 1 - fx) * frame.dx,
                (fy - row) * frame.dy, (row + 1 - fy) * frame.dy)
        if d <= eps:
            raise TieBreakError(
                f"point ({x}, {y}) is within tie epsilon of a cell boundary"
            )
        out[idx] = (row, col)
    return out
