"""The cropped topology kernel against the full-frame code it replaced.

`_ref_*` below is the earlier implementation, which labels the whole frame
for every component and every hole. The kernel works inside each set's
bounding box instead; it must give the same regions and the same masses bit
for bit, so every comparison here is `==`.
"""

import numpy as np
import pytest
from scipy import ndimage

from quasimeasure import (
    Frame,
    PointCountMeasure,
    Region,
    holes,
    is_solid,
    solid_decomposition,
    solid_hull,
)
from quasimeasure.regions import COMPACT, EIGHT_CONN, FOUR_CONN, OPEN, point_cells

# -- the full-frame reference --------------------------------------------


def _ref_component_masks(mask):
    labels, n = ndimage.label(mask, structure=FOUR_CONN)
    return [labels == k for k in range(1, n + 1)]


def _ref_hole_masks(mask):
    labels, n = ndimage.label(~mask, structure=EIGHT_CONN)
    if n == 0:
        return []
    edge_labels = np.unique(
        np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
    )
    edge_labels = set(int(v) for v in edge_labels if v != 0)
    return [labels == k for k in range(1, n + 1) if k not in edge_labels]


def _flip(role):
    return COMPACT if role == OPEN else OPEN


def ref_holes(r):
    return [Region(r.frame, m, _flip(r.role)) for m in _ref_hole_masks(r.mask)]


def ref_is_solid(r):
    if r.is_empty:
        return False
    _, n = ndimage.label(r.mask, structure=FOUR_CONN)
    return n == 1 and not _ref_hole_masks(r.mask)


def ref_solid_decomposition(r):
    return tuple(
        (Region(r.frame, cm, r.role),
         tuple(Region(r.frame, hm, _flip(r.role)) for hm in _ref_hole_masks(cm)))
        for cm in _ref_component_masks(r.mask)
    )


def ref_solid_hull(r):
    out = np.array(r.mask)
    for hm in _ref_hole_masks(r.mask):
        out |= hm
    return Region(r.frame, out, r.role)


def _ref_mass_of_mask(mu, mask, rows, cols, depth):
    if depth < 0:
        raise RecursionError("hole nesting exceeds grid depth; mask is corrupt")
    total = 0.0
    for comp in _ref_component_masks(mask):
        hole_masks = _ref_hole_masks(comp)
        hull = comp.copy()
        for hm in hole_masks:
            hull |= hm
        count = int(hull[rows, cols].sum()) if len(rows) else 0
        val = float(mu.value_by_count[count])
        for hm in hole_masks:
            val -= _ref_mass_of_mask(mu, hm, rows, cols, depth - 1)
        total += val
    return total


def ref_mass(mu, region):
    cells = point_cells(region.frame, mu.points)
    inside = cells[:, 0] >= 0
    rows, cols = cells[inside, 0], cells[inside, 1]
    return _ref_mass_of_mask(mu, region.mask, rows, cols, max(region.frame.nx, region.frame.ny))


# -- inputs ----------------------------------------------------------------

N = 96
FRAME = Frame(0.0, 10.0, 0.0, 10.0, N, N)


def _measure(rng, frame, m=9):
    """m points at distinct cell centres, some outside the frame, with a
    convex (so superadditive) table of irrational-looking values."""
    flat = rng.choice(frame.nx * frame.ny, size=m, replace=False)
    rows, cols = np.divmod(flat, frame.nx)
    pts = np.column_stack([frame.x_min + (cols + 0.5) * frame.dx,
                           frame.y_min + (rows + 0.5) * frame.dy])
    pts[: m // 4] += 20.0  # outside the frame
    counts = np.arange(len(pts) + 1, dtype=float)
    table = counts ** rng.uniform(1.0, 2.5) * rng.uniform(0.1, 1.7) / 3.0
    return PointCountMeasure(pts, table)


def _blobs(rng, shape, size):
    noise = ndimage.uniform_filter(rng.standard_normal(shape), size=size, mode="wrap")
    return noise > np.quantile(noise, rng.uniform(0.2, 0.8))


def _salt(rng, shape, density):
    """Salt noise in a random window of up to 24x24 cells (possibly at the
    edge): many small components meeting at corners. Kept small because the
    reference labels the whole frame once per component."""
    out = np.zeros(shape, dtype=bool)
    h, w = rng.integers(4, 25, size=2)
    r0, c0 = rng.integers(0, shape[0] - h + 1), rng.integers(0, shape[1] - w + 1)
    out[r0:r0 + h, c0:c0 + w] = rng.random((h, w)) < density
    return out


def _random_masks(seed, count=150):
    """Blobs with holes, salt noise with many diagonal contacts, and unions
    of the two; compact ones may touch the frame edge, open ones may not."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            mask = _blobs(rng, FRAME.shape, int(rng.integers(3, 12)))
        elif kind == 1:
            mask = _salt(rng, FRAME.shape, rng.uniform(0.3, 0.7))
        else:
            mask = _blobs(rng, FRAME.shape, 8) | _salt(rng, FRAME.shape, 0.5)
        if i % 2 == 0:
            mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
            out.append(Region(FRAME, mask, OPEN))
        else:
            out.append(Region(FRAME, mask, COMPACT))
    return out


def _nested_rings(frame, depth, centre, role=OPEN):
    """Alternating filled and empty Chebyshev rings of width 2 around a centre
    cell, `depth` rings deep, with a single cell in the middle."""
    ny, nx = frame.shape
    rr, cc = np.mgrid[:ny, :nx]
    d = np.maximum(np.abs(rr - centre[0]), np.abs(cc - centre[1]))
    mask = (d // 2) % 2 == 0
    mask &= d < 4 * depth
    return Region(frame, mask, role)


def _diagonal_holes():
    """Solid squares holding holes made of cells that touch only at corners:
    one 8-connected hole with two or more 4-connected components, some
    holding an island of their own."""
    masks = []
    m = np.zeros(FRAME.shape, dtype=bool)
    m[10:30, 10:30] = True
    m[15, 15] = m[16, 16] = False  # two-cell diagonal hole
    m[20:23, 20:23] = False
    m[23, 23] = False  # 3x3 hole with a diagonal tail
    m[21, 21] = True  # island inside it
    masks.append(m)
    m2 = np.zeros(FRAME.shape, dtype=bool)
    m2[40:80, 40:80] = True
    checker = (np.add.outer(np.arange(20), np.arange(20)) % 2) == 0
    m2[50:70, 50:70] &= ~checker  # one hole of 200 diagonal cells
    masks.append(m2)
    return [Region(FRAME, mk, role) for mk in masks for role in (OPEN, COMPACT)]


def _special_regions():
    empty = np.zeros(FRAME.shape, dtype=bool)
    full = np.ones(FRAME.shape, dtype=bool)
    interior = np.zeros(FRAME.shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    return [Region(FRAME, empty, OPEN), Region(FRAME, empty, COMPACT),
            Region(FRAME, full, COMPACT), Region(FRAME, interior, OPEN)]


def _all_regions():
    regions = _random_masks(seed=11) + _diagonal_holes() + _special_regions()
    for depth, centre in [(1, (48, 48)), (3, (40, 50)), (5, (47, 47)), (11, (48, 48)),
                          (7, (2, 3)), (4, (90, 60))]:
        regions.append(_nested_rings(FRAME, depth, centre, COMPACT))
    return regions


REGIONS = _all_regions()


def _points_in(region, rng, m=9):
    """A measure whose points fall in the region, its complement and outside."""
    frame = region.frame
    cells = np.flatnonzero(region.mask.ravel())
    other = np.flatnonzero(~region.mask.ravel())
    take = []
    if len(cells):
        take += list(rng.choice(cells, size=min(m // 2, len(cells)), replace=False))
    if len(other):
        take += list(rng.choice(other, size=min(m - len(take), len(other)), replace=False))
    rows, cols = np.divmod(np.array(take, dtype=int), frame.nx)
    pts = np.column_stack([frame.x_min + (cols + 0.5) * frame.dx,
                           frame.y_min + (rows + 0.5) * frame.dy])
    pts = np.vstack([pts, [[-3.0, 4.0]]])
    counts = np.arange(len(pts) + 1, dtype=float)
    return PointCountMeasure(pts, counts ** rng.uniform(1.0, 2.5) * rng.uniform(0.1, 1.7) / 3.0)


# -- tests -----------------------------------------------------------------


def test_regions_match_the_full_frame_reference():
    for region in REGIONS:
        assert holes(region) == ref_holes(region)
        assert solid_hull(region) == ref_solid_hull(region)
        assert is_solid(region) == ref_is_solid(region)
        assert solid_decomposition(region).components == ref_solid_decomposition(region)


def test_mass_matches_the_full_frame_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for i, region in enumerate(REGIONS):
        mu = _points_in(region, rng) if i % 4 else _measure(rng, region.frame)
        assert mu.mass(region) == ref_mass(mu, region)


@pytest.mark.parametrize("n", [64, 100, 333])
def test_nested_rings_at_other_sizes(n):
    frame = Frame(0.0, 10.0, 0.0, 10.0, n, n)
    rng = np.random.default_rng(n)
    for depth in (2, 6, n // 10):
        region = _nested_rings(frame, depth, (n // 2, n // 2 - 1), COMPACT)
        mu = _points_in(region, rng)
        assert mu.mass(region) == ref_mass(mu, region)
        assert solid_decomposition(region).components == ref_solid_decomposition(region)


def test_the_inputs_cover_the_cases():
    """Edge-touching sets, several holes, diagonal-only holes, deep nesting."""
    edge = [r for r in REGIONS if r.mask[0].any() or r.mask[:, 0].any()]
    assert len(edge) > 50
    assert max(len(ref_holes(r)) for r in REGIONS) > 10
    split_holes = [
        r for r in _diagonal_holes()
        if any(len(_ref_component_masks(h.mask)) > 1 for h in ref_holes(r))
    ]
    assert len(split_holes) == 4
    deepest = _nested_rings(FRAME, 11, (48, 48), COMPACT)
    assert len(ref_holes(deepest)) == 10
