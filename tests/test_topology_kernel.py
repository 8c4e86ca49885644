"""The cropped topology kernel against the full-frame code it replaced.

`_ref_*` below is the earlier implementation, which labels the whole frame
for every component and every hole. The kernel works inside each set's
bounding box instead; embedded back into the frame, its components and
holes must be the reference's, in the same order, and its masses the same
bit for bit, so every comparison here is exact.

`_cropped_mass_of_mask` is the cropped mass kernel as it was before it
skipped the labellings no marked point can affect, less its depth budget,
which no mask can exhaust. The kernel must give the same masses by `repr`,
so a `-0.0` mass would show.
"""

from collections import Counter

import numpy as np
import pytest
from scipy import ndimage

from quasimeasure import Frame, PointCountMeasure, Region
from quasimeasure.regions import (
    COMPACT,
    EIGHT_CONN,
    FOUR_CONN,
    OPEN,
    _bbox,
    _components_in_boxes,
    _holes,
    _shift,
    point_cells,
)

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


def _ref_hull_mask(mask):
    out = np.array(mask)
    for hm in _ref_hole_masks(mask):
        out |= hm
    return out


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


# -- the cropped kernel before the shortcuts, less its depth budget --------


def _cropped_mass_of_mask(mu, mask, rows, cols):
    """Mass of `mask` with the marked points at (rows, cols) in its coordinates.

    Each component and each hole is worked on inside its own box; points
    outside a box are dropped from it.
    """
    total = 0.0
    box = _bbox(mask)
    if box is None:
        return total
    for (rs, cs), comp in _components_in_boxes(mask, box):
        inside = (rows >= rs.start) & (rows < rs.stop) & (cols >= cs.start) & (cols < cs.stop)
        # hole labels are padded by one ring; label 1 is outside the hull
        r, c = rows[inside] - (rs.start - 1), cols[inside] - (cs.start - 1)
        labels, hole_parts = _holes(comp)
        val = mu._lam(int((labels[r, c] != 1).sum()))
        for (hr, hc), hole in hole_parts:
            val -= _cropped_mass_of_mask(mu, hole, r - hr.start, c - hc.start)
        total += val
    return total


def cropped_mass(mu, region):
    rows, cols = mu.marked_cells(region.frame)
    return _cropped_mass_of_mask(mu, region.mask, rows, cols)


def count_label_calls(monkeypatch):
    """Count `ndimage.label` calls for the rest of the test in a one-item list."""
    calls = [0]
    label = ndimage.label

    def counted(*args, **kwargs):
        calls[0] += 1
        return label(*args, **kwargs)

    monkeypatch.setattr(ndimage, "label", counted)
    return calls


def _held(mask, rows, cols):
    """Which points lie in the bounding box of a non-empty full-frame mask."""
    r, c = np.nonzero(mask)
    return (rows >= r.min()) & (rows <= r.max()) & (cols >= c.min()) & (cols <= c.max())


def _shortcut_label_calls(mask, rows, cols, seen):
    """`label` calls the kernel makes on `mask`, worked out on the full-frame
    reference. `seen[s, True]` counts the places where shortcut s is taken and
    `seen[s, False]` those where it is passed by."""
    if not mask.any():
        return 0
    held = _held(mask, rows, cols)
    seen["a", not held.any()] += 1
    if not held.any():
        return 0
    lone = int(held.sum()) == 1 and bool(mask[rows[held], cols[held]].all())
    seen["c", lone] += 1
    if lone:
        return 0
    calls = 1
    for comp in _ref_component_masks(mask):
        held = _held(comp, rows, cols)
        on = bool(comp[rows[held], cols[held]].all())  # also when its box holds none
        seen["b", on] += 1
        if on:
            continue
        calls += 1
        for hm in _ref_hole_masks(comp):
            calls += _shortcut_label_calls(hm, rows, cols, seen)
    return calls


def _in_frame(shape, box, cells):
    out = np.zeros(shape, dtype=bool)
    out[box] = cells
    return out


def kernel_parts(mask):
    """Each component the kernel finds in a full-frame mask, with its holes
    and its hull, all embedded back into the frame: [(comp, [hole, ...], hull)]."""
    parts = []
    whole = _bbox(mask)
    if whole is None:
        return parts
    for box, comp in _components_in_boxes(mask, whole):
        labels, hole_parts = _holes(comp)
        # the hole labels are padded by one ring: their origin is one cell up and left
        r0, c0 = box[0].start - 1, box[1].start - 1
        holes = [_in_frame(mask.shape, _shift(hb, r0, c0), hole) for hb, hole in hole_parts]
        hull = _in_frame(mask.shape, box, labels[1:-1, 1:-1] != 1)
        parts.append((_in_frame(mask.shape, box, comp), holes, hull))
    return parts


def assert_kernel_matches_the_reference(mask):
    parts = kernel_parts(mask)
    ref = _ref_component_masks(mask)
    assert len(parts) == len(ref)
    for (comp, holes, hull), want in zip(parts, ref):
        assert np.array_equal(comp, want)
        want_holes = _ref_hole_masks(want)
        assert len(holes) == len(want_holes)
        for hole, want_hole in zip(holes, want_holes):
            assert np.array_equal(hole, want_hole)
        assert np.array_equal(hull, _ref_hull_mask(want))


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


def _cell_centres(frame, cells):
    rows, cols = np.divmod(np.asarray(cells, dtype=int), frame.nx)
    return np.column_stack([frame.x_min + (cols + 0.5) * frame.dx,
                            frame.y_min + (rows + 0.5) * frame.dy])


def _table(rng, n, zeros):
    """A convex table over n points whose first `zeros` entries are -0.0: the
    validation accepts them, and a sum that starts at 0.0 turns them into 0.0."""
    table = np.arange(n + 1, dtype=float) ** rng.uniform(1.0, 2.5) * rng.uniform(0.1, 1.7)
    table[:zeros] = -0.0
    return table


def _clustered_in_holes(region, rng, zeros):
    """Points on the hole cells nearest one random hole cell, so most share a
    hole, with one more on the region for half of the draws."""
    frame = region.frame
    hole_cells = np.flatnonzero((_ref_hull_mask(region.mask) & ~region.mask).ravel())
    if len(hole_cells) == 0:
        return _points_in(region, rng)
    rows, cols = np.divmod(hole_cells, frame.nx)
    r0, c0 = divmod(int(rng.choice(hole_cells)), frame.nx)
    near = np.argsort(np.maximum(abs(rows - r0), abs(cols - c0)), kind="stable")
    take = list(hole_cells[near[:int(rng.integers(1, 7))]])
    if rng.random() < 0.5:
        take.append(rng.choice(np.flatnonzero(region.mask.ravel())))
    pts = _cell_centres(frame, take)
    return PointCountMeasure(pts, _table(rng, len(pts), zeros))


def _ring_cases():
    """A square ring with one-cell islands in its hole, and a U whose open
    mouth holds a block: the points sit on an island, on the ring, in the
    hole off the islands, on the block and on the U."""
    ring = np.zeros(FRAME.shape, dtype=bool)
    ring[30:50, 30:50] = True
    ring[33:47, 33:47] = False
    ring[40, 40] = True  # an island
    two = ring.copy()
    two[36, 44] = True  # a second island
    u = np.zeros(FRAME.shape, dtype=bool)
    u[60:80, 10:30] = True
    u[60:75, 15:25] = False
    u[62:66, 18:22] = True  # a block in the U's mouth: inside the U's box, off its hull
    island, on_ring, in_hole, other_island = 40 * N + 40, 31 * N + 31, 35 * N + 35, 36 * N + 44
    block, on_u = 63 * N + 19, 78 * N + 12
    cases = [
        (ring, [island]), (ring, [island, on_ring]), (ring, [in_hole]),
        (ring, [island, in_hole]), (ring, [on_ring]), (ring, [in_hole, on_ring]),
        (two, [island]), (two, [island, other_island]), (two, [other_island, in_hole]),
        (u, [block]), (u, [block, on_u]), (u, [on_u]), (ring | u, [island, block]),
    ]
    out = []
    for mask, cells in cases:
        pts = _cell_centres(FRAME, cells)
        for zeros in (1, 2, len(cells) + 1):
            table = _table(np.random.default_rng(len(out)), len(pts), zeros)
            out.append((Region(FRAME, mask, OPEN), PointCountMeasure(pts, table)))
    return out


# -- tests -----------------------------------------------------------------


def test_regions_match_the_full_frame_reference():
    for region in REGIONS:
        assert_kernel_matches_the_reference(region.mask)


def test_mass_matches_the_full_frame_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    for i, region in enumerate(REGIONS):
        mu = _points_in(region, rng) if i % 4 else _measure(rng, region.frame)
        got = mu.mass(region)
        assert got == ref_mass(mu, region)
        assert repr(got) == repr(cropped_mass(mu, region))


def test_shortcuts_equal_the_cropped_kernel(monkeypatch):
    """Points clustered in holes, one-point islands in a ring's hole, a U
    whose box holds another component's point, and tables with leading -0.0
    entries: the masses are those of the kernel that labels every component
    and hole, and each of the three shortcuts both fires and falls through."""
    rng = np.random.default_rng(23)
    cases = [(region, _clustered_in_holes(region, rng, zeros=i % 3))
             for i, region in enumerate(REGIONS)] + _ring_cases()
    calls = count_label_calls(monkeypatch)
    seen = Counter()
    for region, mu in cases:
        rows, cols = mu.marked_cells(region.frame)
        want = _shortcut_label_calls(region.mask, rows, cols, seen)
        calls[0] = 0
        got = mu.mass(region)
        assert calls[0] == want
        assert repr(got) == repr(cropped_mass(mu, region)) == repr(ref_mass(mu, region))
    for shortcut in "abc":
        assert seen[shortcut, True] > 0 and seen[shortcut, False] > 0


@pytest.mark.parametrize("n", [64, 100, 333])
def test_nested_rings_at_other_sizes(n):
    frame = Frame(0.0, 10.0, 0.0, 10.0, n, n)
    rng = np.random.default_rng(n)
    for depth in (2, 6, n // 10):
        region = _nested_rings(frame, depth, (n // 2, n // 2 - 1), COMPACT)
        mu = _points_in(region, rng)
        assert mu.mass(region) == ref_mass(mu, region)
        assert_kernel_matches_the_reference(region.mask)


def test_the_inputs_cover_the_cases():
    """Edge-touching sets, several holes, diagonal-only holes, deep nesting."""
    edge = [r for r in REGIONS if r.mask[0].any() or r.mask[:, 0].any()]
    assert len(edge) > 50
    assert max(len(_ref_hole_masks(r.mask)) for r in REGIONS) > 10
    split_holes = [
        r for r in _diagonal_holes()
        if any(len(_ref_component_masks(h)) > 1 for h in _ref_hole_masks(r.mask))
    ]
    assert len(split_holes) == 4
    deepest = _nested_rings(FRAME, 11, (48, 48), COMPACT)
    assert len(_ref_hole_masks(deepest.mask)) == 10
