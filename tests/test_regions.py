import numpy as np
import pytest
from scipy import ndimage

from conftest import same_region
from test_topology_kernel import kernel_parts

from quasimeasure import (
    FrameError,
    FrameMismatchError,
    Region,
    dilate,
    empty_region,
    erode,
    frame_interior,
    rect_region,
)
from quasimeasure.regions import EIGHT_CONN, _holes


def annulus(frame):
    outer = rect_region(frame, 2, 8, 2, 8, role="compact")
    inner = rect_region(frame, 4, 6, 4, 6, role="compact")
    return outer.difference(inner)


class TestRegionBasics:
    def test_rect_cell_count_matches_floor_arithmetic(self, frame64):
        r = rect_region(frame64, 1, 3, 1, 3, role="compact")
        h = frame64.dx
        lo = int(np.ceil(1 / h - 0.5))
        hi = int(np.floor(3 / h - 0.5))
        per_axis = hi - lo + 1
        assert r.cell_count == per_axis ** 2

    def test_open_role_rejects_boundary_cells(self, frame64):
        with pytest.raises(FrameError):
            rect_region(frame64, 0, 10, 0, 10, role="open")

    def test_set_algebra(self, frame64):
        a = rect_region(frame64, 1, 5, 1, 5, role="compact")
        b = rect_region(frame64, 3, 7, 3, 7, role="compact")
        assert a.intersection(b).subset_of(a)
        assert a.subset_of(a.union(b))
        assert not (a.difference(b).mask & b.mask).any()

    def test_frame_mismatch(self, frame64):
        from quasimeasure import Frame

        other = rect_region(Frame(0, 10, 0, 10, 96, 96), 1, 2, 1, 2)
        with pytest.raises(FrameMismatchError):
            rect_region(frame64, 1, 2, 1, 2).union(other)

    def test_bad_role(self, frame64):
        with pytest.raises(ValueError):
            Region(frame64, np.zeros(frame64.shape, dtype=bool), role="closed")

    def test_caller_mask_stays_writeable(self, frame64):
        """A region owns its mask: the caller's stays writeable and shares no memory."""
        mask = np.zeros(frame64.shape, dtype=bool)
        mask[10:20, 10:20] = True
        r = Region(frame64, mask)
        assert mask.flags.writeable and not np.shares_memory(mask, r.mask)
        mask[30, 30] = True
        assert r.cell_count == 100 and not r.mask.flags.writeable


class TestTopology:
    """The kernel's conventions, on its components, holes and hulls embedded
    back into the frame."""

    def test_filled_rect_is_solid(self, frame64):
        r = rect_region(frame64, 2, 6, 2, 6, role="compact")
        [(comp, holes, hull)] = kernel_parts(r.mask)
        assert holes == []
        assert np.array_equal(comp, r.mask) and np.array_equal(hull, r.mask)

    def test_annulus_has_one_hole(self, frame64):
        r = annulus(frame64)
        [(comp, holes, hull)] = kernel_parts(r.mask)
        assert len(holes) == 1
        filled = rect_region(frame64, 2, 8, 2, 8, role="compact").mask
        assert np.array_equal(hull, filled)
        assert np.array_equal(holes[0], filled & ~r.mask)

    def test_two_rectangles(self, frame64):
        r = rect_region(frame64, 1, 3, 1, 3).union(rect_region(frame64, 6, 8, 6, 8))
        assert len(kernel_parts(r.mask)) == 2

    def test_diagonal_touch_is_disconnected(self, frame64):
        mask = np.zeros(frame64.shape, dtype=bool)
        mask[10, 10] = mask[11, 11] = True
        assert len(kernel_parts(mask)) == 2

    def test_complement_hole_uses_eight_connectivity(self, frame64):
        # a diamond of cells whose inside touches the outside only diagonally:
        # with 8-connected complements this is NOT a hole
        mask = np.zeros(frame64.shape, dtype=bool)
        mask[20, 21] = mask[21, 20] = mask[21, 22] = mask[22, 21] = True
        assert _holes(mask)[1] == []
        assert _holes(mask[20:23, 20:23])[1] == []

    def test_empty_region_not_solid(self, frame64):
        assert kernel_parts(empty_region(frame64).mask) == []

    def test_full_width_bar_is_solid(self, frame64):
        # both complement strips touch the frame boundary: no hole
        mask = np.zeros(frame64.shape, dtype=bool)
        mask[30:34, :] = True
        [(comp, holes, hull)] = kernel_parts(mask)
        assert holes == []
        assert _holes(mask)[1] == []

    def test_solid_decomposition(self, frame64):
        r = annulus(frame64).union(rect_region(frame64, 0.5, 1.5, 0.5, 1.5))
        parts = kernel_parts(r.mask)
        assert len(parts) == 2
        assert not (parts[0][0] & parts[1][0]).any()
        assert sum(len(holes) for _, holes, _ in parts) == 1
        for comp, holes, hull in parts:
            for hole in holes:
                assert not (hole & ~hull).any()
                assert not (hole & comp).any()


def full_frame_erode(r, k):
    # the erosion over the whole frame, kept verbatim as the oracle
    if k == 0 or r.is_empty:
        return r
    mask = ndimage.binary_erosion(r.mask, structure=EIGHT_CONN, iterations=k,
                                  border_value=0)
    return Region(r.frame, mask, r.role)


def full_frame_dilate(r, k):
    # the dilation over the whole frame, kept verbatim as the oracle
    if k == 0 or r.is_empty:
        return r
    ny, nx = r.frame.shape
    rows, cols = np.nonzero(r.mask)
    if rows.min() < k or cols.min() < k or rows.max() >= ny - k or cols.max() >= nx - k:
        raise FrameError(f"dilation by {k} cells exits the frame")
    mask = ndimage.binary_dilation(r.mask, structure=EIGHT_CONN, iterations=k,
                                   border_value=0)
    return Region(r.frame, mask, r.role)


def _outcome(op, r, k):
    try:
        out = op(r, k)
    except FrameError:
        return FrameError
    return out.frame, out.role, out.mask.tobytes()


class TestMorphology:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_box_crop_equals_the_full_frame(self, gate_masks, k):
        exits = 0
        for r in gate_masks:
            assert _outcome(erode, r, k) == _outcome(full_frame_erode, r, k)
            want = _outcome(full_frame_dilate, r, k)
            assert _outcome(dilate, r, k) == want
            exits += want is FrameError
        # the frame-exit check is exercised, and not on every mask
        assert 0 < exits < len(gate_masks)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_erosion_empties_a_strip_at_the_same_radius(self, frame64, width):
        mask = np.zeros(frame64.shape, dtype=bool)
        mask[20:20 + width, 5:50] = True
        r = Region(frame64, mask)
        first = [k for k in range(1, 9) if erode(r, k).is_empty][0]
        assert first == [k for k in range(1, 9) if full_frame_erode(r, k).is_empty][0]
        assert first == (width + 1) // 2

    def test_zero_radius_is_identity(self, frame64):
        r = frame_interior(frame64)
        assert same_region(erode(r, 0), r) and same_region(dilate(r, 0), r)

    def test_erode_then_dilate_shrinks(self, frame64):
        r = rect_region(frame64, 2, 6, 2, 6, role="compact")
        assert dilate(erode(r, 1), 1).subset_of(r)

    def test_erosion_strictly_inside(self, frame64):
        r = rect_region(frame64, 2, 6, 2, 6, role="compact")
        e = erode(r, 2)
        assert e.subset_of(r) and e.cell_count < r.cell_count
        assert not e.is_empty

    def test_dilation_exits_frame(self, frame64):
        r = rect_region(frame64, 0.05, 9.95, 0.05, 9.95, role="compact")
        with pytest.raises(FrameError):
            dilate(r, 1)

    def test_erosion_can_empty(self, frame64):
        r = rect_region(frame64, 5, 5.4, 5, 5.4, role="compact")
        assert erode(r, 4).is_empty

    def test_negative_radius(self, frame64):
        with pytest.raises(ValueError):
            erode(frame_interior(frame64), -1)


# the raises that no test above reaches, one row each
@pytest.mark.parametrize("build, match", [
    (lambda frame: Region(frame, np.zeros((10, 10), dtype=bool)), "mask shape"),
    (lambda frame: dilate(frame_interior(frame), -1), "dilation radius"),
], ids=["mask_shape", "dilate_negative_radius"])
def test_malformed_input_raises(frame64, build, match):
    with pytest.raises(ValueError, match=match):
        build(frame64)

