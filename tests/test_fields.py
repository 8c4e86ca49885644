import math

import numpy as np
import pytest
from scipy import ndimage

from quasimeasure import (
    DomainError,
    Frame,
    FrameError,
    FrameMismatchError,
    GeometryError,
    PiecewiseLinearMap,
    ScalarField,
    add,
    build_plateau,
    compose,
    erode,
    neg_part,
    pos_part,
    rect_region,
    scale,
    sup_distance,
    sup_norm,
    support_region,
    truncate,
)
from quasimeasure.fields import distance_map
from quasimeasure.grid import edge_cells
from quasimeasure.regions import point_cells
from quasimeasure.presets import OUTER_U, RECT_K

from conftest import truncation, zero_field


def rect_mask(frame, x0, x1, y0, y1, closed=True):
    # independent rasterization used as the oracle for plateau values
    xs = frame.x_centers()
    ys = frame.y_centers()
    if closed:
        in_x, in_y = (xs >= x0) & (xs <= x1), (ys >= y0) & (ys <= y1)
    else:
        in_x, in_y = (xs > x0) & (xs < x1), (ys > y0) & (ys < y1)
    return in_y[:, None] & in_x[None, :]


class TestFrame:
    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            Frame(0, 10, 0, 10, 4, 64)

    def test_cell_budget(self):
        """2048 x 2048 cells fit the budget, one row more does not; a frame
        holds no raster, so neither builds an array."""
        assert Frame(0, 10, 0, 10, 2048, 2048).shape == (2048, 2048)
        with pytest.raises(ValueError, match="budget"):
            Frame(0, 10, 0, 10, 2048, 2049)

    # (-1e308, 1e308) is finite, but its width overflows to an infinite cell,
    # and 5e-324 is positive, but its cell underflows to 0
    @pytest.mark.parametrize("x_min, x_max", [
        (0, 0), (0, math.inf), (-1e308, 1e308), (0, 5e-324),
    ])
    def test_degenerate_extent(self, x_min, x_max):
        with pytest.raises(ValueError):
            Frame(x_min, x_max, 0, 10, 64, 64)

    def test_cell_area_overflows(self):
        with pytest.raises(ValueError):
            Frame(0, 1e300, 0, 1e300, 8, 8)

    def test_cell_geometry(self, frame64):
        assert frame64.dx == pytest.approx(10 / 64)
        assert frame64.shape == (64, 64)
        assert point_cells(frame64, [[5.37, 5.63]]).tolist() == [[36, 34]]


class TestScalarField:
    def test_boundary_must_vanish(self, frame64):
        vals = np.zeros(frame64.shape)
        vals[0, 5] = 1.0
        with pytest.raises(FrameError):
            ScalarField(frame64, vals)

    def test_values_must_be_finite(self, frame64):
        vals = np.zeros(frame64.shape)
        vals[10, 10] = np.nan
        with pytest.raises(ValueError):
            ScalarField(frame64, vals)

    def test_shape_mismatch(self, frame64):
        with pytest.raises(ValueError):
            ScalarField(frame64, np.zeros((10, 10)))

    def test_one_zero(self, frame64, regions64, golden_pair):
        """A field stores -0.0 as 0.0 and every other value bit for bit, and
        leaves a caller's array as it was, writeable included."""
        f, g = golden_pair
        h = add(f, scale(g, -1.0))
        outer = regions64["U"]
        caller = np.zeros(frame64.shape)
        caller[20:40, 20:40] = 0.75
        caller[25:30, 25:30] = -1.5
        caller[1:-1, 1:-1] *= -1.0  # -0.0 inside the edge ring, 0.0 on it
        frozen = caller.copy()
        frozen.setflags(write=False)
        before = caller.copy()
        cases = {
            "scale": (scale(f, -1.0), -1.0 * f.values),
            "neg_part": (neg_part(h), np.maximum(-h.values, 0.0)),
            "plateau": (build_plateau(regions64["K"], outer, -2.0, 0.25),
                        -2.0 * np.minimum(1.0, full_frame_distance_map(outer) / 0.25)),
            "caller": (ScalarField(frame64, caller), caller),
            "read_only": (ScalarField(frame64, frozen), frozen),
        }
        for name, (got, raw) in cases.items():
            zero = raw == 0.0
            # np.maximum(-0.0, 0.0) may return either zero
            assert name == "neg_part" or np.signbit(raw[zero]).any(), name
            assert not np.signbit(got.values[zero]).any(), name
            assert np.array_equal(got.values[~zero].view(np.uint64),
                                  raw[~zero].view(np.uint64)), name
        for raw in (caller, frozen):
            assert np.array_equal(raw.view(np.uint64), before.view(np.uint64))
        # a field owns a copy, so the caller may still write its array, with
        # or without a -0.0 in it
        plain = np.abs(caller)
        ScalarField(frame64, plain)
        assert caller.flags.writeable and plain.flags.writeable


class TestBuildPlateau:
    def test_flat_on_inner_and_zero_outside(self, frame64, regions64):
        f = build_plateau(regions64["K"], regions64["U"], 1.0, 0.25)
        k_mask = rect_mask(frame64, *RECT_K)
        u_mask = rect_mask(frame64, *OUTER_U, closed=False)
        assert np.all(f.values[k_mask] == 1.0)
        assert np.all(f.values[~u_mask] == 0.0)
        assert np.all((f.values >= 0.0) & (f.values <= 1.0))

    def test_height_scales_linearly(self, frame64, regions64):
        f1 = build_plateau(regions64["K"], regions64["U"], 1.0, 0.25)
        f2 = build_plateau(regions64["K"], regions64["U"], 2.0, 0.25)
        assert np.array_equal(f2.values, 2.0 * f1.values)

    def test_empty_outer_rejected(self, frame64, regions64):
        with pytest.raises(GeometryError):
            build_plateau(regions64["empty"], regions64["empty"], 1.0, 0.25)

    def test_ramp_wider_than_margin_rejected(self, frame64, regions64):
        with pytest.raises(GeometryError):
            build_plateau(regions64["K"], regions64["U"], 1.0, 2.0)

    def test_outer_on_frame_boundary_rejected(self, frame64):
        full = rect_region(frame64, 0, 10, 0, 10, role="compact")
        with pytest.raises(FrameError):
            build_plateau(None, full, 1.0, 0.25)

    def test_inner_not_inside_outer_rejected(self, frame64, regions64):
        with pytest.raises(GeometryError):
            build_plateau(regions64["C"], regions64["U"], 1.0, 0.25)

    def test_bad_parameters(self, frame64, regions64):
        with pytest.raises(DomainError):
            build_plateau(None, regions64["U"], 0.0, 0.25)
        with pytest.raises(DomainError):
            build_plateau(None, regions64["U"], 1.0, -0.1)

    def test_negative_height(self, frame64, regions64):
        f = build_plateau(regions64["K"], regions64["U"], -2.0, 0.25)
        assert sup_norm(f) == 2.0
        assert np.all(f.values <= 0.0)
        # the formula gives -0.0 off the support, which the field stores as 0.0
        off = ~regions64["U"].mask
        assert np.all(f.values[off] == 0.0) and not np.signbit(f.values[off]).any()


def full_frame_distance_map(outer):
    # the transform over the whole frame, kept verbatim as the oracle
    return ndimage.distance_transform_edt(outer.mask, sampling=(outer.frame.dy, outer.frame.dx))


def _plateau_outcome(build, inner, outer, height, ramp_width):
    try:
        return build(inner, outer, height, ramp_width).values
    except GeometryError:
        return GeometryError


def full_frame_build_plateau(inner, outer, height, ramp_width):
    # the full-frame body that the box-built plateau replaced, kept verbatim
    # (argument checks before the distance map omitted) as the oracle
    frame = outer.frame
    dist = full_frame_distance_map(outer)
    if inner is not None and not inner.is_empty:
        if float(dist[inner.mask].min()) < ramp_width:
            raise GeometryError(
                "inner region is closer than ramp_width to the boundary of outer"
            )
    return ScalarField(frame, height * np.minimum(1.0, dist / ramp_width))


class TestDistanceMap:
    def test_box_crop_equals_the_full_frame(self, gate_masks):
        for r in gate_masks:
            box, dist = distance_map(r)
            embedded = np.zeros(r.frame.shape)
            embedded[box] = dist
            assert np.array_equal(embedded, full_frame_distance_map(r))

    def test_box_built_plateau_equals_the_full_frame(self, gate_masks):
        # every value and the sign of every zero, which the CSV artifacts print
        outcomes = []
        for r in gate_masks:
            if r.is_empty or r.role != "open":
                continue
            for inner in (None, erode(r, 2)):
                for height in (1.0, -2.5, 0.5):
                    for width in (1.5 * r.frame.min_cell, 4.0 * r.frame.min_cell, 0.3):
                        got = _plateau_outcome(build_plateau, inner, r, height, width)
                        want = _plateau_outcome(full_frame_build_plateau, inner, r, height, width)
                        if isinstance(got, type):
                            assert got is want
                        else:
                            assert np.array_equal(got, want)
                            assert np.array_equal(np.signbit(got), np.signbit(want))
                        outcomes.append(got)
        assert any(got is GeometryError for got in outcomes)
        assert any(not isinstance(got, type) and np.signbit(got).any() for got in outcomes)

    def test_gate_covers_its_cases(self, gate_masks):
        shapes = {r.frame.shape for r in gate_masks}
        assert shapes == {(64, 64), (64, 96), (48, 80)}
        assert any(r.frame.dx != r.frame.dy for r in gate_masks)
        assert sum(r.is_empty for r in gate_masks) == 3
        assert any(r.mask[1].any() or r.mask[:, 1].any() for r in gate_masks if r.role == "open")
        assert sum(r.role == "compact" for r in gate_masks) >= 30


class TestAlgebra:
    def test_additive_identity(self, frame64, golden_pair):
        f, _ = golden_pair
        assert np.array_equal(add(f, zero_field(frame64)).values, f.values)

    def test_frame_mismatch(self, frame64, golden_pair):
        other = zero_field(Frame(0, 10, 0, 10, 96, 96))
        with pytest.raises(FrameMismatchError):
            add(golden_pair[0], other)

    def test_negation_preserves_sup_norm(self, golden_pair):
        f, _ = golden_pair
        assert sup_norm(scale(f, -1.0)) == sup_norm(f)

    def test_sum_doubles_on_overlap(self, frame64, golden_pair):
        f, g = golden_pair
        overlap = rect_mask(frame64, 5, 7, 5, 7)
        h = add(f, g)
        assert np.all(h.values[overlap] == 2.0)


class TestTruncate:
    def test_noop_above_max(self, golden_pair):
        f, _ = golden_pair
        assert np.array_equal(truncate(f, 5.0).values, f.values)

    def test_matches_pointwise_minimum(self, golden_pair):
        f, _ = golden_pair
        assert np.array_equal(truncate(f, 0.5).values, np.minimum(f.values, 0.5))

    def test_zero_field(self, frame64):
        z = zero_field(frame64)
        assert np.array_equal(truncate(z, 1.0).values, z.values)

    def test_rejects_bad_level_and_signed_fields(self, golden_pair):
        f, _ = golden_pair
        with pytest.raises(DomainError):
            truncate(f, 0.0)
        with pytest.raises(DomainError):
            truncate(scale(f, -1.0), 0.5)

    def test_dominated_by_field(self, golden_pair):
        f, _ = golden_pair
        t = truncate(f, 0.4)
        assert np.all(t.values <= f.values)
        low = f.values <= 0.4
        assert np.array_equal(t.values[low], f.values[low])


class TestParts:
    def test_nonnegative_field(self, golden_pair):
        f, _ = golden_pair
        assert np.array_equal(pos_part(f).values, f.values)
        assert np.all(neg_part(f).values == 0.0)

    def test_disjoint_difference_recovers_parts(self, frame64):
        p = build_plateau(None, rect_region(frame64, 1, 3, 1, 3, role="open"), 1.0, 0.3)
        q = build_plateau(None, rect_region(frame64, 6, 9, 6, 9, role="open"), 1.0, 0.3)
        h = add(p, scale(q, -1.0))
        assert np.array_equal(pos_part(h).values, p.values)
        assert np.array_equal(neg_part(h).values, q.values)

    def test_symmetry_and_identities(self, golden_pair):
        f, g = golden_pair
        h = add(f, scale(g, -0.5))
        assert np.array_equal(neg_part(scale(h, -1.0)).values, pos_part(h).values)
        assert np.all(pos_part(h).values * neg_part(h).values == 0.0)
        assert np.array_equal(pos_part(h).values - neg_part(h).values, h.values)


class TestPiecewiseLinearMap:
    def test_requires_increasing_knots(self):
        with pytest.raises(DomainError):
            PiecewiseLinearMap(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_requires_zero_at_zero(self):
        with pytest.raises(DomainError):
            PiecewiseLinearMap(np.array([[-1.0, 0.5], [1.0, 0.5]]))

    def test_domain_must_contain_zero(self):
        with pytest.raises(DomainError):
            PiecewiseLinearMap(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_identity_and_truncation(self):
        ident = PiecewiseLinearMap.identity(-1.0, 3.0)
        assert ident(0.7) == 0.7
        clip = truncation(0.5, 0.0, 2.0)
        assert clip(0.3) == 0.3 and clip(1.7) == 0.5

    def test_caller_knots_stay_writeable(self):
        knots = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 2.0]])
        phi = PiecewiseLinearMap(knots)
        assert knots.flags.writeable and not np.shares_memory(knots, phi.knots)

    def test_algebra(self):
        ident = PiecewiseLinearMap.identity(0.0, 2.0)
        clip = truncation(0.5, 0.0, 2.0)
        rest = ident - clip
        xs = np.array([0.0, 0.25, 0.5, 1.3, 2.0])
        assert np.allclose(clip(xs) + rest(xs), xs)


class TestCompose:
    def test_identity_map(self, golden_pair):
        f, _ = golden_pair
        ident = PiecewiseLinearMap.identity(-0.5, 1.5)
        assert np.array_equal(compose(ident, f).values, f.values)

    def test_truncation_map_agrees_with_truncate(self, golden_pair):
        f, _ = golden_pair
        clip = truncation(0.5, -0.5, 1.5)
        assert np.array_equal(compose(clip, f).values, truncate(f, 0.5).values)

    def test_identity_split_sums_back(self, golden_pair):
        f, _ = golden_pair
        ident = PiecewiseLinearMap.identity(-0.5, 1.5)
        clip = truncation(0.5, -0.5, 1.5)
        rest = ident - clip
        total = add(compose(clip, f), compose(rest, f))
        assert np.array_equal(total.values, f.values)

    def test_range_must_fit_domain(self, golden_pair):
        f, _ = golden_pair
        small = PiecewiseLinearMap.identity(0.0, 0.5)
        with pytest.raises(DomainError):
            compose(small, f)

    def test_boundary_stays_zero(self, frame64, golden_pair):
        f, _ = golden_pair
        phi = PiecewiseLinearMap(np.array([[-0.5, 1.0], [0.0, 0.0], [1.5, -2.0]]))
        out = compose(phi, f)
        assert np.all(edge_cells(out.values) == 0.0)


class TestNormsAndSupport:
    def test_sup_norm_zero(self, frame64):
        assert sup_norm(zero_field(frame64)) == 0.0

    def test_sup_norm_of_plateau(self, golden_pair):
        assert sup_norm(golden_pair[0]) == 1.0

    def test_truncation_distance_bound(self, golden_pair):
        f, _ = golden_pair
        for delta in (0.25, 0.5, 0.9):
            assert sup_distance(f, truncate(f, delta)) <= max(0.0, sup_norm(f) - delta)

    def test_support_contains_nonzero_cells(self, golden_pair):
        f, _ = golden_pair
        supp = support_region(f)
        assert np.all(supp.mask[f.values != 0.0])
        assert supp.role == "compact"

    def test_support_of_zero_field_is_empty(self, frame64):
        assert support_region(zero_field(frame64)).is_empty

    def test_support_reaches_the_edge_ring(self, frame64):
        vals = np.zeros(frame64.shape)
        vals[1, 5] = vals[-2, -2] = 1.0  # on the last interior ring
        supp = support_region(ScalarField(frame64, vals))
        assert supp.mask[0, 4:7].all() and supp.mask[-1, -1]
        assert supp.mask.sum() == 9 + 9
