from dataclasses import dataclass

import numpy as np
import pytest
from scipy import ndimage

from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    Frame,
    FrameError,
    GeometryError,
    PointCountMeasure,
    QuasiIntegral,
    QuasimeasureError,
    Region,
    ScalarField,
    build_plateau,
    dilate,
    empty_region,
    erode,
    mu_rho_compact,
    mu_rho_open,
    rect_region,
    roundtrip,
    tm_eval,
)
from quasimeasure.fields import distance_map
from quasimeasure.presets import VALUE_BY_COUNT, standard_frame
from quasimeasure.reconstruct import _default_rt_tol, _supports
from quasimeasure.regions import COMPACT, OPEN

from conftest import roundtrip_catalog
from test_regions import full_frame_dilate


class TestBumpSchedule:
    def test_default_radii(self, crossing, regions64):
        # every erosion of the interior is feasible, so the trace lists every radius
        rho = QuasiIntegral(crossing)
        report = mu_rho_open(rho, regions64["interior"])
        assert [k for k, _ in report.trace] == [8, 7, 6, 5, 4, 3, 2, 1]

    def test_compact_radii(self, crossing, regions64):
        # every dilation of the core stays in the frame, so no radius is skipped
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["core"])
        assert [k for k, _ in report.trace] == [8, 7, 6, 5, 4, 3, 2, 1]


class TestOpenEstimator:
    def test_core_neighborhood(self, frame64, crossing):
        rho = QuasiIntegral(crossing)
        U = rect_region(frame64, 4.4, 7.6, 4.4, 7.6, role="open")
        report = mu_rho_open(rho, U)
        assert report.estimate == tm_eval(crossing, U) == 0.5
        assert report.monotone and report.converged

    def test_empty_region(self, frame64, crossing):
        report = mu_rho_open(QuasiIntegral(crossing), empty_region(frame64))
        assert report.estimate == 0.0 and report.converged

    def test_full_interior(self, frame64, crossing, regions64):
        report = mu_rho_open(QuasiIntegral(crossing), regions64["interior"])
        assert report.estimate == 1.0

    def test_estimate_never_exceeds_measure(self, frame64, crossing, regions64):
        rho = QuasiIntegral(crossing)
        for name in ("U", "V", "side_pocket", "interior"):
            region = regions64[name]
            report = mu_rho_open(rho, region)
            assert report.estimate <= tm_eval(crossing, region) + 1e-12

    def test_trace_monotone_nondecreasing(self, frame64, crossing, regions64):
        report = mu_rho_open(QuasiIntegral(crossing), regions64["interior"])
        values = [v for _, v in report.trace]
        assert values == sorted(values)

    def test_wrong_role_rejected(self, frame64, crossing, regions64):
        with pytest.raises(GeometryError):
            mu_rho_open(QuasiIntegral(crossing), regions64["K"])


class TestCompactEstimator:
    def test_core_square(self, frame64, crossing, regions64):
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["core"])
        assert report.estimate == 0.5
        assert report.monotone

    def test_far_single_cell(self, frame64, crossing):
        K = rect_region(frame64, 8.8, 9.0, 8.8, 9.0, role="compact")
        assert K.cell_count >= 1
        report = mu_rho_compact(QuasiIntegral(crossing), K)
        assert report.estimate == 0.0

    def test_four_point_rectangle(self, frame64, crossing, regions64):
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["K"])
        assert report.estimate == 1.0

    def test_every_step_dominates_measure(self, frame64, crossing, regions64):
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["core"])
        measured = tm_eval(crossing, regions64["core"])
        assert all(v >= measured - 1e-12 for _, v in report.trace)

    def test_infeasible_steps_are_skipped(self, frame64, crossing, regions64):
        # dilation by 8 cells exits the frame for this region; later steps fit
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["K"])
        assert len(report.trace) < 8
        assert report.converged

    def test_all_steps_exit_frame(self, frame64, crossing):
        K = rect_region(frame64, 0.05, 9.95, 0.05, 9.95, role="compact")
        with pytest.raises(FrameError):
            mu_rho_compact(QuasiIntegral(crossing), K)

    def test_wrong_role_rejected(self, frame64, crossing, regions64):
        with pytest.raises(GeometryError):
            mu_rho_compact(QuasiIntegral(crossing), regions64["U"])


class TestSandwich:
    def test_compact_below_open(self, frame64, crossing, regions64):
        rho = QuasiIntegral(crossing)
        K = regions64["core"]
        U = rect_region(frame64, 4.4, 7.6, 4.4, 7.6, role="open")
        assert K.with_role("open").subset_of(U)
        assert mu_rho_compact(rho, K).estimate <= mu_rho_open(rho, U).estimate + 1e-12


class TestRoundTrip:
    def test_golden_catalog_recovers_exactly(self, frame64, crossing):
        entries = roundtrip(crossing, roundtrip_catalog(frame64))
        assert len(entries) == 6
        for e in entries:
            assert e.gap == 0.0 and e.report.converged, e.name

    def test_zero_measure(self, frame64):
        entries = roundtrip(DensityMeasure(0.0), roundtrip_catalog(frame64))
        assert all(e.reconstructed == 0.0 and e.measured == 0.0 for e in entries)

    def test_atomic_rectangles(self, frame64, spikes):
        catalog = {
            "hit": rect_region(frame64, 2.2, 4.2, 6.2, 8.4, role="open"),
            "miss": rect_region(frame64, 7.8, 9.2, 7.8, 9.2, role="open"),
            "both": rect_region(frame64, 1.4, 7.4, 1.4, 8.4, role="open"),
        }
        entries = roundtrip(spikes, catalog)
        for e in entries:
            assert e.gap <= 1e-9, (e.name, e.gap)

    @pytest.mark.parametrize("resolution", [64, 128, 256])
    def test_density_gap_is_the_compact_ring(self, resolution):
        # a density's open target is recovered exactly; a compact one is
        # overshot by the mass of the one-cell ring around it, which exceeds
        # the density's bound at each of these resolutions
        frame, mu = standard_frame(resolution), DensityMeasure(1.0)
        bounds = (2.3, 5.1, 2.2, 5.3)
        K = rect_region(frame, *bounds, role="compact")
        catalog = {"open": rect_region(frame, *bounds, role="open"), "compact": K}
        opened, closed = roundtrip(mu, catalog)
        assert opened.gap == 0.0
        assert closed.gap == tm_eval(mu, dilate(K, 1)) - tm_eval(mu, K)
        assert closed.gap > _default_rt_tol(mu)

    def test_report_serialization(self, frame64, crossing, regions64, nonlinear_out):
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["core"])
        path = nonlinear_out / "reconstruction_crossing_core.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,radius,value"
        assert len(lines) == 1 + len(report.trace)


def test_reconstructed_values_stay_in_table_range(frame64, crossing):
    # a solid-set functional can only ever report values from its table
    table_values = set(crossing.value_by_count.tolist()) | {0.0}
    entries = roundtrip(crossing, roundtrip_catalog(frame64))
    for e in entries:
        assert e.reconstructed in table_values
        assert all(v in table_values for _, v in e.report.trace)


# -- the one schedule loop against the two per-radius bodies it replaced ----
#
# `_ref_mu_rho_open` and `_ref_mu_rho_compact` are the earlier
# implementation: a fresh `build_plateau` at every radius, the open side with
# an eroded flat top and a feasibility retry. The schedule loop must give the
# same trace, flags and errors bit for bit, so every comparison is `==`.


@dataclass(frozen=True)
class _RefReport:
    target: Region
    kind: str
    trace: tuple
    estimate: float
    monotone: bool
    converged: bool


def _ref_mu_rho_open(rho, U):
    if U.role != OPEN:
        raise GeometryError("mu_rho_open expects an open-role region")
    rt_tol = _default_rt_tol(rho.mu)
    if U.is_empty:
        return _RefReport(U, "open", (), 0.0, True, True)
    min_cell = U.frame.min_cell
    trace = []
    for k in range(8, 0, -1):
        inner = erode(U, k)
        try:
            bump = build_plateau(inner, U, 1.0, k * min_cell)
        except (GeometryError, FrameError):
            continue
        trace.append((k, rho(bump)))
    if not trace:
        raise GeometryError("no schedule step produced a feasible plateau")
    values = [v for _, v in trace]
    return _RefReport(
        target=U, kind="open", trace=tuple(trace), estimate=max(values),
        monotone=all(b >= a - rt_tol for a, b in zip(values[:-1], values[1:])),
        converged=len(values) >= 2 and abs(values[-1] - values[-2]) <= rt_tol,
    )


def _ref_mu_rho_compact(rho, K):
    if K.role != COMPACT:
        raise GeometryError("mu_rho_compact expects a compact-role region")
    rt_tol = _default_rt_tol(rho.mu)
    if K.is_empty:
        return _RefReport(K, "compact", (), 0.0, True, True)
    min_cell = K.frame.min_cell
    trace = []
    for k in range(8, 0, -1):
        try:
            outer = dilate(K, k).with_role(OPEN)
            bump = build_plateau(K, outer, 1.0, k * min_cell)
        except (FrameError, GeometryError):
            continue
        trace.append((k, rho(bump)))
    if not trace:
        raise FrameError("every dilation in the schedule exits the frame")
    values = [v for _, v in trace]
    return _RefReport(
        target=K, kind="compact", trace=tuple(trace), estimate=min(values),
        monotone=all(b <= a + rt_tol for a, b in zip(values[:-1], values[1:])),
        converged=len(values) >= 2 and abs(values[-1] - values[-2]) <= rt_tol,
    )


_FRAMES = {
    "64": standard_frame(64),
    "100": standard_frame(100),
    "96x64": Frame(0.0, 15.0, 0.0, 10.0, 96, 64),
    "anisotropic": Frame(0.0, 10.0, 0.0, 10.0, 80, 48),
}


def _cell_center_points(rng, frame, n):
    """n marked points at cell centers off the edge ring, clear of every gridline."""
    ny, nx = frame.shape
    rows = rng.integers(1, ny - 1, size=n)
    cols = rng.integers(1, nx - 1, size=n)
    return np.column_stack([frame.x_min + (cols + 0.5) * frame.dx,
                            frame.y_min + (rows + 0.5) * frame.dy])


def _measure(kind, frame, rng):
    if kind == "point_count":
        return PointCountMeasure(_cell_center_points(rng, frame, 5), VALUE_BY_COUNT)
    if kind == "point_count_table":
        # sorted increments make a convex table, which is superadditive
        n = int(rng.integers(2, 8))
        table = np.r_[0.0, np.cumsum(np.sort(rng.uniform(0.0, 1.0, size=n)))]
        return PointCountMeasure(_cell_center_points(rng, frame, n), table)
    if kind == "density":
        return DensityMeasure(0.7)
    return AtomicMeasure(_cell_center_points(rng, frame, 4), rng.uniform(0.1, 3.0, size=4))


def _rect(mask, rng, lo, hi_r, hi_c, h_max, w_max):
    h, w = rng.integers(1, h_max + 1), rng.integers(1, w_max + 1)
    r, c = rng.integers(lo, hi_r - h + 1), rng.integers(lo, hi_c - w + 1)
    mask[r:r + h, c:c + w] = True
    return r, c, h, w


def _target_mask(shape_kind, frame, rng, edge_gap):
    """A seeded mask: several components, a holed block, thin strips, or a set
    `edge_gap` cells inside the edge ring (0: on the ring itself)."""
    ny, nx = frame.shape
    mask = np.zeros(frame.shape, dtype=bool)
    if shape_kind == "components":
        for _ in range(rng.integers(2, 5)):
            _rect(mask, rng, 2, ny - 2, nx - 2, ny // 4, nx // 4)
    elif shape_kind == "holes":
        r, c, h, w = _rect(mask, rng, 3, ny - 3, nx - 3, ny - 6, nx - 6)
        for _ in range(rng.integers(1, 4)):
            if h > 4 and w > 4:
                hr, hc = rng.integers(r + 1, r + h - 2), rng.integers(c + 1, c + w - 2)
                mask[hr:hr + rng.integers(1, 3), hc:hc + rng.integers(1, 3)] = False
    elif shape_kind == "strips":
        for width in rng.integers(1, 5, size=3):
            if rng.random() < 0.5:
                r = rng.integers(2, ny - 2 - width)
                mask[r:r + width, 2:nx - 2] = True
            else:
                c = rng.integers(2, nx - 2 - width)
                mask[2:ny - 2, c:c + width] = True
    else:
        d = edge_gap
        h, w = rng.integers(1, ny // 3), rng.integers(1, nx // 3)
        corner = rng.integers(0, 4)
        r = d if corner < 2 else ny - d - h
        c = d if corner % 2 == 0 else nx - d - w
        mask[r:r + h, c:c + w] = True
    return mask


def _outcome(estimator, rho, region):
    try:
        r = estimator(rho, region)
    except QuasimeasureError as exc:
        return type(exc)
    return r.trace, r.estimate, r.monotone, r.converged


@pytest.mark.parametrize("measure_kind",
                         ["point_count", "density", "atomic", "point_count_table"])
@pytest.mark.parametrize("frame_name", list(_FRAMES))
def test_schedule_equals_per_radius_plateaus(frame_name, measure_kind):
    frame = _FRAMES[frame_name]
    rng = np.random.default_rng([len(frame_name), frame.nx, frame.ny, len(measure_kind)])
    rho = QuasiIntegral(_measure(measure_kind, frame, rng))
    outcomes = []
    for i in range(24):
        shape_kind = ("components", "holes", "strips", "edge")[i % 4]
        mask = _target_mask(shape_kind, frame, rng, edge_gap=(i // 4) % 5)
        if shape_kind == "edge":
            K = Region(frame, mask, COMPACT)
            pair = [(mu_rho_compact, _ref_mu_rho_compact, K)]
        else:
            mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
            pair = [(mu_rho_open, _ref_mu_rho_open, Region(frame, mask, OPEN)),
                    (mu_rho_compact, _ref_mu_rho_compact, Region(frame, mask, COMPACT))]
        for new, ref, region in pair:
            got = _outcome(new, rho, region)
            want = _outcome(ref, rho, region)
            assert got == want, (shape_kind, region.role)
            if measure_kind == "point_count_table":
                # a random table's values carry every bit of its sums
                assert repr(got) == repr(_full_frame_outcome(rho, region))
            outcomes.append((region.role, got))
    # the seeded targets reach the compact side's skipped steps and its error
    assert any(got is FrameError for _, got in outcomes)
    assert any(role == COMPACT and got is not FrameError and len(got[0]) < 8
               for role, got in outcomes)


# -- box-built ramps against the full-frame schedule they replaced ----------
#
# `_full_frame_schedule` is the schedule loop as it was before the ramps
# were built on the support's box: a full-frame distance map and a
# full-frame unit ramp at every radius. Traces, flags and errors must match
# by repr, so every float is compared bit for bit.


def _full_frame_distance_map(outer):
    frame = outer.frame
    return ndimage.distance_transform_edt(outer.mask, sampling=(frame.dy, frame.dx))


def _full_frame_schedule(rho, target):
    rt_tol = _default_rt_tol(rho.mu)
    if target.is_empty:
        return (), 0.0, True, True
    frame = target.frame
    is_open = target.role == OPEN
    dist = _full_frame_distance_map(target) if is_open else None
    trace = []
    for k in range(8, 0, -1):
        if not is_open:
            try:
                dist = _full_frame_distance_map(dilate(target, k).with_role(OPEN))
            except FrameError:
                continue
        ramp = np.minimum(1.0, dist / (k * frame.min_cell))
        trace.append((k, rho(ScalarField(frame, ramp))))
    if not trace:
        raise FrameError("every dilation in the schedule exits the frame")
    values = [v for _, v in trace]
    steps = list(zip(values[:-1], values[1:]))
    if is_open:
        estimate, monotone = max(values), all(b >= a - rt_tol for a, b in steps)
    else:
        estimate, monotone = min(values), all(b <= a + rt_tol for a, b in steps)
    return (tuple(trace), estimate, monotone,
            len(values) >= 2 and abs(values[-1] - values[-2]) <= rt_tol)


def _full_frame_outcome(rho, region):
    try:
        return _full_frame_schedule(rho, region)
    except QuasimeasureError as exc:
        return type(exc)


def _box_outcome(rho, region):
    return _outcome(mu_rho_open if region.role == OPEN else mu_rho_compact, rho, region)


def _edge_gap_targets(frame):
    """Compact squares `gap` cells inside the edge ring: a k-cell dilation
    reaches the ring exactly when k > gap, so gap 0 skips every radius and
    gap 1..7 skips radii 8..gap + 1."""
    ny, nx = frame.shape
    out = []
    for gap in range(9):
        mask = np.zeros(frame.shape, dtype=bool)
        mask[1 + gap:1 + gap + ny // 4, nx // 3:nx // 3 + nx // 4] = True
        out.append(Region(frame, mask, COMPACT))
    return out


def test_box_ramps_equal_the_full_frame_schedule(gate_masks, crossing):
    # a density's rho sums every ramp value, so it sees any changed bit; the
    # point-count measures run on a sample, since salt masks cost them ~10 ms
    frame64 = standard_frame(64)
    golden = QuasiIntegral(crossing)
    cases = [(r, golden) for r in
             list(roundtrip_catalog(frame64).values()) + _edge_gap_targets(frame64)]
    rhos = {}
    for i, r in enumerate(gate_masks):
        if r.frame not in rhos:
            rng = np.random.default_rng([r.frame.nx, r.frame.ny])
            rhos[r.frame] = (QuasiIntegral(_measure("density", r.frame, rng)),
                             QuasiIntegral(_measure("point_count", r.frame, rng)))
        density, point_count = rhos[r.frame]
        for region in (r, r.with_role(COMPACT)) if r.role == OPEN else (r,):
            cases.append((region, density))
            if i % 8 == 0:
                cases.append((region, point_count))
    outcomes = []
    for region, rho in cases:
        got = _box_outcome(rho, region)
        want = _full_frame_outcome(rho, region)
        assert repr(got) == repr(want), (region.role, region.frame.shape)
        outcomes.append((region.role, got))
    # every radius run, some radii skipped, and every radius skipped
    assert any(got is FrameError for _, got in outcomes)
    assert any(role == COMPACT and got is not FrameError and 0 < len(got[0]) < 8
               for role, got in outcomes)
    assert any(role == OPEN and len(got[0]) == 8 for role, got in outcomes)


# -- the schedule's supports against the full-frame dilation ----------------
#
# `reconstruct._supports` reads every k-cell dilation of a compact target off
# one chessboard distance map. Each support must be the `distance_map` of
# `full_frame_dilate(K, k).with_role(OPEN)`, scipy's dilation of the whole
# frame, box for box and byte for byte, and a radius must be skipped exactly
# where that raises FrameError: where the dilation exits the frame or
# reaches its edge ring.

_DILATION_FRAMES = {**_FRAMES, "70x30": Frame(0.0, 7.0, 0.0, 3.0, 70, 30)}


def _dilation_pattern(kind, rng, h, w):
    """An h x w mask, cropped to its own cells: several components, a holed
    block, thin strips, or a block with 15% of its cells punched out."""
    m = np.zeros((h, w), dtype=bool)
    if kind == "components":
        for _ in range(rng.integers(2, 5)):
            _rect(m, rng, 0, h, w, max(h // 2, 1), max(w // 2, 1))
    elif kind == "holes":
        m[:] = True
        for _ in range(rng.integers(1, 4)):
            r, c = rng.integers(0, h), rng.integers(0, w)
            m[r:r + rng.integers(1, 3), c:c + rng.integers(1, 3)] = False
    elif kind == "strips":
        for width in rng.integers(1, 3, size=rng.integers(1, 4)):
            if rng.random() < 0.5:
                r = rng.integers(0, max(h - width, 0) + 1)
                m[r:r + width, :] = True
            else:
                c = rng.integers(0, max(w - width, 0) + 1)
                m[:, c:c + width] = True
    else:
        m[:] = rng.random((h, w)) >= 0.15
    if not m.any():
        m[rng.integers(0, h), rng.integers(0, w)] = True
    rows, cols = np.flatnonzero(m.any(axis=1)), np.flatnonzero(m.any(axis=0))
    return m[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def _placed_target(kind, frame, rng, gap):
    """A compact target whose cells start `gap` cells from a random side of
    the frame (0: on the edge ring), placed at random along that side."""
    ny, nx = frame.shape
    pattern = _dilation_pattern(kind, rng, int(rng.integers(1, ny // 3 + 1)),
                                int(rng.integers(1, nx // 3 + 1)))
    h, w = pattern.shape
    r, c = rng.integers(0, ny - h + 1), rng.integers(0, nx - w + 1)
    side = rng.integers(4)
    if side == 0:
        r = gap
    elif side == 1:
        r = ny - gap - h
    elif side == 2:
        c = gap
    else:
        c = nx - gap - w
    mask = np.zeros(frame.shape, dtype=bool)
    mask[r:r + h, c:c + w] = pattern
    return Region(frame, mask, COMPACT)


@pytest.mark.parametrize("frame_name", list(_DILATION_FRAMES))
def test_chessboard_parts_equal_the_dilations(frame_name):
    frame = _DILATION_FRAMES[frame_name]
    rng = np.random.default_rng([frame.nx, frame.ny, 29])
    radii = list(range(8, 0, -1))
    kept, skipped = set(), set()
    for gap in range(11):
        for kind in ("components", "holes", "strips", "punched") * 3:
            K = _placed_target(kind, frame, rng, gap)
            supports = list(_supports(K))
            want = []
            for k in radii:
                try:
                    want.append((k, full_frame_dilate(K, k).with_role(OPEN)))
                except FrameError:
                    skipped.add(k)
                    continue
                kept.add(k)
            assert [ks for _, ks in supports] == [[k] for k, _ in want], (kind, gap)
            for ((got_box, got), _), (k, outer) in zip(supports, want):
                box, dist = distance_map(outer)
                assert got_box == box, (kind, gap, k)
                assert got.dtype == dist.dtype and got.tobytes() == dist.tobytes(), (kind, gap, k)
    # every radius is both kept and skipped somewhere: the edge gaps reach
    # each radius's boundary case
    assert kept == skipped == set(radii)
