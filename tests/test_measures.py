import numpy as np
import pytest

from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    PointCountMeasure,
    Region,
    TieBreakError,
    empty_region,
    frame_interior,
    rect_region,
    tm_eval,
)
from quasimeasure import measures
from quasimeasure.presets import MARKED_POINTS, VALUE_BY_COUNT, standard_frame
from quasimeasure.regions import point_cells


@pytest.mark.parametrize("cls, params", [
    (PointCountMeasure, {"points": [[2.31, 6.43], [6.43, 2.31]],
                         "value_by_count": [0.0, 0.0, 1.0]}),
    (AtomicMeasure, {"points": [[2.31, 6.43], [6.43, 2.31]], "weights": [1.0, 2.0]}),
    (DensityMeasure, {"density": [[1.0, 2.0], [3.0, 4.0]]}),
])
def test_caller_arrays_stay_writeable(cls, params):
    """A measure owns copies of its parameter arrays."""
    arrays = {name: np.array(value) for name, value in params.items()}
    mu = cls(**arrays)
    for name, a in arrays.items():
        assert a.flags.writeable and not np.shares_memory(a, getattr(mu, name)), name


class TestPointCountValidation:
    def test_table_must_start_at_zero(self):
        with pytest.raises(ValueError):
            PointCountMeasure(MARKED_POINTS[:1], np.array([0.5, 1.0]))

    def test_table_must_be_monotone(self):
        with pytest.raises(ValueError):
            PointCountMeasure(MARKED_POINTS[:2], np.array([0.0, 1.0, 0.5]))

    def test_table_must_be_superadditive(self):
        with pytest.raises(ValueError):
            PointCountMeasure(MARKED_POINTS[:2], np.array([0.0, 1.0, 1.0]))

    def test_table_length(self):
        with pytest.raises(ValueError):
            PointCountMeasure(MARKED_POINTS, np.array([0.0, 1.0]))

    def test_golden_table_is_valid(self, crossing):
        assert crossing.total_mass(None) == 1.0


class TestPointCountValues:
    def test_band_between_inner_and_outer(self, frame64, crossing):
        # contains the four points that are not in the lower-right pocket
        band = rect_region(frame64, 0.75, 7.25, 4.75, 7.25, role="open")
        assert tm_eval(crossing, band) == 1.0

    def test_core_square(self, frame64, crossing, regions64):
        assert tm_eval(crossing, regions64["core"]) == 0.5

    def test_full_interior(self, frame64, crossing, regions64):
        assert tm_eval(crossing, regions64["interior"]) == 1.0

    def test_empty(self, frame64, crossing):
        assert tm_eval(crossing, empty_region(frame64)) == 0.0

    def test_single_point_region(self, frame64, crossing):
        r = rect_region(frame64, 2.0, 2.6, 6.1, 6.8, role="compact")
        assert tm_eval(crossing, r) == 0.0

    def test_hole_subtraction(self, frame64, crossing):
        # ring with 2 points around a 3-point hole: value(5) - value(3)
        big = rect_region(frame64, 1, 9, 1, 9, role="compact")
        hole = rect_region(frame64, 4.4, 7.8, 4.4, 7.8, role="compact")
        ring = big.difference(hole)
        assert tm_eval(crossing, ring) == 1.0 - 0.5

    def test_nested_island(self, frame64, crossing):
        # ring (2 pts) + island with the 3 core points inside the ring's hole
        big = rect_region(frame64, 1, 9, 1, 9, role="compact")
        hole = rect_region(frame64, 4.4, 7.8, 4.4, 7.8, role="compact")
        island = rect_region(frame64, 5, 7, 5, 7, role="compact")
        region = big.difference(hole).union(island)
        assert tm_eval(crossing, region) == (1.0 - 0.5) + 0.5

    def test_monotone_on_nested_rects(self, frame64, crossing):
        small = rect_region(frame64, 4.9, 6.0, 4.9, 6.0, role="compact")
        mid = rect_region(frame64, 4.6, 7.4, 4.6, 7.4, role="compact")
        big = rect_region(frame64, 1, 9, 1, 9, role="compact")
        vals = [tm_eval(crossing, r) for r in (small, mid, big)]
        assert vals == sorted(vals)

    def test_partition_identity(self, frame64, crossing, regions64):
        U = rect_region(frame64, 4.2, 7.8, 4.2, 7.8, role="open")
        K = rect_region(frame64, 4.8, 7.2, 4.8, 7.2, role="compact")
        assert tm_eval(crossing, U) == 0.5
        assert tm_eval(crossing, K) == 0.5
        assert tm_eval(crossing, U.difference(K)) == 0.0
        interior = regions64["interior"]
        assert tm_eval(crossing, interior) == \
            tm_eval(crossing, K) + tm_eval(crossing, interior.difference(K))

    def test_tau_chain(self, frame64, crossing, regions64):
        chain = [
            rect_region(frame64, 4.9, 6.0, 4.9, 6.0, role="open"),
            rect_region(frame64, 4.9, 6.6, 4.9, 6.6, role="open"),
            rect_region(frame64, 4.4, 7.6, 4.4, 7.6, role="open"),
            rect_region(frame64, 1.2, 7.7, 4.4, 7.7, role="open"),
            regions64["interior"],
        ]
        values = [tm_eval(crossing, u) for u in chain]
        assert values == [0.0, 0.5, 0.5, 1.0, 1.0]


class TestDensity:
    def test_area_oracle(self, frame64, lebesgue):
        r = rect_region(frame64, 1, 3, 1, 3, role="compact")
        # independent expected value: cell count times cell area
        h = frame64.dx
        lo = int(np.ceil(1 / h - 0.5))
        hi = int(np.floor(3 / h - 0.5))
        exact = (hi - lo + 1) ** 2 * frame64.cell_area
        assert tm_eval(lebesgue, r) == pytest.approx(exact, abs=0)
        assert tm_eval(lebesgue, r) == pytest.approx(4.0, abs=4 * 2 * h + h * h)

    def test_per_cell_density(self, frame64):
        grid = np.ones(frame64.shape)
        grid[:32, :] = 2.0
        mu = DensityMeasure(grid)
        full = rect_region(frame64, -1, 11, -1, 11, role="compact")
        assert full.cell_count == 64 * 64
        assert tm_eval(mu, full) == pytest.approx(1.5 * 100.0)

    def test_density_grid_shape_mismatch(self, frame64):
        mu = DensityMeasure(np.ones((96, 96)))
        with pytest.raises(ValueError):
            tm_eval(mu, frame_interior(frame64))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            DensityMeasure(-1.0)

    def test_total_mass(self, frame64, lebesgue):
        assert lebesgue.total_mass(frame64) == pytest.approx(100.0)
        assert np.isinf(DensityMeasure(1.0, unbounded=True).total_mass(frame64))

    def test_additivity_exact(self, frame64, lebesgue):
        a = rect_region(frame64, 1, 3, 1, 3, role="compact")
        b = rect_region(frame64, 6, 8, 6, 8, role="compact")
        assert tm_eval(lebesgue, a.union(b)) == tm_eval(lebesgue, a) + tm_eval(lebesgue, b)


class TestAtomic:
    def test_membership(self, frame64, spikes):
        r = rect_region(frame64, 2.5, 6.0, 2.5, 6.0, role="open")
        assert tm_eval(spikes, r) == 0.25
        assert tm_eval(spikes, frame_interior(frame64)) == 3.75
        assert tm_eval(spikes, empty_region(frame64)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([[1.0, 1.0]]), np.array([-1.0]))
        with pytest.raises(ValueError):
            AtomicMeasure(np.array([[1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_total_mass(self, frame64, spikes):
        assert spikes.total_mass(frame64) == 3.75


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: PointCountMeasure([[NAN, 5.0]], [0.0, 1.0]),
    lambda: PointCountMeasure(MARKED_POINTS[:1], [0.0, INF]),
    # a NaN point used to count in the total mass while lying in no cell
    lambda: AtomicMeasure([[NAN, 5.0], [5.37, 5.63]], [3.0, 1.0]),
    lambda: AtomicMeasure([[5.37, 5.63]], [INF]),
    lambda: DensityMeasure(NAN),
    lambda: DensityMeasure(np.full((64, 64), INF)),
], ids=["point_count_point", "point_count_table", "atomic_point", "atomic_weight",
        "density_scalar", "density_grid"])
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_point_count_region_with_point_on_contour_rejected(frame64, crossing):
    bad = PointCountMeasure(np.array([[0.625, 5.0]]), np.array([0.0, 1.0]))
    r = rect_region(frame64, 1, 9, 1, 9, role="compact")
    with pytest.raises(TieBreakError):
        tm_eval(bad, r)


class TestPointCellCache:
    """Marked-point cells are looked up once per (measure, frame)."""

    def _counted_lookups(self, monkeypatch):
        calls = []

        def counted(frame, points):
            calls.append(frame)
            return point_cells(frame, points)

        monkeypatch.setattr(measures, "point_cells", counted)
        return calls

    def test_gridline_point_raises_on_first_use_and_is_not_cached(self, frame64):
        # x = 0.625 is the gridline between columns 3 and 4 at 64x64, not at 100x100
        bad = PointCountMeasure(np.array([[0.625, 5.03]]), np.array([0.0, 1.0]))
        frame100 = standard_frame(100)
        around = rect_region(frame100, 0.5, 0.8, 4.9, 5.1)
        assert bad.mass(around) == 1.0
        for _ in range(2):
            with pytest.raises(TieBreakError):
                bad.mass(rect_region(frame64, 1, 9, 1, 9, role="compact"))
        assert bad.mass(around) == 1.0

    def test_each_frame_gets_its_own_cells(self, monkeypatch):
        mu = PointCountMeasure(MARKED_POINTS, VALUE_BY_COUNT)
        calls = self._counted_lookups(monkeypatch)
        frames = [standard_frame(64), standard_frame(100)]
        for _ in range(3):
            for frame in frames:
                for row, col in point_cells(frame, mu.points):
                    # the single cell holding a marked point holds one
                    cell = np.zeros(frame.shape, dtype=bool)
                    cell[row, col] = True
                    assert mu.mass(Region(frame, cell, "compact")) == VALUE_BY_COUNT[1]
        assert calls == frames

    def test_atomic_results_do_not_change(self, spikes, monkeypatch):
        mu = AtomicMeasure(spikes.points, spikes.weights)
        calls = self._counted_lookups(monkeypatch)
        frames = [standard_frame(64), standard_frame(100)]
        for _ in range(2):
            for frame in frames:
                cells = point_cells(frame, mu.points)
                inside = cells[:, 0] >= 0
                rows, cols = cells[inside, 0], cells[inside, 1]
                r = rect_region(frame, 2.5, 6.0, 2.5, 6.0, role="open")
                assert mu.mass(r) == float(mu.weights[inside][r.mask[rows, cols]].sum())
                assert mu.mass(frame_interior(frame)) == 3.75
        assert calls == frames
