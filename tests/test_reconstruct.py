import pytest

from quasimeasure import (
    BumpSchedule,
    DensityMeasure,
    FrameError,
    GeometryError,
    QuasiIntegral,
    empty_region,
    mu_rho_compact,
    mu_rho_open,
    rect_region,
    roundtrip,
    tm_eval,
)
from quasimeasure.presets import roundtrip_catalog


class TestBumpSchedule:
    def test_default_radii(self, crossing, regions64):
        # every erosion of the interior is feasible, so the trace lists every radius
        rho = QuasiIntegral(crossing)
        report = mu_rho_open(rho, regions64["interior"])
        assert [k for k, _ in report.trace] == [8, 7, 6, 5, 4, 3, 2, 1]
        report = mu_rho_open(rho, regions64["interior"], BumpSchedule(max_steps=3))
        assert [k for k, _ in report.trace] == [3, 2, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            BumpSchedule(max_steps=0)


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
        assert len(report.trace) < BumpSchedule().max_steps
        assert report.converged

    def test_all_steps_exit_frame(self, frame64, crossing):
        K = rect_region(frame64, 0.05, 9.95, 0.05, 9.95, role="compact")
        with pytest.raises(FrameError):
            mu_rho_compact(QuasiIntegral(crossing), K, BumpSchedule(max_steps=3))

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
            assert e.gap == 0.0, e.name
            assert e.passed and e.report.converged

    def test_zero_measure(self, frame64):
        entries = roundtrip(DensityMeasure(0.0), roundtrip_catalog(frame64))
        assert all(e.reconstructed == 0.0 and e.measured == 0.0 for e in entries)

    def test_atomic_rectangles(self, frame64, spikes):
        catalog = {
            "hit": rect_region(frame64, 2.2, 4.2, 6.2, 8.4, role="open"),
            "miss": rect_region(frame64, 7.8, 9.2, 7.8, 9.2, role="open"),
            "both": rect_region(frame64, 1.4, 7.4, 1.4, 8.4, role="open"),
        }
        entries = roundtrip(spikes, catalog, rt_tol=1e-9)
        for e in entries:
            assert e.gap <= 1e-9, (e.name, e.gap)

    def test_list_catalog(self, frame64, crossing, regions64):
        entries = roundtrip(crossing, [regions64["core"], regions64["K"]])
        assert [e.name for e in entries] == ["region_0", "region_1"]

    def test_report_serialization(self, frame64, crossing, regions64, tmp_path):
        report = mu_rho_compact(QuasiIntegral(crossing), regions64["core"])
        path = tmp_path / "trace.csv"
        report.trace_to_csv(path)
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
