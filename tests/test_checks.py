import json

import numpy as np
import pytest

from quasimeasure import (
    GeometryError,
    PiecewiseLinearMap,
    QuasiIntegral,
    add,
    checks,
    compose,
    neg_part,
    pos_part,
    rect_region,
    scale,
    sup_distance,
    support_region,
    tm_eval,
    truncate,
)
from quasimeasure.checks import (
    check_disjoint_support_additivity,
    check_distribution_invariants,
    check_extension_consistency,
    check_homogeneity,
    check_linear_agreement,
    check_monotone_lipschitz,
    check_nonlinearity_example,
    check_positivity,
    check_roundtrip,
    check_sga_additivity,
    check_tm_axioms,
)
from quasimeasure.presets import standard_frame

from conftest import roundtrip_catalog, truncation, zero_field


class TestNonlinearityExample:
    def test_golden_triple(self):
        report = check_nonlinearity_example()
        assert report.passed
        d = report.details["1.0"]
        assert (d["rho_f"], d["rho_g"], d["rho_sum"]) == (1.0, 1.0, 1.5)
        assert d["defect"] == 0.5

    def test_height_two(self):
        report = check_nonlinearity_example()
        d = report.details["2.0"]
        assert (d["rho_f"], d["rho_g"], d["rho_sum"]) == (2.0, 2.0, 3.0)

    def test_defect_ratio_constant_across_heights(self):
        report = check_nonlinearity_example()
        assert list(report.details) == ["0.5", "1.0", "2.0"]
        ratios = {d["defect_over_b"] for d in report.details.values()}
        assert ratios == {0.5}

    def test_coarse_frame_rejected(self):
        from quasimeasure import Frame

        with pytest.raises(GeometryError):
            check_nonlinearity_example(frame=Frame(0, 10, 0, 10, 32, 32))

    def test_wrong_window_rejected(self):
        from quasimeasure import Frame

        with pytest.raises(GeometryError):
            check_nonlinearity_example(frame=Frame(0, 12, 0, 12, 64, 64))


class TestGoldenPairRho:
    """rho on the golden pair's f: the subalgebra, monotone and disjoint-sum
    identities the random suites sample, at fixed inputs."""

    def test_truncation_split(self, crossing, golden_pair):
        rho = QuasiIntegral(crossing)
        ident = PiecewiseLinearMap.identity(-0.5, 1.5)
        clip = truncation(0.5, -0.5, 1.5)
        low, high = compose(clip, golden_pair[0]), compose(ident - clip, golden_pair[0])
        assert (rho(low), rho(high), rho(add(low, high))) == (0.5, 0.5, 1.0)

    def test_identity_and_zero_split(self, crossing, golden_pair):
        rho = QuasiIntegral(crossing)
        f = golden_pair[0]
        ident = PiecewiseLinearMap.identity(-0.5, 1.5)
        zero = PiecewiseLinearMap(np.array([[-0.5, 0.0], [1.5, 0.0]]))
        assert rho(compose(ident, f)) + rho(compose(zero, f)) == rho(f) == 1.0

    def test_monotone_pair(self, crossing, golden_pair):
        rho = QuasiIntegral(crossing)
        f = golden_pair[0]
        g = truncate(f, 0.5)
        K = support_region(f).union(support_region(g), role="compact")
        assert (rho(f), rho(g)) == (1.0, 0.5)
        assert (sup_distance(f, g), tm_eval(crossing, K)) == (0.5, 1.0)

    def test_sum_with_zero_field(self, crossing, golden_pair, frame64):
        rho = QuasiIntegral(crossing)
        f, zero = golden_pair[0], zero_field(frame64)
        h = add(f, scale(zero, -1.0))
        assert rho(add(f, zero)) == 1.0
        assert (rho(pos_part(h)), rho(neg_part(h))) == (1.0, 0.0)


RANDOM_SUITES = [
    check_sga_additivity,
    check_disjoint_support_additivity,
    check_monotone_lipschitz,
    check_homogeneity,
    check_positivity,
    check_distribution_invariants,
]

# (support cells, rho) of every evaluation a suite makes at trials=3, seed=11
# on the crossing measure, in order, as recorded before the suites shared one
# set-up. A reordered, extra or missing draw changes the fields.
PINNED_STREAM = {
    "sga_additivity": [
        (1664, 1.5624999999999998), (1664, -1.7714285714285714),
        (1664, -0.20892857142857135), (1035, 0.0), (1035, 0.0), (1035, 0.0),
        (1035, 0.0), (290, 0.0), (216, 0.0), (290, 0.0)],
    "disjoint_support_additivity": [
        (208, 0.0), (144, 0.0), (352, 0.0), (352, 0.0), (208, 0.0), (144, 0.0),
        (494, 0.0), (130, 0.0), (624, 0.0), (624, 0.0), (494, 0.0), (130, 0.0),
        (190, 0.0), (81, 0.0), (271, 0.0), (271, 0.0), (190, 0.0), (81, 0.0)],
    "monotone_lipschitz": [
        (1664, 2.0), (1664, 0.4765352859625732), (1120, 0.0), (1120, 0.0),
        (437, 0.0), (1296, 0.25)],
    "homogeneity": [
        (1664, 2.0), (1664, -4.0), (1664, -2.0), (1664, 1.0), (1664, 6.0),
        (923, 0.0), (923, 0.0), (923, 0.0), (923, 0.0), (923, 0.0),
        (1035, 0.0), (1035, 0.0), (1035, 0.0), (1035, 0.0), (1035, 0.0)],
    "positivity": [(1664, 2.0), (1189, 0.0), (1344, 0.5)],
    "distribution_invariants": [
        (1664, 2.0), (1664, 2.0), (1189, 0.0), (1189, 0.0), (1152, 0.0),
        (1152, 0.0)],
}


class TestRandomSuites:
    @pytest.mark.parametrize("fn", RANDOM_SUITES[:-1])
    def test_short_runs_pass(self, crossing, fn):
        report = fn(crossing, trials=25, seed=11)
        assert report.passed, report.worst
        assert report.trials == 25

    def test_distribution_invariants(self, crossing):
        report = check_distribution_invariants(crossing, trials=20, seed=3)
        assert report.passed, report.worst

    def test_determinism(self, crossing):
        a = check_homogeneity(crossing, trials=10, seed=5)
        b = check_homogeneity(crossing, trials=10, seed=5)
        assert a.failures == b.failures == 0
        assert a.to_dict()["trials"] == b.to_dict()["trials"]

    @pytest.mark.parametrize("fn", RANDOM_SUITES)
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, crossing, fn, trials):
        with pytest.raises(ValueError, match="trials"):
            fn(crossing, trials=trials)

    def test_random_stream_is_pinned(self, crossing, monkeypatch):
        log = []
        call, integral = checks.QuasiIntegral.__call__, checks.quasi_integral

        def logged_call(self, f):
            value = call(self, f)
            log.append((int(np.count_nonzero(f.values)), value))
            return value

        def logged_integral(mu, f, variant="B"):
            result = integral(mu, f, variant)
            log.append((int(np.count_nonzero(f.values)), result.value))
            return result

        monkeypatch.setattr(checks.QuasiIntegral, "__call__", logged_call)
        monkeypatch.setattr(checks, "quasi_integral", logged_integral)
        stream = {}
        for fn in RANDOM_SUITES:
            log.clear()
            fn(crossing, trials=3, seed=11)
            stream[fn.__name__.removeprefix("check_")] = list(log)
        assert stream == PINNED_STREAM


class TestMeasureBaselines:
    def test_tm_axioms_all_kinds(self, crossing, lebesgue, spikes, frame64):
        for mu in (crossing, lebesgue, spikes):
            report = check_tm_axioms(mu, frame=frame64)
            assert report.passed, (mu.kind, report.worst)

    def test_linear_agreement(self, lebesgue):
        frame = standard_frame(128)
        from quasimeasure import build_plateau

        tent = build_plateau(None, rect_region(frame, 2, 6, 2, 6, role="open"),
                             1.0, 2.0)
        report = check_linear_agreement(lebesgue, tent)
        assert report.passed
        assert report.details["gap"] <= 1e-9

    def test_roundtrip_check(self, crossing, frame64):
        report = check_roundtrip(crossing, roundtrip_catalog(frame64))
        assert report.passed and report.trials == 6

    def test_extension_check(self, crossing, golden_pair):
        report = check_extension_consistency(crossing, golden_pair[0])
        assert report.passed
        assert report.details["tails"] == [0.5, 0.75, 0.875]


class TestFailurePath:
    def test_density_compact_roundtrip_bias_is_reported(self, frame64, lebesgue):
        # the plateau family overshoots a compact target by the ramp ring on
        # a density measure: an honest failure at the density's own bound
        catalog = {"box": rect_region(frame64, 2, 5, 2, 5, role="compact")}
        report = check_roundtrip(lebesgue, catalog)
        assert not report.passed
        assert report.failures == 1
        assert report.worst["region"] == "box"
        assert report.worst["violation"] > 0

    def test_report_is_serializable(self, frame64, lebesgue):
        catalog = {"box": rect_region(frame64, 2, 5, 2, 5, role="compact")}
        report = check_roundtrip(lebesgue, catalog)
        json.dumps(report.to_dict())


class TestTrivialCases:
    def test_tm_axioms_zero_measure(self, frame64):
        from quasimeasure import DensityMeasure

        report = check_tm_axioms(DensityMeasure(0.0), frame=frame64)
        assert report.passed
