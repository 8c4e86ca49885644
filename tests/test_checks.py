import json
from types import SimpleNamespace

import numpy as np
import pytest

from quasimeasure import (
    DensityMeasure,
    GeometryError,
    PiecewiseLinearMap,
    QuasiIntegral,
    add,
    build_plateau,
    checks,
    compose,
    neg_part,
    pos_part,
    rect_region,
    scale,
    sup_distance,
    sup_norm,
    support_region,
    tm_eval,
    truncate,
)
from quasimeasure.checks import (
    CheckReport,
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
from quasimeasure.integration import quasi_integral
from quasimeasure.measures import TopologicalMeasure
from quasimeasure.presets import crossing_fields, standard_frame

from conftest import roundtrip_catalog, truncation, zero_field


class TestNonlinearityExample:
    def test_golden_triple(self, frame64):
        report = check_nonlinearity_example(frame64)
        assert report.passed
        d = report.details["1.0"]
        assert (d["rho_f"], d["rho_g"], d["rho_sum"]) == (1.0, 1.0, 1.5)
        assert d["defect"] == 0.5

    def test_height_two(self, frame64):
        report = check_nonlinearity_example(frame64)
        d = report.details["2.0"]
        assert (d["rho_f"], d["rho_g"], d["rho_sum"]) == (2.0, 2.0, 3.0)

    def test_defect_ratio_constant_across_heights(self, frame64):
        report = check_nonlinearity_example(frame64)
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
        K = support_region(f).union(support_region(g))
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
    def test_short_runs_pass(self, crossing, fn, frame64):
        report = fn(crossing, trials=25, seed=11, frame=frame64)
        assert report.passed, report.worst
        assert report.trials == 25

    def test_distribution_invariants(self, crossing, frame64):
        report = check_distribution_invariants(crossing, trials=20, seed=3, frame=frame64)
        assert report.passed, report.worst

    def test_determinism(self, crossing, frame64):
        a = check_homogeneity(crossing, trials=10, seed=5, frame=frame64)
        b = check_homogeneity(crossing, trials=10, seed=5, frame=frame64)
        assert a.failures == b.failures == 0
        assert a.to_dict()["trials"] == b.to_dict()["trials"]

    @pytest.mark.parametrize("fn", RANDOM_SUITES)
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, crossing, fn, trials, frame64):
        with pytest.raises(ValueError, match="trials"):
            fn(crossing, trials=trials, frame=frame64)

    def test_random_stream_is_pinned(self, crossing, monkeypatch, frame64):
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
            fn(crossing, trials=3, seed=11, frame=frame64)
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


def test_no_plateau_clears_the_points(frame64):
    """A point just inside every lattice rectangle's corner: no draw clears
    them, and the draw gives up."""
    centres = np.arange(0.25, 10.0, 0.5)
    points = np.stack(np.meshgrid(centres, centres), axis=-1).reshape(-1, 2)
    with pytest.raises(GeometryError, match="clear of the marked points"):
        checks.draw_plateau(np.random.default_rng(0), frame64, avoid_points=points)


class TestTrivialCases:
    def test_tm_axioms_zero_measure(self, frame64):
        from quasimeasure import DensityMeasure

        report = check_tm_axioms(DensityMeasure(0.0), frame=frame64)
        assert report.passed



# -- every failure branch of every check -------------------------------------
#
# Each row makes one check fail through stand-ins for names the check looks up
# in `checks`: rho, the quasi_integral it calls, or, for tm_axioms, a measure
# of its own. `expected` maps each branch that must fire, by its witness's
# "kind" (a tm_axioms label, None for a check with one branch), to the keys
# of the witness that `report.worst` would hold.


def _recorded_witnesses(monkeypatch) -> dict:
    """Branch -> witness keys of each failure recorded for the rest of the test."""
    seen = {}
    record = CheckReport.record

    def logged(self, violation, witness):
        seen.setdefault(witness.get("kind", witness.get("label")), {"violation", *witness})
        record(self, violation, witness)

    monkeypatch.setattr(CheckReport, "record", logged)
    return seen


class _NotAdditive(TopologicalMeasure):
    """Mass 1 on every non-empty region: not additive on disjoint compacts."""

    def mass(self, region):
        return 0.0 if region.is_empty else 1.0


class _IncreasingF:
    """Not a distribution function: it increases, never vanishes, and lies
    above every support mass."""

    left_limit = 0.0
    values = np.array([1e3, 2e3])

    def __call__(self, t):
        return 1.0


def _rho(fn):
    """Stand-in rho: every `QuasiIntegral(mu)` is `fn`."""
    return lambda: {"QuasiIntegral": lambda mu: fn}


def _quasi_integral(value, distribution=None):
    """Stand-in quasi_integral: a result whose value is `value(mu, f, variant)`."""
    return lambda: {"quasi_integral": lambda mu, f, variant="B": SimpleNamespace(
        value=value(mu, f, variant), distribution=distribution)}


def _successive(values):
    """A quasi_integral whose successive values are `values`."""

    def stand_ins():
        it = iter(values)
        return {"quasi_integral": lambda mu, f, variant="B": SimpleNamespace(value=next(it))}

    return stand_ins


_SUM_KEYS = {"violation", "trial", "kind", "lhs", "rhs"}
_TRIAL_KEYS = {"violation", "trial", "kind"}

FAILURE_BRANCHES = {
    "disjoint_support_additivity": (
        lambda mu, frame: check_disjoint_support_additivity(mu, 1, frame=frame),
        _rho(sup_norm),
        {"sum": _SUM_KEYS, "signed_parts": _SUM_KEYS}),
    "nonlinearity_example": (
        lambda mu, frame: check_nonlinearity_example(frame),
        _rho(sup_norm),
        {"triple": {"violation", "height", "kind", "rho_f", "rho_g", "rho_sum"},
         "defect": {"violation", "height", "kind", "defect"}}),
    "monotone_lipschitz": (
        lambda mu, frame: check_monotone_lipschitz(mu, 1, frame=frame),
        _rho(lambda f: -1e3 * sup_norm(f)),
        {"monotone": {"violation", "trial", "kind", "rho_f", "rho_g"},
         "lipschitz": {"violation", "trial", "kind", "gap", "bound", "mu_K"}}),
    "tm_axioms": (
        lambda mu, frame: check_tm_axioms(_NotAdditive(), frame),
        lambda: {},
        {**{label: {"violation", "label", "lhs", "rhs"}
            for label in ("additivity_0", "additivity_1", "partition_0", "partition_1")},
         "superadditivity": {"violation", "label", "sum", "whole"}}),
    "homogeneity": (
        lambda mu, frame: check_homogeneity(mu, 1, frame=frame),
        _rho(sup_norm),
        {None: {"violation", "trial", "coeff", "rho_f"}}),
    "positivity": (
        lambda mu, frame: check_positivity(mu, 1, frame=frame),
        _rho(lambda f: -sup_norm(f)),
        {None: {"violation", "trial", "rho"}}),
    "linear_agreement": (
        lambda mu, frame: check_linear_agreement(DensityMeasure(1.0), build_plateau(
            None, rect_region(frame, 2, 6, 2, 6, role="open"), 1.0, 1.0)),
        _quasi_integral(lambda mu, f, variant: quasi_integral(mu, f, variant).value + 1.0),
        {None: {"violation", "quasi_integral", "oracle", "gap"}}),
    "extension_consistency": (
        lambda mu, frame: check_extension_consistency(mu, crossing_fields(frame)[0]),
        # rho(f), then the tails': gaps 1, 3 and 2, each past its bound 1/n,
        # and they do not shrink
        _successive([0.0, 1.0, 3.0, 2.0]),
        {None: {"violation", "delta", "gap", "bound"},
         "not_converged": {"violation", "kind", "gaps"}}),
    "distribution_invariants": (
        lambda mu, frame: check_distribution_invariants(mu, 1, frame=frame),
        # variants A and B disagree
        _quasi_integral(lambda mu, f, variant: float(variant == "A"), _IncreasingF()),
        {"non_increasing": _TRIAL_KEYS, "zero_tail": _TRIAL_KEYS,
         "support_bound": {*_TRIAL_KEYS, "support_mass"},
         "variant_agreement": {*_TRIAL_KEYS, "A", "B"}}),
}


@pytest.mark.parametrize("name", sorted(FAILURE_BRANCHES))
def test_failure_branches(crossing, frame64, monkeypatch, name):
    """Each branch that records a failure fires and fails its check, with the
    witness it writes."""
    run, stand_ins, expected = FAILURE_BRANCHES[name]
    for attr, value in stand_ins().items():
        monkeypatch.setattr(checks, attr, value)
    seen = _recorded_witnesses(monkeypatch)
    report = run(crossing, frame64)
    assert report.passed is False
    assert seen == expected
    assert set(report.worst) in expected.values()
