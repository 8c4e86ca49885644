import math

import numpy as np
import pytest

from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    DistributionFn,
    DomainError,
    InfiniteMeasureError,
    ScalarField,
    VariantError,
    add,
    build_plateau,
    distribution_function,
    extension_consistency,
    interval_mass,
    linear_oracle,
    quasi_integral,
    rect_region,
    scale,
    truncate,
    zero_field,
)
from quasimeasure.presets import crossing_sum, standard_frame


@pytest.fixture(scope="module")
def golden_sum(frame64):
    return crossing_sum(frame64, 1.0)


class TestDistributionGolden:
    def test_single_plateau_steps(self, crossing, golden_pair):
        F = distribution_function(crossing, golden_pair[0])
        assert F.breakpoints == [(0.0, 1.0), (1.0, 0.0)]
        assert F.left_limit == 1.0
        assert F(0.5) == 1.0 and F(1.0) == 0.0

    def test_sum_has_half_step(self, crossing, golden_sum):
        F = distribution_function(crossing, golden_sum)
        assert F.breakpoints == [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)]
        # right-continuity at the jump
        assert F(1.0) == 0.5
        assert F.left_value(1.0) == 1.0

    def test_zero_field(self, frame64, crossing):
        F = distribution_function(crossing, zero_field(frame64))
        assert F.breakpoints == [(0.0, 0.0)]
        assert F.left_limit == 0.0

    def test_variant_a_left_limit_is_total_mass(self, crossing, golden_pair):
        F = distribution_function(crossing, golden_pair[0], "A")
        assert F.left_limit == crossing.total_mass(None) == 1.0

    def test_unknown_variant(self, crossing, golden_pair):
        with pytest.raises(VariantError):
            distribution_function(crossing, golden_pair[0], "C")


class TestIntervalMass:
    def test_golden_half_step(self, crossing, golden_sum):
        F = distribution_function(crossing, golden_sum)
        assert interval_mass(F, 0.5, 1.5) == 0.5

    def test_beyond_sup_is_zero(self, crossing, golden_sum):
        F = distribution_function(crossing, golden_sum)
        assert interval_mass(F, 2.0, math.inf) == 0.0

    def test_full_range_variant_a(self, crossing, golden_pair):
        F = distribution_function(crossing, golden_pair[0], "A")
        assert interval_mass(F, -math.inf, math.inf) == 1.0

    def test_requires_ordered_interval(self, crossing, golden_pair):
        F = distribution_function(crossing, golden_pair[0])
        with pytest.raises(DomainError):
            interval_mass(F, 1.0, 1.0)

    def test_additive_at_flat_points(self, crossing, golden_sum):
        F = distribution_function(crossing, golden_sum)
        a, b, c = 0.5, 1.5, 2.5
        assert interval_mass(F, a, c) == interval_mass(F, a, b) + interval_mass(F, b, c)


class TestQuasiIntegralGolden:
    def test_nonlinear_triple(self, crossing, golden_pair, golden_sum):
        f, g = golden_pair
        rf = quasi_integral(crossing, f).value
        rg = quasi_integral(crossing, g).value
        rh = quasi_integral(crossing, golden_sum).value
        assert rf == 1.0 and rg == 1.0 and rh == 1.5
        assert rf + rg - rh == 0.5

    def test_zero_field(self, frame64, crossing):
        assert quasi_integral(crossing, zero_field(frame64)).value == 0.0

    @pytest.mark.parametrize("a", [-2.0, -1.0, 0.5, 3.0])
    def test_homogeneity_exact(self, crossing, golden_pair, a):
        f = golden_pair[0]
        assert quasi_integral(crossing, scale(f, a)).value == a * 1.0

    def test_diagnostics(self, crossing, golden_sum):
        res = quasi_integral(crossing, golden_sum)
        assert res.diagnostics.breakpoint_count == 3


class TestLinearAgreement:
    def test_tent_matches_direct_riemann_sum(self, lebesgue):
        frame = standard_frame(128)
        tent = build_plateau(None, rect_region(frame, 2, 6, 2, 6, role="open"),
                             1.0, 2.0)
        res = quasi_integral(lebesgue, tent)
        direct = float(tent.values.sum()) * frame.cell_area
        assert res.value == pytest.approx(direct, abs=1e-9)
        # the raster tent sits half a cell proud of the continuum pyramid,
        # an O(cell * surface) bias
        assert direct == pytest.approx(16.0 / 3.0, abs=0.5)

    def test_atomic_signed_field(self, frame64, spikes):
        p = build_plateau(None, rect_region(frame64, 2.2, 4.2, 6.2, 8.4, role="open"),
                          1.0, 0.3)
        q = build_plateau(None, rect_region(frame64, 5.4, 7.6, 1.8, 4.0, role="open"),
                          1.0, 0.3)
        h = add(p, scale(q, -2.0))
        expected = linear_oracle(spikes, h)
        assert quasi_integral(spikes, h).value == pytest.approx(expected, abs=1e-12)
        assert quasi_integral(spikes, h, "A").value == pytest.approx(expected, abs=1e-12)

    def test_oracle_rejects_point_count(self, crossing, golden_pair):
        with pytest.raises(VariantError):
            linear_oracle(crossing, golden_pair[0])


class TestVariants:
    def test_agreement_for_finite_measures(self, crossing, frame64, golden_pair):
        f = golden_pair[0]
        p = build_plateau(None, rect_region(frame64, 1.2, 3.4, 1.2, 3.4, role="open"),
                          1.0, 0.3)
        h = add(f, scale(p, -1.0))
        for field in (f, h):
            va = quasi_integral(crossing, field, "A").value
            vb = quasi_integral(crossing, field, "B").value
            assert va == pytest.approx(vb, abs=1e-12)

    def test_variant_a_needs_finite_mass(self, frame64, golden_pair):
        unbounded = DensityMeasure(1.0, unbounded=True)
        with pytest.raises(InfiniteMeasureError):
            quasi_integral(unbounded, golden_pair[0], "A")
        # variant B is still fine: compact sets have finite mass
        assert quasi_integral(unbounded, golden_pair[0], "B").value > 0


def _cone(n, cx, cy, radius):
    frame = standard_frame(n)
    xx, yy = frame.center_grids()
    return ScalarField(frame, np.maximum(0.0, 1.0 - np.hypot(xx - cx, yy - cy) / radius))


def _ring(n, cx, cy, inner, outer, ramp):
    frame = standard_frame(n)
    xx, yy = frame.center_grids()
    d = np.hypot(xx - cx, yy - cy)
    return ScalarField(frame, np.clip(np.minimum(d - inner, outer - d) / ramp, 0.0, 1.0))


def _noise(n, seed, low=0.0):
    frame = standard_frame(n)
    vals = np.zeros(frame.shape)
    vals[2:-2, 2:-2] = np.random.default_rng(seed).uniform(low, 1.0, size=(n - 4, n - 4))
    return ScalarField(frame, vals)


class TestAdditiveExactness:
    """Density and atomic measures integrate exactly, however many levels f has."""

    @pytest.mark.parametrize("field", [
        # every cell a distinct value
        lambda: _noise(128, 7),
        # 29233 levels; the earlier sampled fallback was off by -1.44e-3
        lambda: _cone(256, 4.97, 5.07, 3.8),
        # 14833 levels; the earlier sampled fallback was off by -2.04e-2
        lambda: _ring(512, 5.1, 5.2, 0.8, 2.4, 0.3),
    ], ids=["noise128", "cone256", "ring512"])
    def test_many_levels_match_the_sum(self, lebesgue, field):
        f = field()
        direct = float(f.values.sum()) * f.frame.cell_area
        assert quasi_integral(lebesgue, f).value == pytest.approx(direct, rel=1e-12, abs=0)

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_seeded_suite_matches_oracle(self, n, variant):
        rng = np.random.default_rng([n, ord(variant)])
        frame = standard_frame(n)
        signed = _noise(n, int(rng.integers(2**32)), low=-1.0)
        cone = _cone(n, *rng.uniform(3.5, 6.5, size=2), rng.uniform(1.0, 3.0))
        fields = [signed, add(cone, scale(_noise(n, int(rng.integers(2**32))), -0.5)),
                  _ring(n, *rng.uniform(4.0, 6.0, size=2), 0.8, 2.4, 0.3)]
        measures = [
            DensityMeasure(float(rng.uniform(0.1, 2.0))),
            DensityMeasure(rng.uniform(0.0, 2.0, size=frame.shape)),
            # some atoms fall outside the frame
            AtomicMeasure(rng.uniform(-1.0, 11.0, size=(40, 2)), rng.uniform(0.1, 2.0, size=40)),
        ]
        for mu in measures:
            for f in fields:
                bound = 1e-12 * linear_oracle(mu, ScalarField(frame, np.abs(f.values)))
                assert abs(quasi_integral(mu, f, variant).value - linear_oracle(mu, f)) <= bound

    def test_atom_outside_the_frame(self, frame64):
        p = build_plateau(None, rect_region(frame64, 2.2, 4.2, 6.2, 8.4, role="open"),
                          1.0, 0.3)
        q = build_plateau(None, rect_region(frame64, 5.4, 7.6, 1.8, 4.0, role="open"),
                          1.0, 0.3)
        h = add(p, scale(q, -2.0))
        mu = AtomicMeasure(np.array([[3.13, 7.21], [6.47, 2.93], [12.0, 5.0]]),
                           np.array([1.0, 2.5, 0.7]))
        # below 0, {h > t} is co-compact and holds the atom at (12, 5)
        F = distribution_function(mu, h, "A")
        assert F.breakpoints == [(-2.0, 1.7000000000000002), (0.0, 1.0), (1.0, 0.0)]
        assert F.left_limit == 4.2
        assert quasi_integral(mu, h, "A").value == -4.0
        assert quasi_integral(mu, h, "B").value == -4.0


class TestExtensionConsistency:
    def test_golden_schedule_is_exact(self, crossing, golden_pair):
        report = extension_consistency(crossing, golden_pair[0], ns=(2, 4, 8))
        assert report.rho_f == 1.0
        assert [s.rho_tail for s in report.steps] == [0.5, 0.75, 0.875]
        assert report.converged and report.passed
        assert all(s.excess == 0.0 for s in report.steps)

    def test_small_field_fully_truncated(self, crossing, frame64):
        bump = build_plateau(None, rect_region(frame64, 3, 7, 3, 7, role="open"),
                             0.1, 0.4)
        report = extension_consistency(crossing, bump, ns=(2,))
        # the whole field is below the slice: the tail vanishes but the gap
        # still obeys the uniform bound
        assert report.steps[0].rho_tail == 0.0
        assert report.steps[0].excess == 0.0

    def test_zero_measure(self, frame64, golden_pair):
        report = extension_consistency(DensityMeasure(0.0), golden_pair[0])
        assert report.rho_f == 0.0
        assert all(s.rho_tail == 0.0 for s in report.steps)
        assert report.passed

    def test_preconditions(self, crossing, golden_pair):
        with pytest.raises(DomainError):
            extension_consistency(crossing, scale(golden_pair[0], -1.0))
        with pytest.raises(InfiniteMeasureError):
            extension_consistency(DensityMeasure(1.0, unbounded=True), golden_pair[0])


class TestDistributionValidation:
    def test_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            DistributionFn(np.array([0.0, 1.0]), np.array([0.5, 0.0]),
                           (0.0, 1.0), left_limit=0.25, total_mass=1.0)

    def test_tail_must_vanish(self):
        with pytest.raises(ValueError):
            DistributionFn(np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                           (0.0, 1.0), left_limit=1.0, total_mass=1.0)

    def test_thresholds_strictly_increasing(self):
        with pytest.raises(ValueError):
            DistributionFn(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                           (0.0, 0.0), left_limit=1.0, total_mass=1.0)

    def test_csv_roundtrip(self, tmp_path, crossing, golden_sum):
        F = distribution_function(crossing, golden_sum)
        path = tmp_path / "F.csv"
        F.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[2] == "t,F"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[3:]]
        assert rows == F.breakpoints


def test_support_bound_invariant(crossing, golden_pair):
    from quasimeasure import support_region, tm_eval

    f = golden_pair[0]
    F = distribution_function(crossing, f)
    bound = tm_eval(crossing, support_region(f))
    assert F.left_limit <= bound
    assert np.all(F.values <= bound)


def test_truncated_field_distribution(crossing, golden_pair):
    f = truncate(golden_pair[0], 0.5)
    F = distribution_function(crossing, f)
    assert F.breakpoints == [(0.0, 1.0), (0.5, 0.0)]
    assert quasi_integral(crossing, f).value == 0.5


def test_single_atom_oracle(frame64):
    from quasimeasure import AtomicMeasure

    mu = AtomicMeasure(np.array([[5.11, 5.57]]), np.array([1.0]))
    f = scale(truncate(build_plateau(
        None, rect_region(frame64, 3, 8, 3, 8, role="open"), 1.0, 0.4), 0.7), 1.0)
    assert f.value_at(5.11, 5.57) == 0.7
    assert linear_oracle(mu, f) == 0.7
    assert quasi_integral(mu, f).value == 0.7


def test_density_oracle_between_inner_and_outer_area(frame64, lebesgue, golden_pair, regions64):
    oracle = linear_oracle(lebesgue, golden_pair[0])
    assert regions64["K"].area <= oracle <= regions64["U"].area
