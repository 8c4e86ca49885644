import math

import numpy as np
import pytest
from test_topology_kernel import _cropped_mass_of_mask, count_label_calls

from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    DistributionFn,
    DomainError,
    InfiniteMeasureError,
    PointCountMeasure,
    ScalarField,
    VariantError,
    add,
    build_plateau,
    distribution_function,
    interval_mass,
    linear_oracle,
    quasi_integral,
    rect_region,
    scale,
    truncate,
)
from quasimeasure import integration
from quasimeasure.checks import check_extension_consistency
from quasimeasure.integration import VARIANT_A, VARIANT_B
from quasimeasure.measures import ATOMIC
from quasimeasure.presets import crossing_fields, crossing_sum, standard_frame
from quasimeasure.regions import COMPACT, OPEN, Region, _bbox, point_cells

from conftest import breakpoints, zero_field


@pytest.fixture(scope="module")
def golden_sum(frame64):
    return crossing_sum(frame64, 1.0)


class TestDistributionGolden:
    def test_single_plateau_steps(self, crossing, golden_pair):
        F = distribution_function(crossing, golden_pair[0])
        assert breakpoints(F) == [(0.0, 1.0), (1.0, 0.0)]
        assert F.left_limit == 1.0
        assert F(0.5) == 1.0 and F(1.0) == 0.0

    def test_sum_has_half_step(self, crossing, golden_sum):
        F = distribution_function(crossing, golden_sum)
        assert breakpoints(F) == [(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)]
        # right-continuity at the jump
        assert F(1.0) == 0.5
        assert F.left_value(1.0) == 1.0

    def test_zero_field(self, frame64, crossing):
        F = distribution_function(crossing, zero_field(frame64))
        assert breakpoints(F) == [(0.0, 0.0)]
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


def _pyramid(n, cx, cy, radius):
    frame = standard_frame(n)
    xx, yy = frame.center_grids()
    d = np.maximum(np.abs(xx - cx), np.abs(yy - cy))
    return ScalarField(frame, np.maximum(0.0, 1.0 - d / radius))


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


def _seeded_suite(n, variant):
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
        # per-cell weights that are all equal: summed one level at a time
        DensityMeasure(np.full(frame.shape, float(rng.uniform(0.1, 2.0)))),
    ]
    return frame, fields, measures, rng


def _assert_matches_oracle(mu, fields, variant):
    for f in fields:
        bound = 1e-12 * linear_oracle(mu, ScalarField(f.frame, np.abs(f.values)))
        assert abs(quasi_integral(mu, f, variant).value - linear_oracle(mu, f)) <= bound


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
        _, fields, measures, _ = _seeded_suite(n, variant)
        for mu in measures:
            _assert_matches_oracle(mu, fields, variant)

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_two_valued_density_matches_oracle(self, n, variant):
        # the suite's next row: per-cell weights of two values, so many equal
        # weights but not all. At 512² the cumulative sums of F drift 1.4e-12
        # (A) and 1.7e-12 (B) times sum |f| w: rho is read from the per-level
        # masses, not from F
        frame, fields, _, rng = _seeded_suite(n, variant)
        d = float(rng.uniform(0.1, 2.0))
        mu = DensityMeasure(np.where(rng.random(frame.shape) < 0.5, d, 2 * d))
        _assert_matches_oracle(mu, fields, variant)

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
        assert breakpoints(F) == [(-2.0, 1.7000000000000002), (0.0, 1.0), (1.0, 0.0)]
        assert F.left_limit == 4.2
        assert quasi_integral(mu, h, "A").value == -4.0
        assert quasi_integral(mu, h, "B").value == -4.0


class TestExtensionConsistency:
    def test_golden_schedule_is_exact(self, crossing, golden_pair):
        report = check_extension_consistency(crossing, golden_pair[0])
        assert report.details["rho_f"] == 1.0
        assert report.details["tails"] == [0.5, 0.75, 0.875]
        assert report.details["converged"] and report.passed
        assert report.trials == 3 and report.failures == 0

    def test_small_field_fully_truncated(self, crossing, frame64):
        bump = build_plateau(None, rect_region(frame64, 3, 7, 3, 7, role="open"),
                             0.1, 0.4)
        report = check_extension_consistency(crossing, bump)
        # the whole field is below every slice: the tails vanish but the gaps
        # still obey the uniform bound
        assert report.details["tails"] == [0.0, 0.0, 0.0]
        assert report.failures == 0

    def test_zero_measure(self, frame64, golden_pair):
        report = check_extension_consistency(DensityMeasure(0.0), golden_pair[0])
        assert report.details["rho_f"] == 0.0
        assert all(t == 0.0 for t in report.details["tails"])
        assert report.passed

    def test_preconditions(self, crossing, golden_pair):
        with pytest.raises(DomainError):
            check_extension_consistency(crossing, scale(golden_pair[0], -1.0))
        with pytest.raises(InfiniteMeasureError):
            check_extension_consistency(DensityMeasure(1.0, unbounded=True),
                                        golden_pair[0])


class TestDistributionValidation:
    def test_must_be_non_increasing(self):
        with pytest.raises(ValueError):
            DistributionFn(np.array([0.0, 1.0]), np.array([0.5, 0.0]), left_limit=0.25)

    def test_tail_must_vanish(self):
        with pytest.raises(ValueError):
            DistributionFn(np.array([0.0, 1.0]), np.array([1.0, 0.5]), left_limit=1.0)

    def test_thresholds_strictly_increasing(self):
        with pytest.raises(ValueError):
            DistributionFn(np.array([0.0, 0.0]), np.array([1.0, 0.0]), left_limit=1.0)

    def test_caller_arrays_stay_writeable(self):
        """F owns its arrays: the caller's stay writeable and share no memory."""
        t, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        F = DistributionFn(t, v, 1.0)
        assert t.flags.writeable and v.flags.writeable
        assert not (np.shares_memory(t, F.thresholds) or np.shares_memory(v, F.values))
        t[1], v[0] = 2.0, 0.5
        assert breakpoints(F) == [(0.0, 1.0), (1.0, 0.0)]
        assert not (F.thresholds.flags.writeable or F.values.flags.writeable)

    @pytest.mark.parametrize("thresholds, values, left_limit", [
        ([0.0, math.nan], [math.nan, 0.0], math.nan),
        ([0.0, 1.0], [1.0, 0.0], math.inf),
        ([0.0, 1.0], [math.inf, 0.0], 1.0),
        ([math.nan], [0.0], 0.0),
        ([0.0, math.inf], [1.0, 0.0], 1.0),
    ])
    def test_entries_must_be_finite(self, thresholds, values, left_limit):
        with pytest.raises(ValueError):
            DistributionFn(thresholds, values, left_limit)

    def test_csv_roundtrip(self, nonlinear_out, crossing, golden_sum):
        # nonlinear_example's h is the golden sum
        F = distribution_function(crossing, golden_sum)
        path = nonlinear_out / "distribution_crossing_h.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[2] == "t,F"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[3:]]
        assert rows == breakpoints(F)


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
    assert breakpoints(F) == [(0.0, 1.0), (0.5, 0.0)]
    assert quasi_integral(crossing, f).value == 0.5


def test_single_atom_oracle(frame64):
    from quasimeasure import AtomicMeasure

    mu = AtomicMeasure(np.array([[5.11, 5.57]]), np.array([1.0]))
    f = scale(truncate(build_plateau(
        None, rect_region(frame64, 3, 8, 3, 8, role="open"), 1.0, 0.4), 0.7), 1.0)
    ((row, col),) = point_cells(frame64, mu.points)
    assert f.values[row, col] == 0.7
    assert linear_oracle(mu, f) == 0.7
    assert quasi_integral(mu, f).value == 0.7


def test_density_oracle_between_inner_and_outer_area(frame64, lebesgue, golden_pair, regions64):
    oracle = linear_oracle(lebesgue, golden_pair[0])
    cell = golden_pair[0].frame.cell_area
    assert regions64["K"].cell_count * cell <= oracle <= regions64["U"].cell_count * cell


# -- anchored bisection against the midpoint bisection ------------------------
#
# _MidpointEvaluator and _midpoint_bisection are the point-count bisection as
# it was before it split brackets at the marked points' levels and probed on
# the support box, kept verbatim as the oracle: every probe is a full-frame
# Region and every bracket splits at its middle.


class _MidpointEvaluator:
    """Evaluates F segment-by-segment over the distinct sampled values.

    Segment i is the constancy interval [v_i, v_{i+1}) of F; segment -1 is
    the ray below the range, segment m-1 the zero tail.
    """

    def __init__(self, mu, f, variant: str):
        self.mu = mu
        self.f = f
        self.variant = variant
        self.levels = np.unique(f.values)
        self.cache: dict[int, float] = {}
        self.evals = 0
        if variant == VARIANT_A:
            self.total = mu.total_mass(f.frame)
            if math.isinf(self.total):
                raise InfiniteMeasureError("variant A requires a finite measure")

    @property
    def m(self) -> int:
        return len(self.levels)

    def threshold_for_segment(self, i: int) -> float:
        return 0.5 * (self.levels[i] + self.levels[i + 1])

    def value_at_threshold(self, t: float) -> float:
        """F(t) for a t strictly between sampled values."""
        vals = self.f.values
        frame = self.f.frame
        self.evals += 1
        if self.variant == VARIANT_B:
            if t >= 0:
                mask = vals > t
            else:
                mask = (vals > t) & (vals != 0.0)
            return self.mu.mass(Region(frame, mask, OPEN))
        if t >= 0:
            return self.mu.mass(Region(frame, vals > t, OPEN))
        # co-compact superlevel set: total mass minus the compact sublevel set
        return self.total - self.mu.mass(Region(frame, vals <= t, COMPACT))

    def segment_value(self, i: int) -> float:
        if i in self.cache:
            return self.cache[i]
        if i >= self.m - 1:
            val = 0.0
        elif i < 0:
            if self.variant == VARIANT_A:
                val = self.total
            else:
                val = self.mu.mass(
                    Region(self.f.frame, self.f.values != 0.0, OPEN)
                )
                self.evals += 1
        else:
            val = self.value_at_threshold(self.threshold_for_segment(i))
        self.cache[i] = val
        return val

    def refine(self, lo: int, hi: int, jumps: list[tuple[float, float]]):
        """Locate all jumps of F between segments lo < hi exactly.

        F is non-increasing, so equal endpoint values mean no jump anywhere
        in between and the bracket is pruned whole.
        """
        flo = self.segment_value(lo)
        fhi = self.segment_value(hi)
        if flo == fhi:
            return
        if hi == lo + 1:
            jumps.append((float(self.levels[hi]), fhi))
            return
        mid = (lo + hi) // 2
        self.refine(lo, mid, jumps)
        self.refine(mid, hi, jumps)


def _midpoint_bisection(mu, f, variant: str) -> tuple[DistributionFn, int]:
    """F by monotone bisection, for a measure that has no atoms to sum."""
    ev = _MidpointEvaluator(mu, f, variant)
    levels = ev.levels
    jumps: list[tuple[float, float]] = []
    ev.refine(0, ev.m - 1, jumps)
    F = DistributionFn(
        thresholds=np.array([levels[0]] + [t for t, _ in jumps]),
        values=np.array([ev.segment_value(0)] + [v for _, v in jumps]),
        left_limit=ev.segment_value(-1),
    )
    return F, ev.evals


def _signed_sum(n, rng):
    """One to three cones, pyramids and one-hole rings with signed heights."""
    f = None
    for _ in range(int(rng.integers(1, 4))):
        cx, cy = rng.uniform(3.5, 6.5, size=2)
        kind = int(rng.integers(3))
        if kind == 0:
            part = _cone(n, cx, cy, rng.uniform(1.0, 3.0))
        elif kind == 1:
            part = _pyramid(n, cx, cy, rng.uniform(1.0, 3.0))
        else:
            part = _ring(n, cx, cy, rng.uniform(0.3, 1.0), rng.uniform(1.8, 2.8), 0.3)
        part = scale(part, float(rng.uniform(-2.0, 2.0)))
        f = part if f is None else add(f, part)
    return f


def _gate_fields(kind, n):
    if kind == "golden":
        f, g = crossing_fields(standard_frame(n), 1.0)
        fields = [f, g, add(f, g)]
    else:
        rng = np.random.default_rng([n, 8])
        fields = [_signed_sum(n, rng) for _ in range(10)]
    # negating a field gives -0.0 wherever it vanishes, the edge ring
    # included, which the field stores as 0.0
    return fields + [scale(f, -1.0) for f in fields]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _same_distribution(F, G):
    # bit for bit: the uint64 views tell -0.0 from 0.0, as the CSV of F does
    assert np.array_equal(_bits(F.thresholds), _bits(G.thresholds))
    assert np.array_equal(_bits(F.values), _bits(G.values))
    assert _bits(F.left_limit) == _bits(G.left_limit)


class TestAnchoredBisection:
    """The point-count bisection is the midpoint bisection with fewer probes."""

    @pytest.mark.parametrize("kind,n", [
        ("sums", 64), ("sums", 100), ("sums", 128), ("sums", 256),
        ("golden", 64), ("golden", 100), ("golden", 333), ("golden", 512),
    ])
    def test_equals_midpoint_bisection(self, crossing, kind, n):
        evals = oracle_evals = 0
        for f in _gate_fields(kind, n):
            for variant in (VARIANT_A, VARIANT_B):
                res = quasi_integral(crossing, f, variant)
                F, ev = _midpoint_bisection(crossing, f, variant)
                _same_distribution(res.distribution, F)
                assert res.value == F.integral() + float(F.thresholds[0]) * F.left_limit
                assert res.diagnostics.refinement_iterations <= ev
                evals += res.diagnostics.refinement_iterations
                oracle_evals += ev
        assert evals < oracle_evals
        if kind == "golden":
            f, g, h = _gate_fields(kind, n)[:3]
            for variant in (VARIANT_A, VARIANT_B):
                assert [quasi_integral(crossing, x, variant).value
                        for x in (f, g, h)] == [1.0, 1.0, 1.5]

    @pytest.mark.parametrize("n", [64, 100])
    def test_split_points_do_not_decide_jumps(self, crossing, monkeypatch, n):
        """Any interior split points give the same F as the marked points' levels."""
        rng = np.random.default_rng([n, 9])

        class RandomSplits(integration._LevelEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                k = int(rng.integers(1, 12))
                self.anchors = sorted(rng.integers(1, max(self.m - 1, 2), size=k).tolist())

        fields = _gate_fields("sums", n) + _gate_fields("golden", n)
        expected = [distribution_function(crossing, f, v)
                    for f in fields for v in (VARIANT_A, VARIANT_B)]
        monkeypatch.setattr(integration, "_LevelEvaluator", RandomSplits)
        for _ in range(3):
            got = [distribution_function(crossing, f, v)
                   for f in fields for v in (VARIANT_A, VARIANT_B)]
            for F, G in zip(got, expected):
                _same_distribution(F, G)


@pytest.mark.parametrize("kind,n", [("golden", 512), ("sums", 128)])
def test_mass_shortcuts_label_less(crossing, monkeypatch, kind, n):
    """The mass kernel skips labellings no marked point can affect: the same
    F, bit for bit, from the same probes as the kernel that labels every
    component and hole, with no more `label` calls on any integral."""
    calls = count_label_calls(monkeypatch)

    def integrate(f, variant):
        calls[0] = 0
        return quasi_integral(crossing, f, variant), calls[0]

    total = oracle_total = 0
    for f in _gate_fields(kind, n):
        for variant in (VARIANT_A, VARIANT_B):
            res, got = integrate(f, variant)
            with monkeypatch.context() as m:
                m.setattr(PointCountMeasure, "_mass_of_mask", _cropped_mass_of_mask)
                want, want_calls = integrate(f, variant)
            _same_distribution(res.distribution, want.distribution)
            assert repr((res.value, res.distribution.left_limit)) == \
                repr((want.value, want.distribution.left_limit))
            assert res.diagnostics == want.diagnostics
            assert got <= want_calls
            total += got
            oracle_total += want_calls
    assert total < oracle_total


def _every_level_oracle(mu, f, variant):
    """F at every distinct level of f and F's left limit, each from its own
    full-frame Region: no pruning, no anchors, no reuse."""
    vals, frame = f.values, f.frame
    total = mu.total_mass(frame)
    levels = np.unique(vals)
    if variant == VARIANT_B:
        left = mu.mass(Region(frame, vals != 0.0, OPEN))
        F = [mu.mass(Region(frame, (vals > t) & (vals != 0.0), OPEN)) for t in levels]
    else:
        left = total
        F = [mu.mass(Region(frame, vals > t, OPEN)) if t >= 0
             else total - mu.mass(Region(frame, vals <= t, COMPACT)) for t in levels]
    return levels, F, left


@pytest.mark.parametrize("n", [48, 64])
def test_every_level_oracle(crossing, n):
    """F is non-increasing at every distinct level, and the bisection's F
    agrees with it there; under variant B F does not jump at 0. A flat block
    over every marked point puts them all in the set probed at 0, which
    also gives the block's left limit under B."""
    frame = standard_frame(n)
    block = 0.5 * rect_region(frame, 0.5, 7.5, 0.5, 7.5).mask
    blocks = [ScalarField(frame, block), ScalarField(frame, -block)]
    for f in _gate_fields("sums", n) + blocks:
        for variant in (VARIANT_A, VARIANT_B):
            levels, want, left = _every_level_oracle(crossing, f, variant)
            assert left >= want[0] and all(a >= b for a, b in zip(want, want[1:]))
            F = distribution_function(crossing, f, variant)
            assert F.left_limit == left
            assert [F(t) for t in levels.tolist()] == want
            if variant == VARIANT_B:
                assert F.left_value(0.0) == F(0.0)


def _probed_masks(monkeypatch):
    """The masks of every probe, in order, recorded at the mass kernel's door."""
    masks = []
    probe = integration._LevelEvaluator.mass_of_crop

    def record(self, mask):
        masks.append(mask.tobytes())
        return probe(self, mask)

    monkeypatch.setattr(integration._LevelEvaluator, "mass_of_crop", record)
    return masks


@pytest.mark.parametrize("kind,n", [
    ("sums", 64), ("sums", 100), ("sums", 128), ("sums", 256),
    ("golden", 64), ("golden", 100), ("golden", 333), ("golden", 512),
])
def test_each_set_probed_once(crossing, monkeypatch, kind, n):
    """No two probes of one integral measure the same set: under variant B
    the segment just below 0 reads the one at 0, whose set it is."""
    masks = _probed_masks(monkeypatch)
    for f in _gate_fields(kind, n):
        for variant in (VARIANT_A, VARIANT_B):
            masks.clear()
            res = quasi_integral(crossing, f, variant)
            assert len(masks) == res.diagnostics.refinement_iterations
            assert len(set(masks)) == len(masks)


def test_golden_probe_counts(crossing, golden_pair, golden_sum):
    """A golden plateau costs two probes and their sum four, under either
    variant: under B, F's left limit reads the probe of the support at 0."""
    for variant in (VARIANT_A, VARIANT_B):
        assert [quasi_integral(crossing, x, variant).diagnostics.refinement_iterations
                for x in (*golden_pair, golden_sum)] == [2, 2, 4]


def _level_cases(n):
    """Fields whose support boxes hold every case of the zero level."""
    frame = standard_frame(n)
    rng = np.random.default_rng([n, 14])
    zero = np.zeros(frame.shape)
    filled = zero.copy()  # a support that fills its box
    rows, cols = slice(n // 4, n // 2), slice(n // 3, n - n // 3)
    filled[rows, cols] = rng.uniform(0.1, 1.0, size=filled[rows, cols].shape)
    holed = filled.copy()  # a box with interior zeros
    holed[n // 4 + 2:n // 2 - 2, n // 3 + 2:n // 2] = 0.0
    one = zero.copy()
    one[n // 3, n // 5] = 0.5
    fields = {"zero": zero, "filled": filled, "holed": holed, "one_cell": one}
    # negated: -0.0 where they vanish, which the field stores as 0.0
    fields |= {f"-{k}": -v for k, v in fields.items()}
    fields["signed"] = _signed_sum(n, rng).values
    return {k: ScalarField(frame, v) for k, v in fields.items()}


def _level_rasters(n):
    """The level cases' grids, and one-row rasters such as an atomic measure's:
    a row of each grid, a row with no zero, whose box is the whole raster,
    and the empty (1, 0) raster of a measure with no point in the frame."""
    grids = {k: f.values for k, f in _level_cases(n).items()}
    rows = {f"{k}[row]": v[n // 3][None] for k, v in grids.items()}
    return grids | rows | {"no_zero_row": np.array([[0.5, -1.0, 2.0]]),
                           "empty_row": np.zeros((1, 0))}


@pytest.mark.parametrize("n", [64, 512])
def test_support_levels_are_np_unique(n):
    """The levels sorted from the support box are np.unique's of the raster
    joined with start and 0.0, bit for bit; a joined level that the raster
    lacks has count 0."""
    rasters = _level_rasters(n)
    for name, v in rasters.items():
        low, high = float(v.min(initial=0.0)), float(v.max(initial=0.0))
        # below every level, at the lowest and the highest level, and at zero
        for start in (low - 0.25, low, high, 0.0):
            want, want_counts = np.unique(np.r_[v.ravel(), start, 0.0], return_counts=True)
            want_counts -= (want == start).astype(int) + (want == 0.0)  # the raster's counts
            for counts in (False, True):
                box, levels, got = integration._support_levels(v, counts, start)
                assert repr(levels.tolist()) == repr(want.tolist()), (name, start)
                assert levels.dtype == want.dtype
                assert box == (_bbox(v) or (slice(0, 0), slice(0, 0)))
                if counts:
                    # a zero level's count is never used, and is the box's
                    assert got[levels != 0].tolist() == want_counts[want != 0].tolist()
                    assert not got[~np.isin(levels, v)].any(), (name, start)
                else:
                    assert got is None
    assert integration._support_levels(rasters["no_zero_row"])[1].tolist() == [-1.0, 0.0, 0.5, 2.0]
    assert integration._support_levels(rasters["empty_row"], start=-0.5)[1].tolist() == [-0.5, 0.0]


def _full_frame_atoms(mu, f):
    """The atoms with every cell of the frame, for the full-frame reference."""
    if mu.kind == ATOMIC:
        rows, cols, weights = mu._in_frame(f.frame)
        return f.values[rows, cols], weights
    area = f.frame.cell_area
    if isinstance(mu.density, np.ndarray):
        return f.values.ravel(), mu._density_grid(f.frame).ravel() * area
    return f.values.ravel(), mu.density * area


def _full_frame_layer_cake(f, variant, total, values, weights):
    """The layer cake over every cell of the frame, and rho as the sum of
    level * mass: the reference that reading the support box alone must
    match bit for bit."""
    if np.ndim(weights) and len(weights) and bool((weights == weights[0]).all()):
        # a cumulative sum of many equal floats drifts one way: count them instead
        weights = weights[0]
    if np.ndim(weights) == 0:
        # one weight for every atom: sum counts, which is exact, and scale once
        levels, mass = np.unique(values, return_counts=True)
        unit = weights
    else:
        levels = np.unique(values)
        mass = np.bincount(np.searchsorted(levels, values), weights=weights)
        unit = 1.0
    # The breakpoints start at the field's minimum, and F changes form at 0.
    a = float(f.values.min())
    grid = np.union1d(levels, [a, 0.0])
    at = np.zeros(len(grid), dtype=mass.dtype)  # mass of the atoms at each grid value
    at[np.searchsorted(grid, levels)] = mass
    # A zero-valued atom lies in no {f > t} with t >= 0; variant B drops it.
    at[grid == 0.0] = 0
    above = np.cumsum(at[::-1])[::-1] * unit  # above[i] = mass of {f >= grid[i]}
    F = np.append(above[1:], 0.0)  # F = mass of {f > grid[i]} on [grid[i], grid[i+1])
    left_limit = float(above[0])
    if variant == VARIANT_A:
        # below 0, {f > t} is co-compact and holds every atom outside the frame
        below = grid < 0
        F[below] = total - np.cumsum(at)[below] * unit
        left_limit = total
    keep = np.flatnonzero(np.r_[True, F[1:] != F[:-1]])
    return DistributionFn(
        thresholds=grid[keep], values=F[keep], left_limit=left_limit,
    ), float(np.sum(grid * at) * unit)


def _gate_measures(n):
    frame = standard_frame(n)
    rng = np.random.default_rng([n, 15])
    on_box = np.full(frame.shape, 0.8)
    on_box[0] = 1.3  # uniform on every support box, not across the frame
    # two floats whose products with the cell area are equal
    d = 1.9
    while d * frame.cell_area != np.nextafter(d, 2.0) * frame.cell_area:
        d = np.nextafter(d, 2.0)
    close = np.where(rng.random(frame.shape) < 0.5, d, np.nextafter(d, 2.0))
    return {
        "constant": DensityMeasure(float(rng.uniform(0.1, 2.0))),
        "per_cell": DensityMeasure(rng.uniform(0.5, 1.5, size=frame.shape)),
        "on_box": DensityMeasure(on_box),
        "equal_cells": DensityMeasure(np.full(frame.shape, float(rng.uniform(0.1, 2.0)))),
        "equal_products": DensityMeasure(close),
        # some atoms fall outside the frame
        "atomic": AtomicMeasure(rng.uniform(-1.0, 11.0, size=(40, 2)),
                                rng.uniform(0.1, 2.0, size=40)),
        "equal_atoms": AtomicMeasure(rng.uniform(0.5, 9.5, size=(12, 2)), np.full(12, 0.3)),
        # no point in the frame: the layer cake reads an empty raster
        "outside": AtomicMeasure(np.array([[-1.0, 5.0], [5.0, 10.5], [11.0, -2.0]]),
                                 np.array([0.5, 1.0, 2.0])),
        # points on edge-ring cells, where every gate field vanishes
        "on_zeros": AtomicMeasure(_edge_ring_centers(frame, rng.integers(n, size=4)),
                                  rng.uniform(0.1, 2.0, size=4)),
    }


def _edge_ring_centers(frame, k):
    """The centers of four edge-ring cells, one on each side at offsets k."""
    xc, yc = frame.x_centers(), frame.y_centers()
    return np.array([[xc[0], yc[k[0]]], [xc[-1], yc[k[1]]], [xc[k[2]], yc[0]],
                     [xc[k[3]], yc[-1]]])


@pytest.mark.parametrize("kind,n", [
    ("sums", 64), ("sums", 128), ("sums", 256), ("golden", 64), ("golden", 333),
    ("golden", 512),
])
def test_layer_cake_equals_full_frame(kind, n):
    """Reading the cells on the support box gives the full-frame F and rho bit
    for bit, and variants A and B give the same rho bit for bit."""
    fields = _gate_fields(kind, n)
    for name, mu in _gate_measures(n).items():
        for f in fields:
            values = []
            for variant in (VARIANT_A, VARIANT_B):
                res = quasi_integral(mu, f, variant)
                F, rho = _full_frame_layer_cake(f, variant, mu.total_mass(f.frame),
                                                *_full_frame_atoms(mu, f))
                _same_distribution(res.distribution, F)
                assert repr(res.value) == repr(rho), name
                values.append(_bits(res.value))
            assert values[0] == values[1], name


@pytest.mark.parametrize("variant", [VARIANT_A, VARIANT_B])
def test_layer_cake_starts_at_the_minimum(frame64, variant):
    """F's first breakpoint is the field's minimum, also where no atom lies."""
    p = build_plateau(None, rect_region(frame64, 2.2, 4.2, 6.2, 8.4, role="open"),
                      1.0, 0.3)
    q = build_plateau(None, rect_region(frame64, 5.4, 7.6, 1.8, 4.0, role="open"),
                      1.0, 0.3)
    h = add(p, scale(q, -2.0))
    # one atom on p's flat top and one on q's ramp: none where h is least
    mu = AtomicMeasure(np.array([[3.13, 7.21], [6.47, 1.95]]), np.array([1.0, 2.5]))
    assert mu.atoms(h)[0].min() > h.values.min()
    assert distribution_function(mu, h, variant).thresholds[0] == h.values.min()
