"""Invariant checks over randomized geometry, driven by hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasimeasure import (
    build_plateau,
    compose,
    dilate,
    distribution_function,
    erode,
    neg_part,
    pos_part,
    quasi_integral,
    rect_region,
    scale,
    sup_norm,
    tm_eval,
    truncate,
)
from quasimeasure.grid import edge_cells
from quasimeasure.presets import crossing_measure, standard_frame

from conftest import interval_mass, left_value

FRAME = standard_frame(64)
CROSSING = crossing_measure()

# rectangle corners on a half-unit lattice, at least one unit apart
lattice_span = st.tuples(st.integers(1, 14), st.integers(3, 17)).map(
    lambda ab: (0.5 * ab[0], 0.5 * (ab[0] + max(ab[1] - ab[0], 2)))
).filter(lambda ab: ab[1] <= 9.5)

rects = st.tuples(lattice_span, lattice_span).map(
    lambda xy: (xy[0][0], xy[0][1], xy[1][0], xy[1][1])
)

heights = st.sampled_from([0.5, 1.0, 2.0, -1.0, -0.5])
ramps = st.sampled_from([0.3, 0.45, 0.6])


def plateau(rect, height, ramp):
    outer = rect_region(FRAME, *rect, role="open")
    return build_plateau(None, outer, height, ramp)


@settings(max_examples=40, deadline=None)
@given(rects, heights, ramps)
def test_parts_decompose_field(rect, height, ramp):
    f = plateau(rect, height, ramp)
    p, n = pos_part(f), neg_part(f)
    assert np.array_equal(p.values - n.values, f.values)
    assert np.all(p.values * n.values == 0.0)


@settings(max_examples=40, deadline=None)
@given(rects, ramps, st.sampled_from([0.2, 0.5, 0.8]))
def test_truncation_dominated(rect, ramp, frac):
    f = plateau(rect, 1.0, ramp)
    g = truncate(f, frac)
    assert np.all(g.values <= f.values)
    assert sup_norm(g) <= frac


@settings(max_examples=40, deadline=None)
@given(rects, heights, ramps, st.sampled_from([-2.0, -0.5, 0.5, 3.0]))
def test_sup_norm_absolutely_homogeneous(rect, height, ramp, a):
    f = plateau(rect, height, ramp)
    assert sup_norm(scale(f, a)) == abs(a) * sup_norm(f)


@settings(max_examples=30, deadline=None)
@given(rects, st.integers(1, 3))
def test_morphology_nests(rect, k):
    r = rect_region(FRAME, *rect, role="compact")
    assert erode(r, k).subset_of(r)
    try:
        grown = dilate(r, k)
    except Exception:
        return
    assert r.subset_of(grown)


@settings(max_examples=30, deadline=None)
@given(rects, rects)
def test_measures_monotone_on_nested_rects(r1, r2):
    lo = (max(r1[0], r2[0]), min(r1[1], r2[1]), max(r1[2], r2[2]), min(r1[3], r2[3]))
    if lo[0] >= lo[1] or lo[2] >= lo[3]:
        return
    small = rect_region(FRAME, *lo, role="compact")
    big = rect_region(FRAME, *r1, role="compact")
    if not small.subset_of(big):
        return
    from quasimeasure import AtomicMeasure, DensityMeasure

    for mu in (CROSSING, DensityMeasure(1.0),
               AtomicMeasure(np.array([[3.13, 7.21]]), np.array([1.0]))):
        assert tm_eval(mu, small) <= tm_eval(mu, big) + 1e-12


@settings(max_examples=30, deadline=None)
@given(rects, ramps)
def test_distribution_is_non_increasing_step(rect, ramp):
    f = plateau(rect, 1.0, ramp)
    F = distribution_function(CROSSING, f)
    seq = np.concatenate([[F.left_limit], F.values])
    assert np.all(np.diff(seq) <= 0)
    assert F.values[-1] == 0.0
    assert F(sup_norm(f) + 0.5) == 0.0


@settings(max_examples=30, deadline=None)
@given(rects, ramps, st.sampled_from([0.15, 0.4, 0.75]))
def test_interval_mass_non_negative_and_additive(rect, ramp, cut):
    f = plateau(rect, 1.0, ramp)
    F = distribution_function(CROSSING, f)
    lo, hi = -0.25, sup_norm(f) + 0.25
    mid = cut * sup_norm(f) + 1e-4
    assert interval_mass(F, lo, hi) >= 0.0
    total = interval_mass(F, lo, hi)
    assert total == pytest.approx(
        interval_mass(F, lo, mid) + interval_mass(F, mid, hi) + (left_value(F, mid) - F(mid)),
        abs=1e-12,
    )


@settings(max_examples=25, deadline=None)
@given(rects, ramps, st.sampled_from([0.25, 0.5]))
def test_truncation_monotone_in_rho(rect, ramp, delta):
    f = plateau(rect, 1.0, ramp)
    g = truncate(f, delta)
    assert quasi_integral(CROSSING, g).value <= quasi_integral(CROSSING, f).value + 1e-12


@settings(max_examples=25, deadline=None)
@given(rects, ramps)
def test_compose_preserves_boundary_zeros(rect, ramp):
    from quasimeasure import PiecewiseLinearMap

    f = plateau(rect, 1.0, ramp)
    phi = PiecewiseLinearMap(np.array([[-0.5, 0.75], [0.0, 0.0], [1.5, -1.25]]))
    out = compose(phi, f)
    assert np.all(edge_cells(out.values) == 0.0)


@settings(max_examples=30, deadline=None)
@given(rects, heights, ramps)
def test_norm_bound_via_support_mass(rect, height, ramp):
    from quasimeasure import support_region

    f = plateau(rect, height, ramp)
    rho = quasi_integral(CROSSING, f).value
    bound = sup_norm(f) * tm_eval(CROSSING, support_region(f))
    assert abs(rho) <= bound + 1e-12
