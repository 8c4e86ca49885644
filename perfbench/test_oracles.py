"""The benchmark's oracles against values worked out by hand, at 64 x 64.

    python3 -m pytest perfbench/test_oracles.py -q

At 64 cells a cell is 10/64 = 0.15625 wide, and the five marked points lie
in the cells whose centers are
    A (5.390625, 5.703125)   B (6.171875, 6.171875)   C (6.796875, 5.234375)
    D (2.265625, 6.484375)   E (6.484375, 2.265625).
The solid-set table is 0 for at most one point, 1/2 for two or three, 1 beyond.
Each test also runs the program on the same input, so a broken oracle shows
here before any timing does.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from quasimeasure import (  # noqa: E402
    AtomicMeasure,
    DensityMeasure,
    QuasiIntegral,
    ScalarField,
    rect_region,
    roundtrip,
)
from quasimeasure.presets import crossing_fields, crossing_measure, standard_frame  # noqa: E402

N = 64
CELL = 0.15625
FRAME = standard_frame(N)
XX, YY = oracles.cell_centers(N)
ROWS, COLS = oracles.point_cells(oracles.MARKED_POINTS, N)
RHO = QuasiIntegral(crossing_measure())


def test_point_cells_by_hand():
    assert list(zip(ROWS, COLS)) == [(36, 34), (39, 39), (33, 43), (41, 14), (14, 41)]
    assert XX[36, 34] == 5.390625 and YY[36, 34] == 5.703125


def test_cone_layer_cake():
    # Apex 1 at B's cell center, radius 2.5. A is (-5, -3) cells from B, C is
    # (+4, -6), D and E lie beyond the radius. Sorted point values are
    # 1 > v_A > v_C > 0 = 0, so rho = 0.5 (v_A - v_C) + 0.5 v_C = 0.5 v_A.
    values = np.maximum(0.0, 1.0 - np.hypot(XX - 6.171875, YY - 6.171875) / 2.5)
    v_a = 1.0 - CELL * math.sqrt(34) / 2.5
    expected = 0.5 * v_a
    got = oracles.layer_cake(values[ROWS, COLS], np.zeros(5, dtype=bool))
    assert abs(got - expected) < 1e-12
    assert abs(RHO(ScalarField(FRAME, values)) - expected) < 1e-9


def test_ring_with_one_hole():
    # Center (5.0, 5.8), inner radius 2.0, outer 3.2, ramps 0.25, height 1.
    # A, B, C (distances 0.40, 1.23, 1.88) sit in the hole at value 0, D
    # (2.82) on the flat band at value 1, E (3.83) outside. For every
    # t < 1 the hull holds 4 points and the hole 3: F = 1 - 0.5 = 0.5.
    # Without the hole subtraction the value would be 1.
    d = np.hypot(XX - 5.0, YY - 5.8)
    values = np.clip(np.minimum(d - 2.0, 3.2 - d) / 0.25, 0.0, 1.0)
    assert list(values[ROWS, COLS]) == [0.0, 0.0, 0.0, 1.0, 0.0]
    inner = np.hypot(XX[ROWS, COLS] - 5.0, YY[ROWS, COLS] - 5.8) < 2.6
    assert list(inner) == [True, True, True, False, False]
    assert oracles.layer_cake(values[ROWS, COLS], inner) == 0.5
    assert RHO(ScalarField(FRAME, values)) == 0.5


def test_golden_triple():
    # f is h on K = [1,7]x[5,7] (A, B, C, D inside), g is h on C = [5,7]x[1,7]
    # (A, B, C, E inside): both give table[4] * h = h. On f + g, A, B, C sit
    # at 2h and D, E at h: table[3] * h + table[5] * h = 1.5 h.
    no_hole = np.zeros(5, dtype=bool)
    for h in (0.5, 1.0, 2.0):
        f, g = crossing_fields(FRAME, h)
        assert oracles.layer_cake(f.values[ROWS, COLS], no_hole) == h
        assert oracles.layer_cake(g.values[ROWS, COLS], no_hole) == h
        assert oracles.layer_cake((f + g).values[ROWS, COLS], no_hole) == 1.5 * h
        rho_f, rho_g, rho_sum = RHO(f), RHO(g), RHO(f + g)
        assert (rho_f, rho_g, rho_sum) == (h, h, 1.5 * h)
        assert rho_f + rho_g - rho_sum == 0.5 * h


def test_tent_under_density_and_atoms():
    # A pyramid of height 1 and Chebyshev radius 4 cells on the cell center
    # (5.078125, 5.078125): ring j of 8j cells carries 1 - j/4, so the
    # samples sum to 1 + 8 * 0.75 + 16 * 0.5 + 24 * 0.25 = 21.
    c = 32.5 * CELL
    values = np.maximum(0.0, 1.0 - np.maximum(abs(XX - c), abs(YY - c)) / (4 * CELL))
    assert values.sum() == 21.0
    area = CELL * CELL
    assert oracles.density_integral(values, 1.0, area) == 21 * area
    grid = np.full((N, N), 2.0)
    assert oracles.density_integral(values, grid, area) == 42 * area
    tent = ScalarField(FRAME, values)
    assert abs(QuasiIntegral(DensityMeasure(1.0))(tent) - 21 * area) < 1e-12
    assert abs(QuasiIntegral(DensityMeasure(grid))(tent) - 42 * area) < 1e-12

    # Weight 3 on the apex cell, weight 2 two cells to the right (value 0.5).
    points = np.array([[c + 0.01, c + 0.01], [c + 2 * CELL + 0.01, c + 0.01]])
    weights = np.array([3.0, 2.0])
    assert oracles.atomic_integral(values, points, weights, N) == 4.0
    assert abs(QuasiIntegral(AtomicMeasure(points, weights))(tent) - 4.0) < 1e-9


def test_rectangle_holding_three_points():
    # [4.9, 7.2] x [4.9, 6.8] holds A, B and C, each at least 0.39 from an
    # edge; D and E lie outside. Two or three points have mass 1/2.
    # [1.5, 6.0] x [5.0, 6.8] holds A and D; its right edge leaves out B
    # (x = 6.21) and C (x = 6.73).
    for rect, count in (((4.9, 7.2, 4.9, 6.8), 3), ((1.5, 6.0, 5.0, 6.8), 2)):
        assert oracles.points_in_rect(oracles.MARKED_POINTS, rect) == count
        expected = oracles.VALUE_BY_COUNT[count]
        assert expected == 0.5
        for role in ("open", "compact"):
            region = rect_region(FRAME, *rect, role=role)
            (entry,) = roundtrip(crossing_measure(), {"R": region})
            assert entry.reconstructed == expected


def test_workload_rectangles_hold_the_requested_count():
    import workloads

    w = workloads.RoundTrip()
    w.prepare()
    for count in range(6):
        rng = np.random.default_rng(count)
        rect = w.rect_with(rng, count)
        assert oracles.points_in_rect(oracles.MARKED_POINTS, rect) == count
