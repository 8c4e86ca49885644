import contextlib
import io
import math

import numpy as np
import pytest

from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    DistributionFn,
    DomainError,
    Frame,
    PiecewiseLinearMap,
    Region,
    ScalarField,
)
from quasimeasure.cli import main
from quasimeasure.grid import edge_cells
from quasimeasure.presets import (
    crossing_fields,
    crossing_measure,
    crossing_regions,
    standard_frame,
)

# -- helpers the package does not need: tests import them from here --------


def roundtrip_catalog(frame: Frame) -> dict[str, Region]:
    """Six regions whose measure the reconstruction must recover exactly."""
    regions = crossing_regions(frame)
    return {name: regions[name]
            for name in ("K", "C", "core", "side_pocket", "interior", "empty")}


def zero_field(frame: Frame) -> ScalarField:
    return ScalarField(frame, np.zeros(frame.shape))


def truncation(delta: float, lo: float, hi: float) -> PiecewiseLinearMap:
    """min(x, delta) on [lo, hi]; requires lo <= 0 < delta < hi."""
    return PiecewiseLinearMap(np.array([[lo, lo], [delta, delta], [hi, delta]]))


def breakpoints(F) -> list[tuple[float, float]]:
    """F's (threshold, value) pairs."""
    return list(zip(F.thresholds.tolist(), F.values.tolist()))


def left_value(F: DistributionFn, t: float) -> float:
    """F(t-): the limit of F from the left."""
    if math.isinf(t):
        return 0.0 if t > 0 else F.left_limit
    i = int(np.searchsorted(F.thresholds, t, side="left")) - 1
    return F.left_limit if i < 0 else float(F.values[i])


def interval_mass(F: DistributionFn, a: float, b: float) -> float:
    """Mass the induced measure assigns to the open interval (a, b): F(a) - F(b-)."""
    if not a < b:
        raise DomainError(f"need a < b, got ({a}, {b})")
    return F(a) - left_value(F, b)


def same_region(a: Region, b: Region) -> bool:
    """Equal frames, roles and masks."""
    return a.frame == b.frame and a.role == b.role and bool(np.array_equal(a.mask, b.mask))


@pytest.fixture(scope="session")
def frame64():
    return standard_frame(64)


@pytest.fixture(scope="session")
def crossing():
    return crossing_measure()


@pytest.fixture(scope="session")
def regions64(frame64):
    return crossing_regions(frame64)


@pytest.fixture(scope="session")
def golden_pair(frame64):
    return crossing_fields(frame64, 1.0)


@pytest.fixture(scope="session")
def nonlinear_out(tmp_path_factory):
    """The output directory of `quasimeasure run nonlinear_example` at seed 0."""
    out = tmp_path_factory.mktemp("nonlinear_example")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "nonlinear_example", "--seed", "0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def lebesgue():
    return DensityMeasure(1.0)


@pytest.fixture(scope="session")
def spikes():
    return AtomicMeasure(np.array([[3.13, 7.21], [6.47, 2.93], [5.11, 5.57]]),
                         np.array([1.0, 2.5, 0.25]))


def _gate_mask(rng, shape, family):
    ny, nx = shape
    m = np.zeros(shape, dtype=bool)
    if family == "components":
        for _ in range(rng.integers(2, 6)):
            r, c = rng.integers(2, ny - 4), rng.integers(2, nx - 4)
            m[r:r + rng.integers(1, ny // 4), c:c + rng.integers(1, nx // 4)] = True
        m[[0, 1, -2, -1], :] = m[:, [0, 1, -2, -1]] = False
    elif family == "holed":
        r, c = rng.integers(2, ny // 2), rng.integers(2, nx // 2)
        h, w = rng.integers(7, ny // 2), rng.integers(7, nx // 2)
        m[r:r + h, c:c + w] = True
        m[r + 2:r + h - 2, c + 2:c + w - 2] = rng.random((h - 4, w - 4)) < 0.4
    elif family == "salt":
        m[1:-1, 1:-1] = rng.random((ny - 2, nx - 2)) < rng.uniform(0.02, 0.6)
    elif family == "near_edge":
        # the box starts one or two cells inside the edge ring on one side: at
        # one cell its pad lands on the edge row or column
        r, c = rng.integers(ny // 4, ny // 2), rng.integers(nx // 4, nx // 2)
        m[r:r + ny // 4, c:c + nx // 4] = rng.random((ny // 4, nx // 4)) < 0.7
        side, gap = rng.integers(4), rng.integers(1, 3)
        if side == 0:
            m[gap, c] = True
        elif side == 1:
            m[ny - 1 - gap, c] = True
        elif side == 2:
            m[r, gap] = True
        else:
            m[r, nx - 1 - gap] = True
    elif family == "edge":
        # a compact set on the edge ring: the padded box is clamped to the frame
        r, c = rng.integers(0, ny // 2), rng.integers(0, nx // 2)
        m[r:r + ny // 2, c:c + nx // 2] = rng.random((ny // 2, nx // 2)) < 0.8
        m[rng.choice([0, ny - 1]), c:c + rng.integers(1, nx // 2)] = True
    return m


@pytest.fixture(scope="session")
def gate_masks():
    """Seeded regions on a square, a 96x64 and an anisotropic 80x48 frame
    (dx != dy): several components, holed blocks, salt noise, sets one or two
    cells inside the edge ring, compact sets on it, and the empty set."""
    frames = [Frame(0, 10, 0, 10, 64, 64), Frame(0, 9.6, 0, 6.4, 96, 64),
              Frame(0, 10, 0, 3, 80, 48)]
    families = ["components", "holed", "salt", "near_edge", "edge"]
    rng = np.random.default_rng(20260)
    out = []
    for frame in frames:
        out.append(Region(frame, np.zeros(frame.shape, dtype=bool), "open"))
        for i in range(65):
            m = _gate_mask(rng, frame.shape, families[i % len(families)])
            out.append(Region(frame, m, "compact" if edge_cells(m).any() else "open"))
    return out
