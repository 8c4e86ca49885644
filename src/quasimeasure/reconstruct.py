"""Rebuilding a measure from its quasi-integral.

The value on an open set is the supremum of rho over plateaus supported
inside it; the value on a compact set is the infimum over plateaus equal
to one on it. Both extrema are attained along a schedule of unit ramps
over the distance map of their support (the open target itself, or the
compact target's dilation) that steepen toward the target, so a short
schedule recovers the measure on well-separated regions exactly.

Every ramp is min(1, dist / width), a non-decreasing function of one
distance map with value 0 at 0. rho is linear on the functions of one
field, so for a point-count measure no ramp is built: the map's one
distribution gives rho of each of its ramps exactly, bit for bit (see
`integration._ramp_integrals`). An open target's eight ramps share one
map, and so one distribution. A compact target's dilations are all level
sets of one chessboard distance map (`regions._dilations`), the one
Chebyshev kernel behind `dilate` and `erode` too, but each keeps its own
Euclidean distance map and its own distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FrameError, GeometryError
from .fields import _part_distance_map, distance_map
from .integration import QuasiIntegral, _ramp_integrals
from .measures import DENSITY, TopologicalMeasure, tm_eval
from .regions import COMPACT, OPEN, Region, _bbox, _dilations, _inside


@dataclass(frozen=True)
class ReconstructionReport:
    """Trace of rho along the plateau schedule for one target region."""

    trace: tuple[tuple[int, float], ...]  # (radius, rho value)
    estimate: float
    monotone: bool
    converged: bool


_STEPS = 8


def _default_rt_tol(mu: TopologicalMeasure) -> float:
    """The bound on an error in mu's values: a point-count or atomic measure is
    recovered exactly, a density with an O(cell * perimeter) overshoot.

    A density's open target is recovered exactly. A compact one is overshot by
    the one-cell ring around it, so its roundtrip fails: DensityMeasure(1.0) on
    [2.3, 5.1] x [2.2, 5.3] by 1.95 at 64^2, 0.95 at 128^2 and 0.47 at 256^2."""
    return 1e-3 if mu.kind == DENSITY else 1e-9


def mu_rho_open(rho: QuasiIntegral, U: Region) -> ReconstructionReport:
    """sup of rho over plateaus supported inside the open region U.

    Every plateau ramps over U's one distance map and steepens as the radius
    shrinks, so successive plateaus increase pointwise and the trace is
    non-decreasing. The estimate never exceeds the measure of U.
    """
    if U.role != OPEN:
        raise GeometryError("mu_rho_open expects an open-role region")
    return _schedule(rho, U)


def mu_rho_compact(rho: QuasiIntegral, K: Region) -> ReconstructionReport:
    """inf of rho over plateaus equal to one on the compact region K.

    Each step supports the plateau in a dilation of K; shrinking dilations
    give pointwise smaller plateaus, so the trace is non-increasing.
    Dilations that reach the frame's edge ring are skipped; if every step
    does, FrameError is raised.
    """
    if K.role != COMPACT:
        raise GeometryError("mu_rho_compact expects a compact-role region")
    return _schedule(rho, K)


def _schedule(rho: QuasiIntegral, target: Region) -> ReconstructionReport:
    """rho of the unit ramp over each radius's support; sup for an open
    target, inf for a compact one.

    The radii are _STEPS, ..., 2, 1 (in cells) toward the target. At
    radius k the ramp is k * min_cell wide. A cell of the support's k-cell
    erosion lies at least (k + 1) * min_cell from the complement, so the
    plateau is one there: on the eroded open target, and on the compact
    target inside its k-cell dilation.
    """
    rt_tol = _default_rt_tol(rho.mu)
    if target.is_empty:
        return ReconstructionReport((), 0.0, True, True)
    frame = target.frame
    is_open = target.role == OPEN
    trace = []
    for (box, dist), radii in _supports(target):
        widths = [k * frame.min_cell for k in radii]
        trace += zip(radii, _ramp_integrals(rho.mu, frame, box, dist, widths))
    if not trace:
        raise FrameError("every dilation in the schedule exits the frame")
    values = [v for _, v in trace]
    steps = list(zip(values[:-1], values[1:]))
    if is_open:
        estimate, monotone = max(values), all(b >= a - rt_tol for a, b in steps)
    else:
        estimate, monotone = min(values), all(b <= a + rt_tol for a, b in steps)
    return ReconstructionReport(
        trace=tuple(trace), estimate=estimate, monotone=monotone,
        converged=len(values) >= 2 and abs(values[-1] - values[-2]) <= rt_tol,
    )


def _supports(target: Region):
    """Each distance map of the schedule, with the radii whose ramps it
    carries: an open target's one map carries every radius, and a compact
    target's k-cell dilation radius k alone. The compact target's
    dilations are the boxed parts of one chessboard distance map
    (`regions._dilations`); each part gets its own Euclidean distance map.
    A dilation that reaches the frame's edge ring is skipped: the k-cell
    dilation is off the ring exactly when the (k + 1)-cell one stays in the
    frame, the rule by which `dilate` raises."""
    radii = list(range(_STEPS, 0, -1))
    if target.role == OPEN:
        yield distance_map(target), radii
        return
    box = _bbox(target.mask)
    radii = [k for k in radii if _inside(box, k + 1, target.frame.shape)]
    if not radii:
        return
    for k, part in zip(radii, _dilations(target.mask, box, radii)):
        yield _part_distance_map(target.frame, part), [k]


@dataclass(frozen=True)
class RoundTripEntry:
    name: str
    measured: float
    reconstructed: float
    gap: float
    passed: bool
    report: ReconstructionReport


def roundtrip(mu: TopologicalMeasure, catalog: dict[str, Region]) -> list[RoundTripEntry]:
    """Compare tm_eval with the reconstruction estimate over a named region
    catalog, at mu's bound _default_rt_tol(mu)."""
    rho = QuasiIntegral(mu)
    rt_tol = _default_rt_tol(mu)
    entries = []
    for name, region in catalog.items():
        measured = tm_eval(mu, region)
        estimator = mu_rho_open if region.role == OPEN else mu_rho_compact
        report = estimator(rho, region)
        gap = abs(measured - report.estimate)
        entries.append(RoundTripEntry(
            name=name, measured=measured, reconstructed=report.estimate, gap=gap,
            passed=gap <= rt_tol, report=report,
        ))
    return entries
