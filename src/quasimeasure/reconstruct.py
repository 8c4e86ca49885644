"""Rebuilding a measure from its quasi-integral.

The value on an open set is the supremum of rho over plateaus supported
inside it; the value on a compact set is the infimum over plateaus equal
to one on it. Both extrema are attained along a schedule of unit ramps
over the distance map of their support (the open target itself, or the
compact target's dilation) that steepen toward the target, so a short
schedule recovers the measure on well-separated regions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FrameError, GeometryError
from .fields import distance_map, ramp_field
from .integration import QuasiIntegral
from .measures import POINT_COUNT, TopologicalMeasure, tm_eval
from .regions import COMPACT, OPEN, Region, dilate


@dataclass(frozen=True)
class ReconstructionReport:
    """Trace of rho along the plateau schedule for one target region."""

    trace: tuple[tuple[int, float], ...]  # (radius, rho value)
    estimate: float
    monotone: bool
    converged: bool


def _default_rt_tol(mu: TopologicalMeasure) -> float:
    return 1e-9 if mu.kind == POINT_COUNT else 1e-3


def mu_rho_open(rho: QuasiIntegral, U: Region,
                max_steps: int = 8,
                rt_tol: float | None = None) -> ReconstructionReport:
    """sup of rho over plateaus supported inside the open region U.

    Every plateau ramps over U's one distance map and steepens as the radius
    shrinks, so successive plateaus increase pointwise and the trace is
    non-decreasing. The estimate never exceeds the measure of U.
    """
    if U.role != OPEN:
        raise GeometryError("mu_rho_open expects an open-role region")
    return _schedule(rho, U, max_steps, rt_tol)


def mu_rho_compact(rho: QuasiIntegral, K: Region,
                   max_steps: int = 8,
                   rt_tol: float | None = None) -> ReconstructionReport:
    """inf of rho over plateaus equal to one on the compact region K.

    Each step supports the plateau in a dilation of K; shrinking dilations
    give pointwise smaller plateaus, so the trace is non-increasing.
    Dilations that reach the frame's edge ring are skipped; if every step
    does, FrameError is raised.
    """
    if K.role != COMPACT:
        raise GeometryError("mu_rho_compact expects a compact-role region")
    return _schedule(rho, K, max_steps, rt_tol)


def _schedule(rho: QuasiIntegral, target: Region, max_steps: int,
              rt_tol: float | None) -> ReconstructionReport:
    """rho of the unit ramp over each radius's support; sup for an open
    target, inf for a compact one.

    The radii are max_steps, ..., 2, 1 (in cells) toward the target. At
    radius k the ramp is k * min_cell wide. A cell of the support's k-cell
    erosion lies at least (k + 1) * min_cell from the complement, so the
    plateau is one there: on the eroded open target, and on the compact
    target inside its k-cell dilation.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rt_tol = _default_rt_tol(rho.mu) if rt_tol is None else rt_tol
    if target.is_empty:
        return ReconstructionReport((), 0.0, True, True)
    frame = target.frame
    is_open = target.role == OPEN
    box, dist = distance_map(target) if is_open else (None, None)
    trace = []
    for k in range(max_steps, 0, -1):
        if not is_open:
            try:
                box, dist = distance_map(dilate(target, k).with_role(OPEN))
            except FrameError:
                continue
        trace.append((k, rho(ramp_field(frame, box, dist, 1.0, k * frame.min_cell))))
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


@dataclass(frozen=True)
class RoundTripEntry:
    name: str
    measured: float
    reconstructed: float
    gap: float
    passed: bool
    report: ReconstructionReport


def roundtrip(mu: TopologicalMeasure, catalog: dict[str, Region],
              max_steps: int = 8,
              rt_tol: float | None = None) -> list[RoundTripEntry]:
    """Compare tm_eval with the reconstruction estimate over a named region catalog."""
    rho = QuasiIntegral(mu)
    rt_tol = _default_rt_tol(mu) if rt_tol is None else rt_tol
    entries = []
    for name, region in catalog.items():
        measured = tm_eval(mu, region)
        estimator = mu_rho_open if region.role == OPEN else mu_rho_compact
        report = estimator(rho, region, max_steps, rt_tol)
        gap = abs(measured - report.estimate)
        entries.append(RoundTripEntry(
            name=name, measured=measured, reconstructed=report.estimate, gap=gap,
            passed=gap <= rt_tol, report=report,
        ))
    return entries
