"""Rebuilding a measure from its quasi-integral.

The value on an open set is the supremum of rho over plateaus supported
inside it; the value on a compact set is the infimum over plateaus equal
to one on it. Both extrema are attained along a schedule of Urysohn-type
plateaus whose ramps steepen toward the target region, so a short
erosion/dilation schedule recovers the measure on well-separated regions
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FrameError, GeometryError
from .fields import build_plateau
from .integration import QuasiIntegral
from .measures import POINT_COUNT, TopologicalMeasure, tm_eval
from .regions import COMPACT, OPEN, Region, dilate, erode


@dataclass(frozen=True)
class BumpSchedule:
    """Erosion/dilation radii max_steps, ..., 2, 1 (in cells) toward the target.

    At radius k the ramp is k * min_cell, the widest ramp that is always
    feasible for a k-cell margin.
    """

    max_steps: int = 8

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class ReconstructionReport:
    """Trace of rho along the plateau schedule for one target region."""

    target: Region
    kind: str  # "open" or "compact"
    trace: tuple[tuple[int, float], ...]  # (radius, rho value)
    estimate: float
    monotone: bool
    converged: bool

    def trace_to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("step,radius,value\n")
            for step, (k, v) in enumerate(self.trace):
                fh.write(f"{step},{k},{float(v)!r}\n")


def _default_rt_tol(mu: TopologicalMeasure) -> float:
    return 1e-9 if mu.kind == POINT_COUNT else 1e-3


def mu_rho_open(rho: QuasiIntegral, U: Region,
                schedule: BumpSchedule | None = None,
                rt_tol: float | None = None) -> ReconstructionReport:
    """sup of rho over plateaus supported inside the open region U.

    The schedule erodes U by each radius for the flat top and ramps over
    that margin, so successive plateaus increase pointwise and the trace is
    non-decreasing. The estimate never exceeds the measure of U.
    """
    if U.role != OPEN:
        raise GeometryError("mu_rho_open expects an open-role region")
    schedule = schedule or BumpSchedule()
    rt_tol = _default_rt_tol(rho.mu) if rt_tol is None else rt_tol
    if U.is_empty:
        return ReconstructionReport(U, "open", (), 0.0, True, True)
    min_cell = U.frame.min_cell
    trace = []
    for k in range(schedule.max_steps, 0, -1):
        inner = erode(U, k)
        try:
            bump = build_plateau(inner, U, 1.0, k * min_cell)
        except (GeometryError, FrameError):
            continue
        trace.append((k, rho(bump)))
    if not trace:
        raise GeometryError("no schedule step produced a feasible plateau")
    values = [v for _, v in trace]
    return ReconstructionReport(
        target=U, kind="open", trace=tuple(trace), estimate=max(values),
        monotone=all(b >= a - rt_tol for a, b in zip(values[:-1], values[1:])),
        converged=len(values) >= 2 and abs(values[-1] - values[-2]) <= rt_tol,
    )


def mu_rho_compact(rho: QuasiIntegral, K: Region,
                   schedule: BumpSchedule | None = None,
                   rt_tol: float | None = None) -> ReconstructionReport:
    """inf of rho over plateaus equal to one on the compact region K.

    Each step supports the plateau in a dilation of K; shrinking dilations
    give pointwise smaller plateaus, so the trace is non-increasing.
    Dilations that would exit the frame are skipped; if every step does,
    FrameError is raised.
    """
    if K.role != COMPACT:
        raise GeometryError("mu_rho_compact expects a compact-role region")
    schedule = schedule or BumpSchedule()
    rt_tol = _default_rt_tol(rho.mu) if rt_tol is None else rt_tol
    if K.is_empty:
        return ReconstructionReport(K, "compact", (), 0.0, True, True)
    min_cell = K.frame.min_cell
    trace = []
    for k in range(schedule.max_steps, 0, -1):
        try:
            outer = dilate(K, k).with_role(OPEN)
            bump = build_plateau(K, outer, 1.0, k * min_cell)
        except (FrameError, GeometryError):
            continue
        trace.append((k, rho(bump)))
    if not trace:
        raise FrameError("every dilation in the schedule exits the frame")
    values = [v for _, v in trace]
    return ReconstructionReport(
        target=K, kind="compact", trace=tuple(trace), estimate=min(values),
        monotone=all(b <= a + rt_tol for a, b in zip(values[:-1], values[1:])),
        converged=len(values) >= 2 and abs(values[-1] - values[-2]) <= rt_tol,
    )


@dataclass(frozen=True)
class RoundTripEntry:
    name: str
    region: Region
    measured: float
    reconstructed: float
    gap: float
    passed: bool
    report: ReconstructionReport


def roundtrip(mu: TopologicalMeasure, catalog, schedule: BumpSchedule | None = None,
              rt_tol: float | None = None) -> list[RoundTripEntry]:
    """Compare tm_eval with the reconstruction estimate over a region catalog.

    catalog: mapping name -> Region, or an iterable of Regions.
    """
    rho = QuasiIntegral(mu)
    rt_tol = _default_rt_tol(mu) if rt_tol is None else rt_tol
    if isinstance(catalog, dict):
        items = list(catalog.items())
    else:
        items = [(f"region_{i}", r) for i, r in enumerate(catalog)]
    entries = []
    for name, region in items:
        measured = tm_eval(mu, region)
        if region.role == OPEN:
            report = mu_rho_open(rho, region, schedule, rt_tol)
        else:
            report = mu_rho_compact(rho, region, schedule, rt_tol)
        gap = abs(measured - report.estimate)
        entries.append(RoundTripEntry(
            name=name, region=region, measured=measured,
            reconstructed=report.estimate, gap=gap,
            passed=gap <= rt_tol, report=report,
        ))
    return entries
