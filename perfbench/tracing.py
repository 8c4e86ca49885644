"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces the public functions of each quasimeasure module
(and the two scipy kernels they call) by wrappers, at every name the
package looks them up by at call time: a function imported with
`from .fields import build_plateau` is found and replaced in each module
that imported it, and `scipy.ndimage.label` is replaced on `scipy.ndimage`
itself. `uninstall` puts the originals back, so an untraced pass runs the
program exactly as shipped.

Spans are recorded only inside `Tracer.operation()`, so input generation
and checks never show up in a layer. A layer's self time is its span's
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import scipy.ndimage

from quasimeasure import fields, integration, measures, reconstruct, regions, scenario

ROOT = "op"


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [layer, start, child_time, span index]
        self.reset()

    def reset(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.spans: list[tuple[str, float, float, int]] = []

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def operation(self):
        self._stack = [[ROOT, time.perf_counter(), 0.0, -1]]
        try:
            yield
        finally:
            _, start, _, _ = self._stack.pop()
            self.spans.append((ROOT, start, time.perf_counter(), -1))

    def _wrap(self, layer: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, time.perf_counter(), 0.0, len(tracer.spans)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent[2] += duration
                tracer.calls[layer] += 1
                tracer.total[layer] += duration
                tracer.self_time[layer] += duration - frame[2]
                tracer.spans.append((layer, frame[1], end, parent[3]))
            if on_result is not None:
                on_result(tracer, parent[0], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, layer: str, fn, on_result=None):
        """Replace fn at every quasimeasure module attribute that holds it."""
        wrapper = self._wrap(layer, fn, on_result)
        for name, module in list(sys.modules.items()):
            if name == "quasimeasure" or name.startswith("quasimeasure."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(scipy.ndimage, "label", self._wrap("regions.label", scipy.ndimage.label))
        self._patch(scipy.ndimage, "distance_transform_edt",
                    self._wrap("fields.edt", scipy.ndimage.distance_transform_edt))
        self._patch_everywhere("regions.point_cells", regions.point_cells)
        self._patch_everywhere("regions.morph", regions.erode)
        self._patch_everywhere("regions.morph", regions.dilate)
        self._patch_everywhere("fields.build_plateau", fields.build_plateau)
        for cls in (measures.PointCountMeasure, measures.DensityMeasure, measures.AtomicMeasure):
            self._patch(cls, "mass", self._wrap("measures.mass", cls.mass))
        self._patch_everywhere("integration", integration.quasi_integral, _on_quasi_integral)
        self._patch_everywhere("integration", integration.distribution_function,
                               _on_distribution)
        # The count of distinct sampled levels explains the bisection's cost;
        # the level evaluator already holds it, so reading it costs nothing.
        self._patch(integration._LevelEvaluator, "__init__",
                    _count_levels(self, integration._LevelEvaluator.__init__))
        for fn in (reconstruct.roundtrip, reconstruct.mu_rho_open, reconstruct.mu_rho_compact):
            self._patch_everywhere("reconstruct", fn)
        self._patch_everywhere("scenario.load", scenario.load_scenario)
        self._patch_everywhere("scenario.execute", scenario.execute_scenario, _on_execute)
        self._patch_everywhere("scenario.artifacts", scenario._write_artifacts)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _on_quasi_integral(tracer, parent, args, kwargs, result):
    tracer.extra["integration.evals"] += result.diagnostics.refinement_iterations
    tracer.extra["integration.breakpoints"] += result.diagnostics.breakpoint_count
    if parent == "reconstruct":
        tracer.extra["reconstruct.rho_calls"] += 1


def _on_distribution(tracer, parent, args, kwargs, result):
    tracer.extra["integration.breakpoints"] += len(result.thresholds)


def _on_execute(tracer, parent, args, kwargs, report):
    tracer.extra["checks.wall_s"] += sum(report["timing"]["wall_times"].values())
    # report.json carries timings, so only the CSV artifacts have a size
    # that repeats exactly.
    out_dir = args[1] if len(args) > 1 else kwargs.get("out_dir")
    if out_dir is not None:
        tracer.extra["scenario.artifact_bytes"] += sum(
            p.stat().st_size for p in Path(out_dir).glob("*.csv"))


def _count_levels(tracer, init):
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if tracer._stack:
            tracer.extra["integration.levels"] += len(self.levels)

    traced_init.__wrapped__ = init
    return traced_init


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation (value, unit) of one traced pass over `ops` operations."""
    ms = 1e3 / ops
    return {
        "regions.label_calls": (tracer.calls["regions.label"] / ops, "count"),
        "regions.label_ms": (tracer.total["regions.label"] * ms, "ms"),
        "regions.point_cells_calls": (tracer.calls["regions.point_cells"] / ops, "count"),
        "regions.point_cells_ms": (tracer.total["regions.point_cells"] * ms, "ms"),
        "regions.morph_calls": (tracer.calls["regions.morph"] / ops, "count"),
        "regions.morph_ms": (tracer.total["regions.morph"] * ms, "ms"),
        "fields.edt_calls": (tracer.calls["fields.edt"] / ops, "count"),
        "fields.edt_ms": (tracer.total["fields.edt"] * ms, "ms"),
        "fields.build_plateau_ms": (tracer.total["fields.build_plateau"] * ms, "ms"),
        "reconstruct.rho_calls": (tracer.extra["reconstruct.rho_calls"] / ops, "count"),
        "reconstruct.self_ms": (tracer.self_time["reconstruct"] * ms, "ms"),
        "measures.mass_calls": (tracer.calls["measures.mass"] / ops, "count"),
        "measures.mass_self_ms": (tracer.self_time["measures.mass"] * ms, "ms"),
        "integration.evals": (tracer.extra["integration.evals"] / ops, "count"),
        "integration.breakpoints": (tracer.extra["integration.breakpoints"] / ops, "count"),
        "integration.levels": (tracer.extra["integration.levels"] / ops, "count"),
        "integration.self_ms": (tracer.self_time["integration"] * ms, "ms"),
        "checks.wall_ms": (tracer.extra["checks.wall_s"] * ms, "ms"),
        "scenario.load_ms": (tracer.total["scenario.load"] * ms, "ms"),
        "scenario.execute_ms": (tracer.total["scenario.execute"] * ms, "ms"),
        "scenario.artifacts_ms": (tracer.total["scenario.artifacts"] * ms, "ms"),
        "scenario.artifact_bytes": (tracer.extra["scenario.artifact_bytes"] / ops, "bytes"),
    }
