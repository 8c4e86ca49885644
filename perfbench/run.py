"""Benchmark of the quasimeasure engine, one workload per run.

    python3 perfbench/run.py --workload pointcount_512 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src. One
process, one thread. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 times the operations with nothing wrapped and reports the
end-to-end metrics. --trace 1 replays the run's first round, alternating
an untraced pass and a traced pass until the time is up, and reports the
per-layer metrics: counts of one traced pass (every pass must give the same
counts), times as the median over traced passes, and the tracing overhead as
the median traced-minus-untraced time per operation. See README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread: speed is to come from fewer passes over the grid, not from a
# thread pool inside numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3


class Run:
    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def op(self, r: int, j: int, tracer=None) -> float:
        """Run operation j of round r; returns its wall time (0 if it failed)."""
        op = self.w.make_input(self.seed, r, j)
        self.attempted += 1
        span = tracer.operation() if tracer is not None else contextlib.nullcontext()
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            with span:
                out = self.w.run(op)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return 0.0
        self.wall.append(wall)
        self.cpu.append(cpu)
        try:
            self.errors += self.w.check(op, out)
        except Exception:
            self.errors.append(traceback.format_exc())
        return wall

    def round(self, r: int, tracer=None) -> float:
        return sum(self.op(r, j, tracer) for j in range(self.w.round_size))


def set_up(name: str):
    """Median over SETUP_REPEATS of: build the workload, run one untimed operation."""
    times, errors = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w = workloads.WORKLOADS[name]()
        w.prepare()
        op = w.warmup_input()
        errors += w.check(op, w.run(op))
        times.append(time.perf_counter() - t0)
    return w, statistics.median(times), errors


def end_to_end(run: Run, seconds: float, setup_s: float) -> dict:
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        run.round(r)
        r += 1
    if not run.wall:
        raise RuntimeError("no operation completed")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(run.wall) / sum(run.wall), "1/s"),
        "op_ms_p50": (statistics.median(run.wall) * 1e3, "ms"),
        "op_cpu_ms_p50": (statistics.median(run.cpu) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def per_layer(run: Run, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    ops = run.w.round_size
    passes, overheads = [], []
    start = time.perf_counter()
    pair_s = 0.0
    # Start another pair only if it is likely to end within the time.
    while not passes or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        untraced = run.round(0)
        tracer.reset()
        tracer.install()
        try:
            traced = run.round(0, tracer)
        finally:
            tracer.uninstall()
        passes.append(tracing.layer_metrics(tracer, ops))
        overheads.append((traced - untraced) * 1e3 / ops)
        pair_s = time.perf_counter() - pair_start
        if len(passes) == 1:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                {"fields": ["layer", "start_s", "end_s", "parent"], "spans": tracer.spans}))
    # Counts must repeat exactly from pass to pass; times are medians.
    first = passes[0]
    for p in passes[1:]:
        for key, (value, unit) in first.items():
            if unit != "ms" and p[key][0] != value:
                run.errors.append(f"{key} differs between traced passes: {value!r} vs {p[key][0]!r}")
    metrics = {key: (statistics.median(p[key][0] for p in passes) if unit == "ms" else value, unit)
               for key, (value, unit) in first.items()}
    metrics["trace.overhead_ms"] = (statistics.median(overheads), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = time.perf_counter() - T_START
    w, prepare_s, setup_errors = set_up(args.workload)
    run = Run(w, args.seed)
    run.errors += setup_errors
    if args.trace:
        spans = workloads.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        metrics = per_layer(run, args.seconds, spans)
    else:
        metrics = end_to_end(run, args.seconds, import_s + prepare_s)
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
