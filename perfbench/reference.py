"""Reference figures that sit outside the timed workloads.

    python3 perfbench/reference.py

Prints, one line each:
  * the CLI on each bundled scenario with --threads 1 and --threads 2
    (median wall time of three runs, seed 1);
  * pointcount_512's operations at 1024^2 (median wall time of each
    position of a round, over two rounds, seed 1).
Outputs go to perfbench/_out and are removed afterwards.
"""

import contextlib
import io
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from quasimeasure import cli  # noqa: E402


def threads():
    out = workloads.OUT_DIR / "reference-threads"
    for name in workloads.ScenarioCli.scenarios:
        for n in (1, 2):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["run", name, "--seed", "1", "--threads", str(n),
                                     "--out", str(out)])
                times.append(time.perf_counter() - t0)
                if code != 0:
                    raise SystemExit(f"{name} --threads {n} exited with {code}")
            print(f"{name} --threads {n}: {statistics.median(times):.3f} s")
    shutil.rmtree(out, ignore_errors=True)


def pointcount_1024():
    w = workloads.PointCount()
    w.prepare()
    w.fields = workloads._Fields(1024)
    times = {}
    for r in range(2):
        for j in range(w.round_size):
            op = w.make_input(1, r, j)
            t0 = time.perf_counter()
            out = w.run(op)
            family, target = workloads.FIELD_ROUND[j]
            times.setdefault(f"{family} {target}", []).append(time.perf_counter() - t0)
            if w.check(op, out):
                raise SystemExit(f"1024^2 {op.kind}: {w.check(op, out)}")
    per_kind = ", ".join(f"{k} {statistics.median(v) * 1e3:.0f} ms" for k, v in times.items())
    print(f"pointcount at 1024^2: {per_kind}")


if __name__ == "__main__":
    threads()
    pointcount_1024()
