"""Write the golden corpus: what each corpus run gives, from this tree.

Each run is one scenario at one seed, through the command line's `main`. It
records the exit code, report.json less its `timing` and `versions` keys, and
the sha256 of every CSV, by file name. The numpy, scipy and Python versions go
once, at the top. tests/test_golden.py compares every run with the corpus.

A change that is meant to change output rewrites the corpus, from the
repository root:

    PYTHONPATH=src python tests/golden/write_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy

from quasimeasure import cli

CORPUS = Path(__file__).with_name("corpus.json")
_SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
_BUNDLED = ("nonlinear_example", "measure_baseline")
# the scenario files that exit 0
_FILES = ("outside_atoms", "negated_field", "spikes_neg", "third_density")
CASES = tuple(f"{name}-{seed}" for name in _BUNDLED + _FILES for seed in (0, 3, 17))


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_case(case: str) -> dict:
    """The exit code, report body and CSV hashes of one run, named <scenario>-<seed>."""
    name, seed = case.rsplit("-", 1)
    scenario = name if name in _BUNDLED else str(_SCENARIO_DIR / f"{name}.json")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", scenario, "--seed", seed, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        for key in ("timing", "versions"):
            del report[key]
        csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("*.csv"))}
    return {"exit": code, "report": report, "csv": csvs}


def main():
    corpus = {"versions": versions(), "runs": {case: run_case(case) for case in CASES}}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} runs to {CORPUS}")


if __name__ == "__main__":
    main()
