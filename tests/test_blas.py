"""rho calls no BLAS kernel, so its bits do not depend on the CPU.

OpenBLAS picks its dot-product kernel by CPU model, and kernels sum in
different orders. numpy's own pairwise sum has one order everywhere.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import quasimeasure

_SRC = Path(quasimeasure.__file__).parent

# 36 density integrals of cones with 64² to 512² cells: thousands of levels
# each, under a constant and two per-cell densities
_CHILD = """
import numpy as np
from quasimeasure import DensityMeasure, ScalarField, quasi_integral
from quasimeasure.presets import standard_frame

rng = np.random.default_rng(36)
for n in (64, 128, 256, 512):
    frame = standard_frame(n)
    xx, yy = frame.center_grids()
    for _ in range(3):
        cx, cy, r = rng.uniform(3.0, 7.0, size=3) * (1.0, 1.0, 0.4)
        f = ScalarField(frame, np.maximum(0.0, 1.0 - np.hypot(xx - cx, yy - cy) / r))
        for mu in (DensityMeasure(float(rng.uniform(0.5, 2.0))),
                   DensityMeasure(rng.uniform(0.5, 1.5, size=frame.shape)),
                   DensityMeasure(rng.uniform(0.0, 10.0, size=frame.shape))):
            print(quasi_integral(mu, f).value.hex())
"""


def _rho_bits(coretype: str) -> list[str]:
    path = os.pathsep.join([str(_SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout.split()
    assert len(out) == 36
    return out


def test_rho_is_the_same_under_two_blas_kernels():
    """Two processes that force different OpenBLAS dot kernels get the same
    bits. With np.dot in the layer cake they differ on an x86 CPU. The
    variable selects a kernel only in an x86 OpenBLAS built for several
    CPUs, so on other hardware this test proves nothing."""
    assert _rho_bits("Prescott") == _rho_bits("Nehalem")


_BLAS_CALLS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "vecdot"}


def test_src_calls_no_blas():
    """No `@` operator and no BLAS-backed call in the package. Decorators
    also use `@`, so the source is read as a syntax tree, not grepped."""
    found = []
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name in _BLAS_CALLS:
                    found.append((path.name, node.lineno, name))
    assert found == []
