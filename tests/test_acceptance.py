"""Acceptance gate: one criterion per test, one printed verdict line each.

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
from quasimeasure import (
    AtomicMeasure,
    DensityMeasure,
    build_plateau,
    distribution_function,
    linear_oracle,
    quasi_integral,
    rect_region,
    support_region,
    tm_eval,
)
from quasimeasure.checks import (
    check_disjoint_support_additivity,
    check_distribution_invariants,
    check_homogeneity,
    check_monotone_lipschitz,
    check_nonlinearity_example,
    check_positivity,
    check_sga_additivity,
    check_tm_axioms,
)
from quasimeasure.presets import crossing_measure, crossing_sum, standard_frame
from quasimeasure.reconstruct import _default_rt_tol, roundtrip

from conftest import interval_mass, roundtrip_catalog


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_1_nonlinear_golden_triple():
    start = time.perf_counter()
    report = check_nonlinearity_example(frame=standard_frame(64))
    elapsed = time.perf_counter() - start
    d = report.details["1.0"]
    errors = (abs(d["rho_f"] - 1.0), abs(d["rho_g"] - 1.0), abs(d["rho_sum"] - 1.5))
    ok = (max(errors) <= 1e-9 and d["defect"] == 0.5 and elapsed < 5.0
          and report.passed)
    _verdict(1, "crossed-plateau golden values", ok,
             f"rho=({d['rho_f']}, {d['rho_g']}, {d['rho_sum']}), "
             f"defect={d['defect']}, {elapsed:.2f}s")


def test_criterion_2_linear_baseline_512():
    start = time.perf_counter()
    frame = standard_frame(512)
    mu = DensityMeasure(1.0)
    tent = build_plateau(None, rect_region(frame, 2, 6, 2, 6, role="open"), 1.0, 2.0)
    value = quasi_integral(mu, tent).value
    oracle = linear_oracle(mu, tent)
    elapsed = time.perf_counter() - start
    gap = abs(value - oracle)
    ok = gap <= 5e-3 and elapsed < 10.0
    _verdict(2, "density tent vs direct integral at 512x512", ok,
             f"gap={gap:.2e}, {elapsed:.2f}s")


def test_criterion_3_roundtrip_catalog():
    frame = standard_frame(64)
    mu = crossing_measure()
    entries = roundtrip(mu, roundtrip_catalog(frame))
    worst = max(e.gap for e in entries)
    ok = (len(entries) == 6 and worst <= 1e-9
          and all(e.report.converged for e in entries)
          and all(len(e.report.trace) <= 8 for e in entries))
    _verdict(3, "measure recovered from its functional on 6 regions", ok,
             f"worst gap={worst:.2e}")


def test_criterion_4_property_suites_200_trials():
    frame = standard_frame(64)
    mu = crossing_measure()
    suites = [
        ("homogeneity", check_homogeneity(mu, trials=200, seed=1, frame=frame)),
        ("subalgebra additivity", check_sga_additivity(
            mu, trials=200, seed=2, frame=frame)),
        ("positivity", check_positivity(mu, trials=200, seed=3, frame=frame)),
        ("disjoint supports", check_disjoint_support_additivity(
            mu, trials=200, seed=4, frame=frame)),
        ("monotonicity", check_monotone_lipschitz(mu, trials=200, seed=5, frame=frame)),
        ("lipschitz bound", check_monotone_lipschitz(mu, trials=200, seed=6, frame=frame)),
    ]
    failures = {name: rep.failures for name, rep in suites}
    ok = all(rep.failures == 0 and rep.trials == 200 for _, rep in suites)
    _verdict(4, "six randomized suites, 200 trials each", ok, f"failures={failures}")


def test_criterion_5_distribution_invariants():
    frame = standard_frame(64)
    mu = crossing_measure()
    ok = True

    # explicit golden staircase: monotone steps, zero tail, support bound,
    # exact interval-mass additivity at step-aligned cuts
    h = crossing_sum(frame, 1.0)
    F = distribution_function(mu, h)
    seq = np.concatenate([[F.left_limit], F.values])
    ok &= bool(np.all(np.diff(seq) <= 0))
    ok &= F.values[-1] == 0.0 and F(2.5) == 0.0
    bound = tm_eval(mu, support_region(h))
    ok &= F.left_limit <= bound and bool(np.all(F.values <= bound))
    a, b, c = 0.5, 1.5, 2.5
    ok &= interval_mass(F, a, c) == interval_mass(F, a, b) + interval_mass(F, b, c)

    reports = [
        check_distribution_invariants(mu, trials=80, seed=11, frame=frame),
        check_distribution_invariants(DensityMeasure(1.0), trials=40, seed=12,
                                      frame=frame),
    ]
    ok &= all(r.failures == 0 for r in reports)
    _verdict(5, "distribution-function invariants", ok,
             f"randomized failures={[r.failures for r in reports]}")


def test_criterion_6_tm_axiom_suites():
    frame = standard_frame(64)
    atoms = AtomicMeasure(np.array([[3.13, 7.21], [6.47, 2.93], [5.11, 5.57]]),
                          np.array([1.0, 2.5, 0.25]))
    measures = [("point_count", crossing_measure()), ("density", DensityMeasure(1.0)),
                ("atomic", atoms)]
    # each family's bound, which the suite reads from its measure
    assert [_default_rt_tol(mu) for _, mu in measures] == [1e-9, 1e-3, 1e-9]
    suites = [(name, check_tm_axioms(mu, frame=frame)) for name, mu in measures]
    failures = {name: rep.failures for name, rep in suites}
    ok = all(rep.failures == 0 for _, rep in suites)
    _verdict(6, "topological-measure axiom suites", ok, f"failures={failures}")
