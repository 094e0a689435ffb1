"""Acceptance suite: end-to-end criteria with pinned tolerances.

Each test prints one pass/fail line.  Criterion 6's combination half is
known-red: the order-2 spline's second moment varies with u (it equals
{log u}(1 - {log u})), so the w^-2 term of the p = 3 combination survives
with an oscillating coefficient and the sup-norm order is 2, not 3.  The
same code fitted with the order-4 spline, whose moments through order 3
are constant in u, does reach order 3 (see test_analysis).  The combined
operator itself is verified against a closed-form error oracle to 4e-16
in test_combinations.
"""

import io
import math
import time
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import expsamp as es

B2 = es.parse_kernel_spec("bspline:2")
B4 = es.parse_kernel_spec("bspline:4")
COMBO = es.parse_kernel_spec("combo:4:e^1:e^2")

W_GEOM = [10.0, 20.0, 40.0, 80.0, 160.0]
PROBE_POINTS = (0.75, 2.0, math.e)

TABLE1 = {
    0.60: (0.1422, 0.0664, 0.0424, 0.0039),
    0.75: (0.1474, 0.0807, 0.0561, 0.0033),
    0.80: (0.0613, 0.0462, 0.0359, 0.0070),
    0.90: (0.2182, 0.0800, 0.0499, 0.0136),
    0.95: (0.3230, 0.1520, 0.0963, 0.0129),
}
TABLE2 = {
    1.9: (0.0880, 0.0385, 0.0110),
    2.6: (0.2217, 0.1325, 0.0434),
    3.1: (0.2037, 0.1258, 0.0479),
    3.8: (0.4948, 0.2071, 0.0806),
}


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {desc}: {status}{(' - ' + detail) if detail else ''}")
    assert ok, f"criterion {num}: {desc} {detail}"


def table_deviations(
    xs: Sequence[float],
    rows: Sequence[Sequence[float]],
    expected: dict[float, Sequence[float]],
    tol: float,
) -> list[dict]:
    """Cells of ``make_table``'s rows at xs differing from reference values
    by more than tol; ``column`` counts from 0, the first single rate.

    Returns one record per offending cell; an empty list means the table
    reproduces the reference within tolerance.
    """
    out = []
    for x, row in zip(xs, rows):
        ref = expected.get(x)
        if ref is None:
            continue
        for column, (got, want) in enumerate(zip(row, ref)):
            if abs(got - want) > tol:
                out.append(
                    {"x": x, "column": column, "computed": got, "expected": want,
                     "delta": abs(got - want)}
                )
    return out


def test_deviation_report():
    (row,) = es.make_table(es.get_function("cos4exp"), B2, es.solve_coefficients(2), 15.0, [0.6])
    assert table_deviations([0.6], [row], {0.6: row}, 1e-9) == []
    bad = {0.6: tuple(v + 0.01 for v in row)}
    report = table_deviations([0.6], [row], bad, 2e-3)
    assert len(report) == 3
    assert report[0]["column"] == 0
    assert report[0]["delta"] == pytest.approx(0.01, abs=1e-9)


def test_criterion_1_error_table_b2():
    """20 cells of the w=15, p=3 error table with the order-2 spline, each
    within 2e-3 of the published values; under one second."""
    start = time.perf_counter()
    table = es.make_table(
        es.get_function("cos4exp"), B2, es.solve_coefficients(3), 15.0, sorted(TABLE1)
    )
    elapsed = time.perf_counter() - start
    deviations = table_deviations(sorted(TABLE1), table, TABLE1, 2e-3)
    for record in deviations:
        print(f"  deviation: {record}")
    _report(
        1,
        "error table (order-2 spline, w=15, p=3)",
        not deviations and elapsed < 1.0,
        f"{len(deviations)} cells out of tolerance, {elapsed:.3f}s",
    )


def test_criterion_2_error_table_b4():
    """12 cells of the w=30, p=2 table with the order-4 spline."""
    start = time.perf_counter()
    table = es.make_table(
        es.get_function("sinmix"), B4, es.solve_coefficients(2), 30.0, sorted(TABLE2)
    )
    elapsed = time.perf_counter() - start
    deviations = table_deviations(sorted(TABLE2), table, TABLE2, 2e-3)
    for record in deviations:
        print(f"  deviation: {record}")
    _report(
        2,
        "error table (order-4 spline, w=30, p=2)",
        not deviations and elapsed < 1.0,
        f"{len(deviations)} cells out of tolerance, {elapsed:.3f}s",
    )


def test_criterion_3_moment_constants():
    """m_0..m_3 of the order-4 spline are (1, 0, 1/3, 0) and the translated
    combination has m_2 = -5/3, by direct summation and on the frequency
    side, all to 1e-10."""
    ok = True
    for u in (1.0, 2.37, 0.61):
        for nu, want in [(0, 1.0), (1, 0.0), (2, 1.0 / 3.0), (3, 0.0)]:
            ok &= abs(es.algebraic_moment(B4, nu, u) - want) < 1e-10
            ok &= abs(es.poisson_moment(B4, nu, u, 0) - want) < 1e-10
        ok &= abs(es.algebraic_moment(COMBO, 2, u) + 5.0 / 3.0) < 1e-10
        ok &= abs(es.poisson_moment(COMBO, 2, u, 0) + 5.0 / 3.0) < 1e-10
    _report(3, "moment constants, direct and frequency side, 1e-10", ok)


def test_criterion_4_combination_coefficients():
    """Exact rational coefficients: (-1, 2) and (1/2, -4, 9/2)."""
    ok = es.solve_coefficients(2).coeffs == (Fraction(-1), Fraction(2))
    ok &= es.solve_coefficients(3).coeffs == (
        Fraction(1, 2),
        Fraction(-4),
        Fraction(9, 2),
    )
    _report(4, "combination coefficients exact", ok)


def test_criterion_5_asymptotic_constants():
    """Scaled errors reach the four predicted constants within 2% relative
    at w = 160 over the geometric rate list; under 10 seconds total."""
    log2 = es.get_function("log2")
    log3 = es.get_function("log3")
    cases = [
        ("theta f / 2, order-4 spline", log2, B4, None, lambda f, x: f.theta(1)(x) / 2.0),
        ("-theta^2 f / 6, order-4 spline, p=2", log3, B4, es.solve_coefficients(2),
         lambda f, x: -f.theta(2)(x) / 6.0),
        ("theta^3 f / 48, order-4 spline, p=3", log3, B4, es.solve_coefficients(3),
         lambda f, x: f.theta(3)(x) / 48.0),
        ("theta^2 f / 3, translated kernel, p=2", log2, COMBO, es.solve_coefficients(2),
         lambda f, x: f.theta(2)(x) / 3.0),
    ]
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for desc, f, kernel, scheme, constant in cases:
        for x in PROBE_POINTS:
            study = es.voronovskaya_check(f, kernel, x, W_GEOM, scheme)
            want = constant(f, x)
            assert study.predicted_limit == pytest.approx(want, rel=1e-10), desc
            rel = abs(study.scaled_errors[-1] - want) / abs(want)
            worst = max(worst, rel)
            ok &= rel < 0.02
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(5, "asymptotic constants within 2% at w=160",
            ok, f"worst relative deviation {worst:.4%}, {elapsed:.2f}s")


def test_criterion_6_order_regression():
    """Fitted orders for the oscillatory function with the order-2 spline:
    1.0 +/- 0.15 single rate and 3.0 +/- 0.2 for the p = 3 combination.

    The combination half cannot pass: the u-dependent second moment of the
    order-2 spline leaves a w^-2 error term whose sup-norm coefficient
    does not vanish, so the measured order is ~2 (see the module docstring;
    the same regression reaches order 3 with the order-4 spline, whose
    moments through order 3 are constant in u)."""
    f = es.get_function("cos4exp")
    grid = np.linspace(0.5, 1.0, 201)
    single = es.estimate_order(f, B2, None, W_GEOM, grid)
    combo3 = es.estimate_order(f, B2, es.solve_coefficients(3), W_GEOM, grid)
    ok_single = abs(single.fitted_order - 1.0) <= 0.15
    ok_combo = abs(combo3.fitted_order - 3.0) <= 0.2
    _report(
        6,
        "order regression (single 1.0 +/- 0.15, p=3 3.0 +/- 0.2)",
        ok_single and ok_combo,
        f"single={single.fitted_order:.3f}, p3={combo3.fitted_order:.3f}",
    )


def test_criterion_7_exactness_identities():
    """Constant reproduction, (I_w log)(x) - log x = 1/(2w), and exact
    cancellation of the p=2 combination on log, all to 1e-12."""
    rng = np.random.default_rng(20260808)
    log = es.get_function("log")
    scheme = es.solve_coefficients(2)
    ok = True
    for _ in range(40):
        x = float(rng.uniform(0.3, 4.0))
        w = float(rng.uniform(2.0, 90.0))
        for kernel in (B2, B4):
            for c in (-3.0, 0.0, 1.0, 7.5):
                got = es.apply(es.get_function(f"const:{c}"), kernel, es.OperatorConfig(w), x)
                ok &= abs(got - c) < 1e-12
            err = es.apply(log, kernel, es.OperatorConfig(w), x) - math.log(x)
            ok &= abs(err - 1.0 / (2.0 * w)) < 1e-12
        ok &= abs(es.apply_combo(log, B2, scheme, w, x) - math.log(x)) < 1e-12
    _report(7, "exactness identities to 1e-12", ok)


def test_criterion_8_bound_dominance():
    """50 random (f, w, x) configurations: every first-order report (both
    splines) and every vanishing-moment report at r = 2 (order-4 spline,
    the configuration whose satisfaction the interface contract pins) has
    lhs <= rhs; the order-2 spline at r = 3 raises a precondition error
    rather than a bound violation.

    The vanishing-moment reports deliberately use the order-4 spline: the
    stated right side's constant 1 + (r+2) M_{r+1} drops intermediate
    moments, and with the order-2 spline the exact cubic remainder of
    (log x)^3 exceeds it near half-integer w*log(x) (demonstrated in
    test_analysis::test_b2_order_two_constant_undercounts)."""
    rng = np.random.default_rng(7)
    fns = [es.get_function(n) for n in ("log", "log2", "log3", "cos4exp", "sinmix")]
    ok = True
    for _ in range(50):
        f = fns[rng.integers(len(fns))]
        kernel = (B2, B4)[rng.integers(2)]
        w = float(rng.uniform(5.0, 100.0))
        lo, hi = f.eval_interval
        x = float(rng.uniform(lo, hi))
        rep1 = es.combo_bound(f, kernel, es.solve_coefficients(1), w, x)
        rep2 = es.vanishing_moment_bound(f, B4, w, x, 2)
        ok &= bool(rep1.satisfied) and bool(rep2.satisfied)
    raised = False
    try:
        es.vanishing_moment_bound(es.get_function("log3"), B2, 10.0, math.exp(0.05), 3)
    except es.MomentPreconditionError:
        raised = True
    ok &= raised
    _report(8, "bound dominance on 50 random configurations", ok)


def test_criterion_9_sample_pipeline():
    """Reconstruction from an emitted sample file equals direct evaluation
    to 1e-14 on a 101-point grid."""
    f = es.get_function("cos4exp")
    xs = list(np.linspace(0.5, 1.0, 101))
    series = es.SampleSeries.covering(f, B2, 15.0, xs)
    buf = io.StringIO()
    es.write_sample_csv(buf, series)
    buf.seek(0)
    loaded = es.read_sample_csv(buf)
    cfg = es.OperatorConfig(15.0)
    worst = max(
        abs(es.apply_from_samples(loaded, B2, x) - es.apply(f, B2, cfg, x)) for x in xs
    )
    _report(9, "sample pipeline equals direct evaluation to 1e-14",
            worst < 1e-14, f"worst {worst:.2e}")
