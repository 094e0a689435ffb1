"""Convergence studies, expansion predictions, bound checks, error tables."""

import dataclasses
import math
import re
import statistics
import sys

import numpy as np
import pytest

from expsamp.analysis import (
    MomentPreconditionError,
    _k_upper,
    _linspace,
    _widened_interval,
    combo_bound,
    estimate_order,
    expansion_prediction,
    make_table,
    sup_norm,
    vanishing_moment_bound,
    voronovskaya_check,
)
from expsamp.combinations import apply_combo, solve_coefficients
from expsamp.functions import TestFunction, get_function
from expsamp.kernels import parse_kernel_spec
from expsamp.operators import OperatorConfig, _apply_with_cache, apply

B2 = parse_kernel_spec("bspline:2")
B4 = parse_kernel_spec("bspline:4")
COMBO = parse_kernel_spec("combo:4:e^1:e^2")
W_GEOM = [10.0, 20.0, 40.0, 80.0, 160.0]
LOG = get_function("log")
P1 = solve_coefficients(1)


class TestSupNorm:
    def test_known_maximum(self):
        assert sup_norm(lambda x: math.sin(x), (0.0, math.pi)) == pytest.approx(1.0, abs=1e-6)

    def test_endpoint_maximum(self):
        assert sup_norm(lambda x: x * x, (-2.0, 1.5)) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize(
        "fn, spec, x, j",
        [
            ("cos4exp", "combo:4:e^1:e^2", 0.75, 3),
            ("cos4exp", "combo:4:e^1:e^2", 1.2, 2),
            ("cos4exp", "bspline:6", 0.75, 2),
            ("sinmix", "combo:4:e^1:e^2", math.pi / 2, 3),
        ],
    )
    def test_never_below_dense_sup(self, fn, spec, x, j):
        """On the norms of a bound at w = 5, the sup is at least the largest
        |theta^j f| on a 200,001-point grid.  These are the cases where an
        even 81-point refinement of the grid maximum reads lowest, by 5.7e-8
        to 8.5e-7 relative."""
        f = get_function(fn)
        g = f.theta(j)
        interval = _widened_interval(f, parse_kernel_spec(spec), 5.0, x)
        dense = max(abs(g(t)) for t in _linspace(*interval, 200001))
        assert sup_norm(g, interval) >= dense

    @pytest.mark.parametrize(
        "interval, message",
        [
            ((0.0, math.nan), "got [0.0, nan]"),
            ((0.0, math.inf), "got [0.0, inf]"),
            ((-math.inf, 1.0), "got [-inf, 1.0]"),
            ((1.0, 0.0), "got [1.0, 0.0]"),
        ],
        ids=["nan-end", "inf-end", "minus-inf-end", "reversed"],
    )
    def test_refuses_what_it_cannot_measure(self, interval, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            sup_norm(lambda x: x, interval)


class TestKUpperLogFamily:
    @pytest.mark.parametrize("name", ["log", "log2", "log3", "const:-2.5"])
    @pytest.mark.parametrize(
        "interval, x", [((0.1, 0.4), 0.2), ((2.0, 5.0), 3.0), ((0.5, 3.0), 1.0)],
        ids=["below-1", "above-1", "around-1"],
    )
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_exact_sup_at_the_ends(self, name, interval, x, r):
        """theta^(r+1) f = a (log x)^q has its sup at an end of the norms'
        interval: K_upper is eps times the larger end value, exactly 0 for
        r + 1 > p, and never below the sampled sup."""
        f = dataclasses.replace(get_function(name), eval_interval=interval)
        eps = 0.01
        value, _ = _k_upper(f, B2, r, eps, 20.0, x)
        lo, hi = _widened_interval(f, B2, 20.0, x)
        theta = f.theta(r + 1)
        assert value == eps * max(abs(theta(lo)), abs(theta(hi)))
        assert value >= eps * sup_norm(theta, (lo, hi))
        if r + 1 > f.log_monomial[1]:
            assert value == 0.0


class TestVoronovskaya:
    def test_log_single_rate_exact(self):
        """For f = log the scaled error is 1/2 at every rate: theta f = 1,
        the first moment vanishes, and the expansion terminates."""
        study = voronovskaya_check(get_function("log"), B2, 2.0, W_GEOM)
        assert study.predicted_limit == pytest.approx(0.5, abs=1e-13)
        for s in study.scaled_errors:
            assert s == pytest.approx(0.5, abs=1e-11)
        assert study.deviations[-1] < 1e-11

    def test_first_order_constant_b4(self):
        study = voronovskaya_check(get_function("log2"), B4, 2.0, W_GEOM)
        want = get_function("log2").theta(1)(2.0) / 2.0
        assert study.predicted_limit == pytest.approx(want, rel=1e-12)
        rel = study.deviations[-1] / abs(study.predicted_limit)
        assert rel < 0.02

    def test_second_order_combination_b4(self):
        f = get_function("log3")
        study = voronovskaya_check(f, B4, math.e, W_GEOM, solve_coefficients(2))
        assert study.predicted_limit == pytest.approx(-f.theta(2)(math.e) / 6.0, rel=1e-12)
        assert study.deviations[-1] / abs(study.predicted_limit) < 0.02

    def test_third_order_combination_b4(self):
        f = get_function("log3")
        study = voronovskaya_check(f, B4, math.e, W_GEOM, solve_coefficients(3))
        assert study.predicted_limit == pytest.approx(f.theta(3)(math.e) / 48.0, rel=1e-12)
        assert study.deviations[-1] / abs(study.predicted_limit) < 0.02

    def test_translated_kernel_constant(self):
        f = get_function("log2")
        study = voronovskaya_check(f, COMBO, 2.0, W_GEOM, solve_coefficients(2))
        assert study.predicted_limit == pytest.approx(f.theta(2)(2.0) / 3.0, rel=1e-12)
        assert study.deviations[-1] / abs(study.predicted_limit) < 0.02

    def test_scaled_errors_cauchy_at_top(self):
        """Successive w^q-scaled errors stabilise: the last two ratios are
        within 5% of one another for the oscillatory function."""
        f = get_function("cos4exp")
        study = voronovskaya_check(f, B4, 0.75, W_GEOM)
        ratio = study.scaled_errors[-1] / study.scaled_errors[-2]
        assert abs(ratio - 1.0) < 0.05

    @pytest.mark.parametrize(
        "fn, kernel, x",
        [("log2", B4, 2.0), ("cos4exp", B2, 0.75), ("log", COMBO, 1.3)],
    )
    def test_no_scheme_is_the_p1_scheme(self, fn, kernel, x):
        f = get_function(fn)
        plain = voronovskaya_check(f, kernel, x, W_GEOM)
        assert plain == voronovskaya_check(f, kernel, x, W_GEOM, solve_coefficients(1))

    def test_w_list_validation(self):
        with pytest.raises(ValueError):
            voronovskaya_check(get_function("log"), B2, 2.0, [10.0, 20.0, 40.0])
        with pytest.raises(ValueError):
            voronovskaya_check(get_function("log"), B2, 2.0, [10.0, 10.0, 20.0, 40.0])


class TestDomainGuards:
    """The analysis entry points check w and x first, with the operator's
    own messages, instead of failing inside log() or the kernel window."""

    CALLS = {
        "voronovskaya_check": lambda w, x: voronovskaya_check(LOG, B2, x, [w, 2 * w, 4 * w, 8 * w]),
        "voronovskaya_check/p=2": lambda w, x: voronovskaya_check(
            LOG, B2, x, [w, 2 * w, 4 * w, 8 * w], solve_coefficients(2)
        ),
        "expansion_prediction": lambda w, x: expansion_prediction(LOG, B2, P1, w, x, 1),
        "vanishing_moment_bound": lambda w, x: vanishing_moment_bound(LOG, B4, w, x, 2),
        "combo_bound": lambda w, x: combo_bound(LOG, B2, solve_coefficients(2), w, x),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_point(self, name, x):
        with pytest.raises(ValueError, match=f"evaluation point must be positive and finite, got {x}"):
            self.CALLS[name](10.0, x)

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("w", [0.0, math.inf, math.nan])
    def test_rate(self, name, w):
        with pytest.raises(ValueError, match=f"sampling rate w must be positive and finite, got {w}"):
            self.CALLS[name](w, 2.0)

    def test_rate_list(self):
        with pytest.raises(ValueError, match="sampling rate w must be positive and finite, got nan"):
            estimate_order(LOG, B2, None, [10.0, 20.0, math.nan, 40.0, 80.0], [1.0, 2.0])


class TestMissingMellinDerivative:
    """Each study asks f for the Mellin derivatives it uses, and a missing
    one is refused by ``TestFunction.theta`` with the function and the order
    named: here the second, which each call below needs."""

    THETA_ONE = TestFunction(
        f=math.log, mellin_derivs=(lambda x: 1.0,), label="theta-one", eval_interval=(0.5, 2.0)
    )
    CALLS = {
        "voronovskaya_check": lambda f: voronovskaya_check(f, B2, 2.0, W_GEOM, solve_coefficients(2)),
        "combo_bound": lambda f: combo_bound(f, B2, P1, 20.0, 1.5),
        "vanishing_moment_bound": lambda f: vanishing_moment_bound(f, B4, 20.0, 1.5, 2),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_refused_with_the_order_named(self, name):
        with pytest.raises(ValueError, match="theta-one: Mellin derivative of order 2 not available"):
            self.CALLS[name](self.THETA_ONE)



class TestNonFiniteDerivative:
    """A (theta^j f)(x) enters a prediction only as a finite float: one that
    overflows, is not finite, or cannot be evaluated is refused with the
    function, j and x named."""

    THETAS = {
        "inf": lambda x: math.inf,
        "nan": lambda x: math.nan,
        "overflow": lambda x: math.exp(1e3),
        "domain": lambda x: math.sin(math.inf),
    }
    CALLS = {
        "voronovskaya_check": lambda f: voronovskaya_check(f, B2, 2.0, W_GEOM, solve_coefficients(2)),
        "expansion_prediction": lambda f: expansion_prediction(f, B2, P1, 20.0, 2.0, 2),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize(
        "theta, message",
        [
            ("inf", "theta^2 odd at x=2 is inf, beyond the float range"),
            ("nan", "theta^2 odd at x=2 is nan, beyond the float range"),
            ("overflow", "theta^2 odd at x=2 is inf, beyond the float range"),
            ("domain", "theta^2 odd cannot be evaluated at x=2 (math domain error)"),
        ],
    )
    def test_refused_with_f_j_and_x_named(self, name, theta, message):
        f = TestFunction(f=math.log, mellin_derivs=(lambda x: 1.0, self.THETAS[theta]),
                         label="odd", eval_interval=(0.5, 2.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.CALLS[name](f)


class TestEstimateOrder:
    def test_single_rate_order_one(self):
        f = get_function("cos4exp")
        grid = np.linspace(0.5, 1.0, 201)
        study = estimate_order(f, B2, None, W_GEOM, grid)
        assert study.fitted_order == pytest.approx(1.0, abs=0.15)
        assert study.fitted_constant > 0.0

    @pytest.mark.parametrize("fn, kernel", [("cos4exp", B2), ("log2", B4), ("const:3", B2)])
    def test_no_scheme_is_the_p1_scheme(self, fn, kernel):
        f = get_function(fn)
        grid = np.linspace(0.5, 1.0, 51).tolist()
        plain = estimate_order(f, kernel, None, W_GEOM, grid)
        assert plain == estimate_order(f, kernel, solve_coefficients(1), W_GEOM, grid)

    def test_order_three_when_moments_u_independent(self):
        """With the order-4 spline the brackets through order 3 are constant
        in u, so the p = 3 combination genuinely reaches order 3."""
        f = get_function("cos4exp")
        grid = np.linspace(0.5, 1.0, 201)
        study = estimate_order(f, B4, solve_coefficients(3), W_GEOM, grid)
        assert study.fitted_order == pytest.approx(3.0, abs=0.2)

    def test_bspline2_combination_capped_by_oscillating_moment(self):
        """The order-2 spline has m_2(chi, u) = {log u}(1 - {log u}), which
        varies with u; the surviving w^-2 term caps the p = 3 combination at
        order 2 in sup norm even though the coefficient system removes the
        constant part.  Verified against the closed-form error for
        f = (log x)^2 in test_combinations; here the regression sees it."""
        f = get_function("cos4exp")
        grid = np.linspace(0.5, 1.0, 201)
        study = estimate_order(f, B2, solve_coefficients(3), W_GEOM, grid)
        assert 1.7 < study.fitted_order < 2.4

    def test_exact_reproduction_reports_infinite_order(self):
        f = get_function("log")
        grid = np.linspace(0.5, 2.0, 101)
        study = estimate_order(f, B2, solve_coefficients(2), W_GEOM, grid)
        assert math.isinf(study.fitted_order)
        assert not math.isnan(study.fitted_order)

    def test_needs_five_rates(self):
        with pytest.raises(ValueError):
            estimate_order(get_function("log"), B2, None, [10.0, 20.0, 40.0, 80.0], [1.0])

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the fit is written out as Python 3.11's statistics sums it")
    @pytest.mark.parametrize("fn, kernel, p, w_list", [
        ("cos4exp", B2, None, W_GEOM), ("cos4exp", B4, 3, W_GEOM),
        ("log3", B2, 3, [9.0, 15.3, 27.0, 44.1, 80.0, 133.3, 200.0]), ("sinmix", COMBO, 2, W_GEOM),
    ])
    def test_fit_is_the_311_linear_regression(self, fn, kernel, p, w_list):
        """On 3.11 the fitted order and constant equal, bit for bit, what
        statistics.linear_regression gives for the top half of the rates."""
        grid = np.linspace(0.6, 0.95, 41).tolist()
        study = estimate_order(get_function(fn), kernel, p and solve_coefficients(p), w_list, grid)
        half = (len(w_list) + 1) // 2
        slope, intercept = statistics.linear_regression(
            [math.log(w) for w in study.w_list[-half:]],
            [math.log(e) for e in study.errors[-half:]])
        assert (study.fitted_order, study.fitted_constant) == (-slope, math.exp(intercept))

    def test_rates_with_one_float_log_refused(self):
        """Rates one ulp apart share their float log, and a fit through
        them would divide by zero."""
        w_list = [1000.0 + i * 1.2e-13 for i in (0, 1, 2, 3, 5)]
        with pytest.raises(ValueError, match=r"share one float log; no order can be fitted"):
            estimate_order(get_function("cos4exp"), B2, None, w_list, [0.7, 0.8])


W_APART = [10.0, 13.0, 17.0, 22.0, 29.0]  # no i*w of one entry equals j*w' of another


class TestOneRateTable:
    """Each study evaluates every distinct rate of its rate list once: on a
    doubling list 2w of one entry is the next entry's w.  Operator sums are
    counted at the one sum, ``_apply_with_cache``, as ``apply_grid`` calls it
    for the rate table."""

    @pytest.fixture
    def sums(self, monkeypatch):
        calls = []

        def spy(kernel, w, x, mean):
            calls.append((w, x))
            return _apply_with_cache(kernel, w, x, mean)

        monkeypatch.setattr("expsamp.operators._apply_with_cache", spy)
        return calls

    @pytest.mark.parametrize(
        "p, w_list, per_point",
        [(2, W_GEOM, 6), (3, W_GEOM, 11), (2, W_APART, 10)],
        ids=["p2-doubling", "p3-doubling", "p2-apart"],
    )
    def test_estimate_order_sums(self, sums, p, w_list, per_point):
        grid = [0.6, 0.75, 0.9]
        estimate_order(get_function("cos4exp"), B2, solve_coefficients(p), w_list, grid)
        assert len(sums) == per_point * len(grid)
        assert len(set(sums)) == len(sums)

    def test_voronovskaya_sums(self, sums):
        voronovskaya_check(get_function("log3"), B4, 1.7, [10.0, 20.0, 40.0, 80.0],
                           solve_coefficients(2))
        assert sorted(w for w, _ in sums) == [10.0, 20.0, 40.0, 80.0, 160.0]

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("w_list", [W_GEOM, W_APART], ids=["doubling", "apart"])
    def test_estimate_order_errors_are_per_entry(self, p, w_list):
        """The shared table gives, bit for bit, the sup errors of the
        combined operator evaluated entry by entry."""
        f, scheme = get_function("sinmix"), solve_coefficients(p)
        grid = np.linspace(*f.eval_interval, 7).tolist()
        study = estimate_order(f, B4, scheme, w_list, grid)
        want = tuple(max(abs(apply_combo(f, B4, scheme, w, x) - f.f(x)) for x in grid)
                     for w in w_list)
        assert study.errors == want

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("w_list", [W_GEOM, W_APART], ids=["doubling", "apart"])
    def test_voronovskaya_errors_are_per_entry(self, p, w_list):
        f, scheme, x = get_function("cos4exp"), solve_coefficients(p), 0.8
        study = voronovskaya_check(f, COMBO, x, w_list, scheme)
        diffs = [apply_combo(f, COMBO, scheme, w, x) - f.f(x) for w in w_list]
        assert study.errors == tuple(abs(d) for d in diffs)
        assert study.scaled_errors == tuple(w ** p * d for w, d in zip(w_list, diffs))


class TestExpansionPrediction:
    def test_exact_for_log_first_order(self):
        """The expansion is exact for f = log: prediction equals the true
        error 1/(2w)."""
        f = get_function("log")
        for w in (5.0, 40.0):
            for x in (0.7, 1.9):
                pred = expansion_prediction(f, B2, P1, w, x, 1)
                true = apply(f, B2, OperatorConfig(w), x) - math.log(x)
                assert pred == pytest.approx(1.0 / (2.0 * w), abs=1e-13)
                assert pred == pytest.approx(true, abs=1e-12)

    def test_first_order_term_for_vanishing_first_moment(self):
        """Kernels with m_1 = 0 predict (theta f)(x)/(2w) at order 1."""
        f = get_function("cos4exp")
        x, w = 0.8, 25.0
        assert expansion_prediction(f, B4, P1, w, x, 1) == pytest.approx(
            f.theta(1)(x) / (2.0 * w), rel=1e-10
        )

    def test_exact_for_quadratic_log(self):
        """f = (log x)^2 is a Mellin polynomial of degree 2, so the r = 2
        prediction matches the brute-force operator error to round-off."""
        f = get_function("log2")
        for x in (1.0, 1.3, 2.0):
            for w in (25.0, 50.0, 100.0):
                actual = apply(f, B2, OperatorConfig(w), x) - f.f(x)
                assert expansion_prediction(f, B2, P1, w, x, 2) == pytest.approx(
                    actual, abs=1e-12
                )

    @pytest.mark.parametrize("name,x", [("cos4exp", 0.8), ("log3", 1.7)])
    def test_residual_shrinks_faster_than_wr(self, name, x):
        """|actual - predicted| * w^r keeps a ratio < 0.75 per doubling of w,
        with brute-force operator evaluation as the oracle."""
        f = get_function(name)
        r = 2
        prev = None
        for w in (25.0, 50.0, 100.0, 200.0):
            actual = apply(f, B2, OperatorConfig(w), x) - f.f(x)
            resid = abs(actual - expansion_prediction(f, B2, P1, w, x, r)) * w ** r
            if prev is not None:
                assert resid < 0.75 * prev
            prev = resid

    def test_large_rate_no_overflow(self):
        """u = x^w is handled in log scale; x = 2, w = 2000 would overflow."""
        val = expansion_prediction(get_function("log2"), B4, P1, 2000.0, 2.0, 2)
        assert math.isfinite(val)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="expansion order r=0 must be >= 1"):
            expansion_prediction(get_function("log"), B2, P1, 10.0, 1.0, 0)
        with pytest.raises(ValueError, match="log: Mellin derivative of order 4 not available"):
            expansion_prediction(get_function("log"), B2, P1, 10.0, 1.0, 4)

    @pytest.mark.parametrize(
        "fn, spec, x, w, r, want",
        [
            ("cos4exp", "bspline:2", 0.8, 25.0, 2, 0.053757888770697176),
            ("log3", "bspline:4", 1.7, 40.0, 3, 0.011233741844776376),
            ("sinmix", "combo:4:e^1:e^2", 2.6, 30.0, 2, -0.42313176538998315),
            ("log2", "bspline:3", 1.3, 15.0, 1, 0.017490950964499406),
        ],
    )
    def test_p1_values_pinned(self, fn, spec, x, w, r, want):
        """At p = 1 the value is, bit for bit, the single-rate expansion
        sum_j (theta^j f)(x) bracket_j(x^w) / ((j+1)! w^j): the coefficient 1
        and the rate 1*w add no rounding."""
        assert expansion_prediction(get_function(fn), parse_kernel_spec(spec), P1, w, x, r) == want

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize(
        "fn, kernel, x, w, r",
        [("cos4exp", B2, 0.8, 25.0, 2), ("log3", B4, 1.7, 40.0, 3), ("sinmix", COMBO, 2.6, 30.0, 2),
         ("log3", B2, 1.7, 20.0, 3)],
    )
    def test_combination_is_the_sum_over_rates(self, p, fn, kernel, x, w, r):
        """sum_i c_i times the p = 1 expansion at rate iw.  The terms cancel
        by design, so the tolerance is 1e-15 of the sum of their sizes."""
        f = get_function(fn)
        scheme = solve_coefficients(p)
        terms = [float(c) * expansion_prediction(f, kernel, P1, i * w, x, r)
                 for i, c in enumerate(scheme.coeffs, start=1)]
        got = expansion_prediction(f, kernel, scheme, w, x, r)
        assert abs(got - math.fsum(terms)) <= 1e-15 * math.fsum(abs(t) for t in terms)


class TestBoundsSubtractTheExpansion:
    """Both bounds measure their left side as the operator error minus
    ``expansion_prediction``."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize(
        "fn, kernel, w, x",
        [("cos4exp", B2, 15.0, 0.75), ("log3", B4, 20.0, 1.5), ("sinmix", COMBO, 30.0, 2.6)],
    )
    def test_combo_bound(self, p, fn, kernel, w, x):
        f = get_function(fn)
        scheme = solve_coefficients(p)
        rep = combo_bound(f, kernel, scheme, w, x)
        value = apply_combo(f, kernel, scheme, w, x)
        assert rep.lhs == abs(value - f.f(x) - expansion_prediction(f, kernel, scheme, w, x, 1))

    @pytest.mark.parametrize(
        "fn, kernel, w, x, r",
        [("log3", B4, 12.0, 1.5, 2), ("cos4exp", B4, 25.0, 0.8, 1), ("log2", B2, 20.0, 1.3, 1),
         ("sinmix", B2, 40.0, 2.6, 2)]
        + [
            (fn, parse_kernel_spec(spec), 20.0, math.exp(-7 / 20.0), r)
            for spec, r_max in (("bspline:1", 3), ("bspline:2", 3), ("bspline:4", 2))
            for fn in ("log2", "log3", "cos4exp")
            for r in range(1, r_max + 1)
            if not (fn == "cos4exp" and r == 3)  # cos4exp has no theta^4
        ],
    )
    def test_vanishing_moment_bound(self, fn, kernel, w, x, r):
        """The p = 1 combination's value is ``apply``'s, bit for bit.  At
        w log x = -7, m_1 and m_2 of bspline:1 and bspline:2 vanish, so r = 3
        is admissible there; its K-functional asks for theta^4, which no
        built-in carries and which is exactly 0 for the log family."""
        f = get_function(fn)
        if f.log_monomial is not None:
            f = dataclasses.replace(f, mellin_derivs=f.mellin_derivs + (lambda x: 0.0,))
        rep = vanishing_moment_bound(f, kernel, w, x, r)
        value = apply(f, kernel, OperatorConfig(w), x)
        assert rep.lhs == abs(value - f.f(x) - expansion_prediction(f, kernel, P1, w, x, r))


class TestFirstOrderBound:
    """The first-order estimate: ``combo_bound`` of the p = 1 scheme."""

    def test_log_lhs_vanishes(self):
        """The expansion is exact on log, so the measured left side is zero
        and any right side dominates."""
        rep = combo_bound(get_function("log"), B2, P1, 20.0, 1.0)
        assert rep.lhs < 1e-12
        assert rep.satisfied

    def test_oscillatory_satisfied(self):
        rep = combo_bound(get_function("cos4exp"), B2, P1, 15.0, 0.75)
        assert rep.satisfied
        assert rep.lhs <= rep.rhs

    def test_random_configurations_dominated(self):
        rng = np.random.default_rng(20260808)
        fns = [get_function(n) for n in ("log", "log2", "log3", "cos4exp", "sinmix")]
        for _ in range(25):
            f = fns[rng.integers(len(fns))]
            kernel = (B2, B4)[rng.integers(2)]
            w = float(rng.uniform(5.0, 100.0))
            lo, hi = f.eval_interval
            x = float(rng.uniform(lo, hi))
            rep = combo_bound(f, kernel, P1, w, x)
            assert rep.satisfied, (f.label, kernel.label, w, x)

    def test_no_usable_candidate_rejected(self):
        """A function without a second Mellin derivative leaves nothing to
        bound the K-functional with: the surrogate is g = f itself."""
        bare = TestFunction(
            f=lambda x: math.log(x),
            mellin_derivs=(lambda x: 1.0,),
            label="bare-log",
            eval_interval=(0.5, 2.0),
        )
        with pytest.raises(ValueError, match="bare-log: Mellin derivative of order 2 not available"):
            combo_bound(bare, B2, P1, 10.0, 1.0)


class TestVanishingMomentBound:
    def test_b4_order_two_runs_and_holds(self):
        rep = vanishing_moment_bound(get_function("log3"), B4, 12.0, 1.5, 2)
        assert rep.satisfied
        assert rep.lhs <= rep.rhs

    def test_b2_order_two_admissible(self):
        """m_1 vanishes identically for the symmetric splines, so r = 2
        passes the precondition even for order 2 and a report is emitted."""
        rep = vanishing_moment_bound(get_function("log3"), B2, 12.0, 1.5, 2)
        assert rep.satisfied is not None
        assert rep.lhs >= 0.0 and rep.rhs > 0.0

    def test_b2_order_two_constant_undercounts(self):
        """The stated right side uses 1 + (r+2) M_{r+1}, which drops the
        intermediate-moment terms of the cell integral of |u - log x|^3
        (the first-order estimate keeps them: 1 + 3 M_1 + 3 M_2).  For the
        order-2 spline the exact cubic remainder of (log x)^3 at
        half-integer w*log(x) exceeds that right side by ~25%, so the
        report honestly comes back unsatisfied there.  The order-4 spline
        keeps a structural margin and always satisfies it (previous test
        and the acceptance suite)."""
        f = get_function("log3")
        w = 40.0
        x = math.exp((math.floor(w * 0.51) + 0.5) / w)  # w*log(x) at a half-integer
        rep = vanishing_moment_bound(f, B2, w, x, 2)
        assert rep.satisfied is False
        assert 1.1 < rep.lhs / rep.rhs < 1.4

    def test_b2_order_three_precondition_fails(self):
        """m_2 of the order-2 spline is 1/4 at half-integer log u."""
        with pytest.raises(MomentPreconditionError, match="m_2"):
            vanishing_moment_bound(get_function("log3"), B2, 10.0, math.exp(0.05), 3)

    def test_log_with_order_two(self):
        rep = vanishing_moment_bound(get_function("log"), B4, 20.0, 1.0, 2)
        assert rep.lhs <= rep.rhs + 1e-12


class TestComboBound:
    def test_p2_not_applicable(self):
        """sum c_i / i = 0 for the order-raising schemes, which zeroes the
        stated right side; the report is emitted but marked not applicable."""
        rep = combo_bound(get_function("log2"), B4, solve_coefficients(2), 20.0, 2.0)
        assert rep.satisfied is None
        assert "not applicable" in rep.surrogate_desc

    def test_p2_log_lhs_zero(self):
        rep = combo_bound(get_function("log"), B2, solve_coefficients(2), 20.0, 2.0)
        assert rep.lhs < 1e-12


class TestErrorTable:
    def test_constant_rows_zero(self):
        table = make_table(get_function("const:1"), B2, solve_coefficients(2), 10.0, [0.7, 1.3])
        for row in table:
            assert all(v < 1e-13 for v in row)

    def test_columns_are_the_single_operators(self):
        """Column i is |f - I_{iw} f| with I_{iw} exactly as apply gives it."""
        f = get_function("cos4exp")
        xs = [0.6, 0.75, 0.8, 0.9, 0.95]
        table = make_table(f, B2, solve_coefficients(3), 15.0, xs)
        for x, row in zip(xs, table):
            for i in range(1, 4):
                assert row[i - 1] == abs(apply(f, B2, OperatorConfig(i * 15.0), x) - f.f(x))

    def test_empty_point_list_refused(self):
        with pytest.raises(ValueError, match=r"^empty point list$"):
            make_table(get_function("cos4exp"), B2, solve_coefficients(2), 15.0, [])
