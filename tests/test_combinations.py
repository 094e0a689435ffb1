"""Coefficient system solutions and combined-operator evaluation."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from expsamp.combinations import (
    CombinationScheme,
    apply_combo,
    solve_coefficients,
)
from expsamp.functions import get_function
from expsamp.kernels import parse_kernel_spec
from expsamp.moments import kantorovich_bracket_at_log
from expsamp.operators import OperatorConfig, apply

B2 = parse_kernel_spec("bspline:2")
B4 = parse_kernel_spec("bspline:4")
COMBO = parse_kernel_spec("combo:4:e^1:e^2")


class TestSolveCoefficients:
    def test_known_solutions(self):
        assert solve_coefficients(1).coeffs == (Fraction(1),)
        assert solve_coefficients(2).coeffs == (Fraction(-1), Fraction(2))
        assert solve_coefficients(3).coeffs == (Fraction(1, 2), Fraction(-4), Fraction(9, 2))

    def test_p4_solution(self):
        """The p = 4 weights, checked independently of the closed form by
        the exact residuals below."""
        assert solve_coefficients(4).coeffs == (
            Fraction(-1, 6),
            Fraction(4),
            Fraction(-27, 2),
            Fraction(32, 3),
        )

    @pytest.mark.parametrize("p", range(1, 9))
    def test_system_residuals_exact(self, p):
        """sum c_i = 1 and sum c_i / i^k = 0 for k < p, in exact arithmetic."""
        scheme = solve_coefficients(p)
        assert scheme.power_sum(0) == 1
        for k in range(1, p):
            assert scheme.power_sum(k) == 0

    @pytest.mark.parametrize("p", range(1, 9))
    def test_closed_form_cross_check(self, p):
        """c_i = (-1)^(p-i) i^p / (i! (p-i)!) solves the same system."""
        scheme = solve_coefficients(p)
        for i, c in enumerate(scheme.coeffs, start=1):
            want = Fraction((-1) ** (p - i) * i ** p, math.factorial(i) * math.factorial(p - i))
            assert c == want

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            solve_coefficients(0)
        with pytest.raises(ValueError):
            solve_coefficients(9)

    def test_scheme_length_checked(self):
        with pytest.raises(ValueError):
            CombinationScheme(p=2, coeffs=(Fraction(1),))

    @pytest.mark.parametrize("p", range(1, 9))
    def test_combine_rounds_each_coefficient_once(self, p):
        """combine sums float(c_i) * v_i with fsum, as written; the floats
        are no field, so repr, == and hash see the exact coefficients only."""
        scheme = solve_coefficients(p)
        values = [math.sin(i) * 10 ** (i % 3) for i in range(1, p + 1)]
        want = math.fsum(float(c) * v for c, v in zip(scheme.coeffs, values))
        assert scheme.combine(values) == want
        assert repr(scheme) == f"CombinationScheme(p={p}, coeffs={scheme.coeffs!r})"
        same = CombinationScheme(p=p, coeffs=scheme.coeffs)
        assert same == scheme and hash(same) == hash(scheme)
        assert [f.name for f in dataclasses.fields(scheme)] == ["p", "coeffs"]

    @pytest.mark.parametrize("values, want", [
        # terms +inf and -inf, where fsum raises "-inf + inf in fsum": 1/2 - 4 + 9/2 = 1
        pytest.param([1e308, 1e308, 1e308], 1e308, id="values0"),
        # finite terms, a partial sum past the range: the float products are
        # 8e307, 1e308 and -1e308, and their sum is returned, as fsum would
        pytest.param([1.6e308, -2.5e307, -1e308 / 4.5], 8e307, id="values1"),
        # the sum itself overflows
        pytest.param([1.7e308, 0.0, 3.9e307], None, id="values2"),
    ])
    def test_combine_overflow_names_p(self, values, want):
        """Only a combination whose value leaves the float range is refused."""
        scheme = solve_coefficients(3)
        if want is not None:
            assert scheme.combine(values) == want
        with pytest.raises(ValueError, match=re.escape(
                "the p=3 combination overflows at values [1.7e+308, 0.0, 3.9e+307]")):
            scheme.combine([1.7e308, 0.0, 3.9e307])

    def test_rates(self):
        """w, 2w, ..., pw in coefficient order; on a doubling list 2w is
        the next rate as a float, which lets studies share it."""
        assert solve_coefficients(1).rates(10.37) == (10.37,)
        assert solve_coefficients(3).rates(10.37) == (10.37, 20.74, 3 * 10.37)


class TestApplyCombo:
    def test_constant_reproduction(self):
        rng = np.random.default_rng(12)
        f = get_function("const:4.25")
        for p in (1, 2, 3):
            scheme = solve_coefficients(p)
            for _ in range(20):
                x = rng.uniform(0.3, 4.0)
                w = rng.uniform(2.0, 60.0)
                assert abs(apply_combo(f, B2, scheme, w, x) - 4.25) < 1e-12

    def test_p2_exact_on_log(self):
        """Both rates carry error 1/(2 i w), and -1/(2w) + 2/(4w) = 0."""
        f = get_function("log")
        scheme = solve_coefficients(2)
        for w, x in [(10.0, 1.0), (7.0, 0.6), (23.0, 2.9)]:
            assert abs(apply_combo(f, B2, scheme, w, x) - math.log(x)) < 1e-12

    def test_p1_is_the_single_operator(self):
        f = get_function("cos4exp")
        scheme = solve_coefficients(1)
        for w, x in [(15.0, 0.8), (9.0, 0.55), (40.0, 0.97)]:
            assert apply_combo(f, B2, scheme, w, x) == apply(f, B2, OperatorConfig(w), x)

    def test_matches_explicit_two_rate_form(self):
        """p = 2 is -I_w + 2 I_{2w}."""
        f = get_function("cos4exp")
        scheme = solve_coefficients(2)
        w, x = 15.0, 0.8
        want = -apply(f, B2, OperatorConfig(w), x) + 2.0 * apply(f, B2, OperatorConfig(2 * w), x)
        assert apply_combo(f, B2, scheme, w, x) == pytest.approx(want, abs=1e-14)

    def test_matches_explicit_three_rate_form(self):
        """p = 3 is (1/2) I_w - 4 I_{2w} + (9/2) I_{3w}."""
        f = get_function("sinmix")
        scheme = solve_coefficients(3)
        w, x = 10.0, 2.5
        want = (
            0.5 * apply(f, B4, OperatorConfig(w), x)
            - 4.0 * apply(f, B4, OperatorConfig(2 * w), x)
            + 4.5 * apply(f, B4, OperatorConfig(3 * w), x)
        )
        assert apply_combo(f, B4, scheme, w, x) == pytest.approx(want, abs=1e-14)

    def test_second_order_constant_on_quadratic_log(self):
        """For f = (log x)^2 the expansion terminates, so
        w^2 [(I_{w,2} f)(x) - f(x)] equals theta^2 f * Mbar_2 / 3! = -1/3
        at every rate, not just in the limit."""
        f = get_function("log2")
        scheme = solve_coefficients(2)
        for w in (10.0, 25.0, 40.0):
            for x in (0.7, 2.0):
                scaled = w ** 2 * (apply_combo(f, B4, scheme, w, x) - f.f(x))
                assert scaled == pytest.approx(-1.0 / 3.0, abs=1e-9)


class TestComboMomentBracket:
    """(sum_i c_i / i^k) times the order-k bracket: divided by (k+1)!, the
    coefficient on (theta^k f)(x) w^-k in the combined operator's expansion."""

    def test_b4_p2_second_order(self):
        """(c_1 + c_2/4) * 2 = (-1 + 1/2) * 2 = -1; dividing by 3! gives the
        -1/6 asymptotic constant."""
        scheme = solve_coefficients(2)
        for u in (0.5, 1.0, 2.0):
            bracket = kantorovich_bracket_at_log(B4, 2, math.log(u))
            assert float(scheme.power_sum(2)) * bracket == pytest.approx(-1.0, abs=1e-12)

    def test_b4_p3_third_order(self):
        """(1/2 - 4/8 + (9/2)/27) * 3 = 1/2; dividing by 4! gives 1/48."""
        scheme = solve_coefficients(3)
        for u in (0.5, 1.0, 2.0):
            bracket = kantorovich_bracket_at_log(B4, 3, math.log(u))
            assert float(scheme.power_sum(3)) * bracket == pytest.approx(0.5, abs=1e-12)

    def test_translated_kernel_p2(self):
        """(-1 + 1/2) * (-4) = 2; dividing by 3! gives the 1/3 constant."""
        scheme = solve_coefficients(2)
        for u in (0.5, 1.0, 2.0):
            bracket = kantorovich_bracket_at_log(COMBO, 2, math.log(u))
            assert float(scheme.power_sum(2)) * bracket == pytest.approx(2.0, abs=1e-12)

    def test_killed_orders_vanish(self):
        """sum c_i / i^k = 0 for k < p forces the bracket product to zero
        whenever the inner bracket is constant in u (first moments vanish
        for every built-in kernel)."""
        for kernel in (B2, B4, COMBO):
            for p in (2, 3):
                scheme = solve_coefficients(p)
                bracket = kantorovich_bracket_at_log(kernel, 1, math.log(1.7))
                assert float(scheme.power_sum(1)) * bracket == pytest.approx(0.0, abs=1e-12)
