"""Kernel family tests: spline values, transforms, translated combinations."""

import dataclasses
import math
import random
import re
from array import array
from fractions import Fraction

import numpy as np
import pytest

import exact
from expsamp.kernels import (
    MAX_ORDER,
    MAX_TRANSLATE_LOG,
    WINDOW_ULP_TOL,
    Kernel,
    KernelSpecError,
    _piece_table,
    parse_kernel_spec,
)
from expsamp.moments import algebraic_moment_at_log

ALL_TEST_KERNELS = [
    parse_kernel_spec("bspline:1"),
    parse_kernel_spec("bspline:2"),
    parse_kernel_spec("bspline:3"),
    parse_kernel_spec("bspline:4"),
    parse_kernel_spec("bspline:10"),
    parse_kernel_spec("combo:4:e^1:e^2"),
    parse_kernel_spec("combo:2:e^1/2:e^-1/2"),
]


def _sinc_power(n: int, t: float) -> float:
    """Closed-form transform of the order-n B-spline at the imaginary
    point it: (sin(t/2)/(t/2))^n, with the t = 0 limit equal to 1."""
    return 1.0 if t == 0.0 else (math.sin(0.5 * t) / (0.5 * t)) ** n


def _partition_residual(kernel: Kernel, x: float, w: float) -> float:
    a, b = kernel.log_support
    t = w * math.log(x)
    total = math.fsum(
        kernel.eval_log(t - k)
        for k in range(math.ceil(t - b) - 1, math.floor(t - a) + 2)
    )
    return abs(total - 1.0)


class TestBSplineValues:
    def test_order2_piecewise(self):
        """Order-2 spline is the hat 1 - |log u| on e^-1 < u < e."""
        kernel = parse_kernel_spec("bspline:2")
        assert kernel.eval_log(math.log(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert kernel.eval_log(math.log(math.exp(0.5))) == pytest.approx(0.5, abs=1e-15)
        assert kernel.eval_log(math.log(math.exp(-0.5))) == pytest.approx(0.5, abs=1e-15)
        assert kernel.eval_log(math.log(math.e ** 2)) == 0.0
        # both branches at a generic interior point
        assert kernel.eval_log(math.log(math.exp(0.25))) == pytest.approx(0.75, abs=1e-15)
        assert kernel.eval_log(math.log(math.exp(-0.8))) == pytest.approx(0.2, abs=1e-15)

    def test_order4_center_value(self):
        """B4 at u = 1: the divided-difference formula gives
        (2^3 - 4*1^3) / 3! = 2/3."""
        assert parse_kernel_spec("bspline:4").eval_log(math.log(1.0)) == pytest.approx(
            2.0 / 3.0, abs=1e-14
        )

    def test_order4_center_matches_transform_inversion(self):
        """Independent route to B4(1): invert the closed-form transform,
        B4(e^0) = (1/pi) * int_0^inf (sinc(t/2))^4 dt by evenness."""
        nodes, weights = np.polynomial.legendre.leggauss(12)
        total = 0.0
        for panel in range(600):
            a = panel * math.pi
            b = a + math.pi
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += 0.5 * (b - a) * sum(
                wq * _sinc_power(4, t) for t, wq in zip(ts, weights)
            )
        kernel = parse_kernel_spec("bspline:4")
        assert total / math.pi == pytest.approx(kernel.eval_log(math.log(1.0)), abs=1e-6)

    def test_symmetry(self):
        """B_n(u) = B_n(1/u)."""
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 6):
            kernel = parse_kernel_spec(f"bspline:{n}")
            for u in rng.uniform(0.05, 20.0, size=200):
                mirror = kernel.eval_log(math.log(1.0 / u))
                assert kernel.eval_log(math.log(u)) == pytest.approx(mirror, abs=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            kernel = parse_kernel_spec(f"bspline:{n}")
            ts = np.concatenate(
                [rng.uniform(-0.6 * n, 0.6 * n, size=500), np.linspace(-n / 2, n / 2, 257)]
            )
            assert all(kernel.eval_log(t) >= 0.0 for t in ts)

    def test_continuous_across_knots_for_order_two_up(self):
        """Orders >= 2 are continuous, including at the knots and the
        support endpoints.  The offset 5.55e-17 puts n/2 - |t| within
        round-off of an integer, where the evaluator may take either
        neighbouring piece and the two polynomials must agree."""
        for n in (2, 3, 4, 5):
            kernel = parse_kernel_spec(f"bspline:{n}")
            knots = [-0.5 * n + j for j in range(n + 1)]
            for knot in knots:
                for h in (1e-9, 5.55e-17):
                    left = kernel.eval_log(knot - h)
                    right = kernel.eval_log(knot + h)
                    assert abs(left - right) < 1e-7

    def test_order1_left_closed(self):
        kernel = parse_kernel_spec("bspline:1")
        assert kernel.eval_log(math.log(math.exp(-0.5))) == 1.0
        assert kernel.eval_log(math.log(math.exp(0.5))) == 0.0
        assert kernel.eval_log(math.log(1.0)) == 1.0

    @pytest.mark.parametrize("spec", ["bspline:0", "bspline:11"])
    def test_order_validation(self, spec):
        with pytest.raises(KernelSpecError, match="order must be in 1..10"):
            parse_kernel_spec(spec)


def _horner_from_zero(n: int, t: float) -> float:
    """B_n(t) read at n/2 - abs(t) by Horner's rule from 0.0 on the rows of
    ``_piece_table``: the reference the evaluator must equal bit for bit."""
    half = 0.5 * n
    if not -half < t < half:
        return 0.0
    u = half - abs(t)
    i = int(u)
    s = u - i
    value = 0.0
    for c in _piece_table(n)[i]:
        value = value * s + c
    return value


class TestEvaluatorBits:
    """The evaluator folds t without abs() and starts Horner from each
    piece's leading coefficient; neither may move a bit."""

    @staticmethod
    def _points(n: int) -> list[float]:
        half = 0.5 * n
        rng = random.Random(n)
        ts = [rng.uniform(-half - 0.5, half + 0.5) for _ in range(100_000)]
        boundaries = [sign * (half - i) for i in range(n + 1) for sign in (1.0, -1.0)]
        ts += boundaries + [math.nextafter(b, 0.0) for b in boundaries]
        ts += [math.nextafter(b, math.copysign(math.inf, b)) for b in boundaries]
        return ts + [0.0, -0.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("n", range(2, MAX_ORDER + 1))
    def test_equals_horner_from_zero(self, n):
        bspline = parse_kernel_spec(f"bspline:{n}").eval_log
        ts = self._points(n)
        got = array("d", map(bspline, ts))
        assert got.tobytes() == array("d", (_horner_from_zero(n, t) for t in ts)).tobytes()
        assert got.tobytes() == array("d", (bspline(-t) for t in ts)).tobytes()


def _recursion_bspline(n: int, t: float) -> float:
    """The triangular convolution recursion the evaluator replaced, kept as
    the oracle of which values are zero:
    B_m(s) = ((m/2 + s) B_{m-1}(s + 1/2) + (m/2 - s) B_{m-1}(s - 1/2)) / (m - 1)."""
    half = 0.5 * n
    if n == 1:
        return 1.0 if -0.5 <= t < 0.5 else 0.0
    if not -half < t < half:
        return 0.0
    values = [0.0] * n
    values[min(math.floor(t + half), n - 1)] = 1.0
    for m in range(2, n + 1):
        shift = 0.5 * (n - m)
        for j in range(n - m + 1):
            a = t + shift - j
            values[j] = ((0.5 * m + a) * values[j] + (0.5 * m - a) * values[j + 1]) / (m - 1)
    return values[0]


def _oracle_points(kernel: Kernel) -> list[float]:
    """Every knot, each one also at +-5.55e-17 and +-1e-12, every piece's
    midpoint, and random t across the support and past its ends."""
    knots = sorted(set(kernel.log_knots))
    ts = [k + h for k in knots for h in (0.0, 5.55e-17, -5.55e-17, 1e-12, -1e-12)]
    ts += [0.5 * (lo + hi) for lo, hi in zip(knots, knots[1:])]
    a, b = kernel.log_support
    rng = np.random.default_rng(11)
    return ts + [float(t) for t in rng.uniform(a - 0.5, b + 0.5, 300)]


class TestExactOracle:
    """The evaluator against exact rational B-spline values."""

    @pytest.mark.parametrize("spec", exact.ORACLE_SPECS)
    def test_within_round_off_of_exact(self, spec):
        """|eval_log(t) - chi(t)| <= 2.3e-16 per unit of sum_i |c_i|."""
        kernel = parse_kernel_spec(spec)
        tol = 2.3e-16 * float(sum(abs(c) for c, _ in kernel.terms))
        for t in _oracle_points(kernel):
            want = exact.chi(kernel, Fraction(t))
            assert abs(Fraction(kernel.eval_log(t)) - want) <= tol, (t, kernel.eval_log(t))

    @pytest.mark.parametrize("n", range(2, MAX_ORDER + 1))
    def test_even_bit_for_bit(self, n):
        kernel = parse_kernel_spec(f"bspline:{n}")
        for t in _oracle_points(kernel):
            assert kernel.eval_log(t) == kernel.eval_log(-t), t

    @pytest.mark.parametrize("spec", exact.ORACLE_SPECS)
    def test_zero_pattern_matches_recursion(self, spec):
        kernel = parse_kernel_spec(spec)
        terms = [(float(c), float(a)) for c, a in kernel.terms]
        for t in _oracle_points(kernel):
            old = sum(c * _recursion_bspline(kernel.order, t + a) for c, a in terms)
            assert (kernel.eval_log(t) == 0.0) == (old == 0.0), t

    def test_outer_piece_is_a_monomial(self):
        """In the tails B_n(t) = s^(n-1)/(n-1)! with s = t + n/2, so tiny
        values keep their relative precision."""
        for n in range(2, MAX_ORDER + 1):
            assert _piece_table(n)[0] == (1.0 / math.factorial(n - 1),) + (0.0,) * (n - 1)
            s = 2.0 ** -40
            got = parse_kernel_spec(f"bspline:{n}").eval_log(s - 0.5 * n)
            assert got == pytest.approx(s ** (n - 1) / math.factorial(n - 1), rel=1e-15)

    def test_table_cached_per_order(self):
        """Parsing an order again reuses its coefficient table."""
        parse_kernel_spec("bspline:7")
        before = _piece_table.cache_info()
        parse_kernel_spec("bspline:7")
        parse_kernel_spec("combo:7:1.3:0.6")
        after = _piece_table.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
        assert after.maxsize == MAX_ORDER


class TestSupport:
    def test_log_support_bounds(self):
        assert parse_kernel_spec("bspline:2").log_support == (-1.0, 1.0)
        assert parse_kernel_spec("bspline:4").log_support == (-2.0, 2.0)

    def test_exact_zero_outside_support(self):
        """eval returns exactly 0.0 (not merely tiny) outside the support."""
        rng = np.random.default_rng(3)
        for kernel in ALL_TEST_KERNELS:
            a, b = kernel.log_support
            for _ in range(200):
                off = rng.uniform(1e-12, 50.0)
                t = a - off if rng.uniform() < 0.5 else b + off
                assert kernel.eval_log(t) == 0.0

    def test_combo_support_hull(self):
        kernel = parse_kernel_spec("combo:4:e^1:e^2")
        assert kernel.log_support == (-4.0, 1.0)

    @pytest.mark.parametrize(
        "spec",
        [f"bspline:{n}" for n in range(1, 11)]
        + ["combo:4:e^1:e^2", "combo:2:e^1/2:e^-1/2", "combo:7:e^-3/7:e^5/3",
           "combo:3:1.3:0.6", "combo:6:2.5:0.3", "combo:10:0.1:7.25"],
    )
    def test_log_support_is_the_knot_hull(self, spec):
        """[-n/2, n/2] for bspline:n; for combo:n the base support shifted by
        -log(alpha) and by -log(beta), i.e. [-n/2 - max(la, lb), n/2 - min(la, lb)].
        Both ends equal the end knots bit for bit."""
        kernel = parse_kernel_spec(spec)
        fields = spec.split(":")
        n = int(fields[1])
        if fields[0] == "bspline":
            want = (-0.5 * n, 0.5 * n)
        else:
            la, lb = (
                float(Fraction(t[2:])) if t.startswith("e^") else math.log(float(t))
                for t in fields[2:]
            )
            want = (-0.5 * n - max(la, lb), 0.5 * n - min(la, lb))
        assert kernel.log_support == want
        assert kernel.log_support == (min(kernel.log_knots), max(kernel.log_knots))
        a, b = want
        assert kernel.eval_log(math.nextafter(a, -math.inf)) == 0.0
        assert kernel.eval_log(math.nextafter(b, math.inf)) == 0.0


class TestWindow:
    def test_range(self):
        """ceil(t - b) - 1 .. floor(t - a) + 1 for log-support [a, b]."""
        b2 = parse_kernel_spec("bspline:2")
        assert b2.window(0.0) == range(-2, 3)
        assert b2.window(-2.88) == range(-4, 0)
        assert parse_kernel_spec("bspline:3").window(0.25) == range(-2, 3)

    def test_covers_every_nonzero_term(self):
        rng = np.random.default_rng(4)
        for spec in ("bspline:1", "bspline:4", "combo:4:e^1:e^2"):
            kernel = parse_kernel_spec(spec)
            for t in rng.uniform(-50.0, 50.0, 40):
                window = kernel.window(t)
                assert kernel.eval_log(t - window[0]) == 0.0
                assert kernel.eval_log(t - window[-1]) == 0.0
                outside = [k for k in range(window[0] - 5, window[-1] + 6) if k not in window]
                assert all(kernel.eval_log(t - k) == 0.0 for k in outside)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_position_rejected(self, t):
        with pytest.raises(ValueError, match=f"must be finite, got {t}"):
            parse_kernel_spec("bspline:2").window(t)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_position_tolerance_boundary(self, sign):
        """ulp(t) <= WINDOW_ULP_TOL holds up to |t| < 2^23 and fails from 2^23."""
        kernel = parse_kernel_spec("bspline:2")
        inside = sign * math.nextafter(2.0 ** 23, 0.0)
        assert math.ulp(inside) <= WINDOW_ULP_TOL < math.ulp(2.0 ** 23)
        assert math.floor(inside) in kernel.window(inside)
        for t in (sign * 2.0 ** 23, sign * 1e300):
            with pytest.raises(ValueError, match=re.escape(f"w*log(x) = {t!r} is too large")):
                kernel.window(t)


class TestPiecewisePolynomial:
    def test_knots(self):
        b4 = parse_kernel_spec("bspline:4")
        assert b4.log_knots == (-2.0, -1.0, 0.0, 1.0, 2.0) and b4.order == 4
        assert b4.terms == ((1, 0),)
        combo = parse_kernel_spec("combo:4:e^1:e^2")
        assert combo.log_knots == (-4.0, -3.0, -3.0, -2.0, -2.0, -1.0, -1.0, 0.0, 0.0, 1.0)
        assert combo.order == 4 and combo.terms == ((2, 1), (-1, 2))

    def test_replacing_the_evaluator_keeps_the_spec(self):
        """dataclasses.replace swaps eval_log alone: the label, the order, the
        terms, the knots derived from them and the transform stay."""
        for kernel in ALL_TEST_KERNELS:
            calls = []
            swapped = dataclasses.replace(kernel, eval_log=lambda t: calls.append(t) or 0.0)
            assert (swapped.label, swapped.order, swapped.terms) == (kernel.label, kernel.order, kernel.terms)
            assert swapped.log_knots == kernel.log_knots
            for j, t in ((0, 0.0), (1, 2.0), (3, 7.5)):
                assert swapped.mellin_transform_derivs(j, t) == kernel.mellin_transform_derivs(j, t)
            assert swapped.eval_log(0.25) == 0.0 and calls == [0.25]

    def test_polynomial_between_knots(self):
        """The (d+1)-th finite difference of a degree-d polynomial vanishes;
        on each knot piece it is taken over d + 2 equally spaced points."""
        for kernel in ALL_TEST_KERNELS + [parse_kernel_spec("combo:3:1.3:0.6")]:
            d = kernel.order - 1
            knots = kernel.log_knots
            assert list(knots) == sorted(knots)
            for lo, hi in zip(knots, knots[1:]):
                if hi - lo < 1e-9:
                    continue
                ts = np.linspace(lo, hi, d + 4)[1:-1]
                diff = [kernel.eval_log(t) for t in ts]
                for _ in range(d + 1):
                    diff = [b - a for a, b in zip(diff, diff[1:])]
                assert abs(diff[0]) < 1e-12, (kernel.label, lo, hi)


class TestPartitionOfUnity:
    def test_random_pairs(self):
        """sum_k chi(e^-k x^w) = 1 for 1000 random (x, w) pairs per kernel."""
        rng = np.random.default_rng(20260808)
        for kernel in ALL_TEST_KERNELS:
            xs = rng.uniform(0.1, 10.0, size=1000)
            ws = rng.uniform(1.0, 100.0, size=1000)
            worst = max(_partition_residual(kernel, x, w) for x, w in zip(xs, ws))
            assert worst < 1e-12, kernel.label


class TestMellinTransform:
    def test_pinned_values(self):
        phi2 = parse_kernel_spec("bspline:2").mellin_transform_derivs
        phi4 = parse_kernel_spec("bspline:4").mellin_transform_derivs
        assert phi2(0, 0.0) == 1.0
        assert abs(phi2(0, 2.0 * math.pi)) < 1e-30
        want = (2.0 / math.pi) ** 4
        assert phi4(0, math.pi) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.5, 1.0, math.pi, 5.0])
    def test_matches_quadrature(self, n, t):
        """Closed form equals the defining integral int u^(it-1) chi(u) du,
        computed as int e^(itv) B_n(v) dv panel by panel between the knots."""
        kernel = parse_kernel_spec(f"bspline:{n}")
        nodes, weights = np.polynomial.legendre.leggauss(20)
        total = 0j
        for j in range(n):
            a = -0.5 * n + j
            b = a + 1.0
            vs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += 0.5 * (b - a) * sum(
                wq * kernel.eval_log(v) * complex(math.cos(t * v), math.sin(t * v))
                for v, wq in zip(vs, weights)
            )
        assert abs(total - kernel.mellin_transform_derivs(0, t)) < 1e-8
        assert abs(total - _sinc_power(n, t)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0 * math.pi])
    def test_derivative_map_matches_moment_integrals(self, n, j, t):
        """Differentiating the transform under the integral sign gives
        phi^(j)(t) = int (iv)^j e^(itv) B_n(v) dv, an oracle independent of
        the polynomial-power evaluation used by the derivative map."""
        kernel = parse_kernel_spec(f"bspline:{n}")
        nodes, weights = np.polynomial.legendre.leggauss(24)
        total = 0j
        for panel in range(n):
            a = -0.5 * n + panel
            b = a + 1.0
            vs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += 0.5 * (b - a) * sum(
                wq
                * (1j * v) ** j
                * complex(math.cos(t * v), math.sin(t * v))
                * kernel.eval_log(v)
                for v, wq in zip(vs, weights)
            )
        got = complex(kernel.mellin_transform_derivs(j, t))
        assert got == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("t0", [0.7, 2.0, 2.0 * math.pi])
    def test_derivative_map_matches_finite_differences(self, n, t0):
        """Analytic transform derivatives vs Richardson central differences
        of the closed-form transform."""
        kernel = parse_kernel_spec(f"bspline:{n}")
        phi = lambda t: _sinc_power(n, t)
        h = 1e-3

        def fd1(t):
            return (
                4.0 * (phi(t + h) - phi(t - h)) / (2.0 * h)
                - (phi(t + 2 * h) - phi(t - 2 * h)) / (4.0 * h)
            ) / 3.0

        def fd2(t):
            d2 = lambda s: (phi(t + s) - 2.0 * phi(t) + phi(t - s)) / s ** 2
            return (4.0 * d2(h) - d2(2 * h)) / 3.0

        derivs = kernel.mellin_transform_derivs
        assert derivs(0, t0) == pytest.approx(phi(t0), abs=1e-12)
        assert derivs(1, t0) == pytest.approx(fd1(t0), abs=1e-7)
        assert derivs(2, t0) == pytest.approx(fd2(t0), abs=1e-6)


class TestTranslatedCombo:
    def test_coefficients_for_e_e2(self):
        """alpha = e, beta = e^2 gives c1 = 2, c2 = -1 from
        c1 = log(beta)/(log(beta) - log(alpha))."""
        assert parse_kernel_spec("combo:4:e^1:e^2").terms == ((2, 1), (-1, 2))

    def test_coefficients_half_logs(self):
        """alpha = e^(1/2), beta = e^(-1/2): c1 = (-1/2)/(-1) = 1/2, c2 = 1/2."""
        half = Fraction(1, 2)
        assert parse_kernel_spec("combo:4:e^1/2:e^-1/2").terms == ((half, half), (half, -half))

    def test_coefficient_identities_exact(self):
        """c1 + c2 = 1 and c1 log(alpha) + c2 log(beta) = 0, exactly; a
        decimal factor's log is its float log, itself an exact rational."""
        for spec in ("combo:4:e^1:e^2", "combo:4:e^1/3:e^-2/5", "combo:3:1.7:0.4"):
            (c1, la), (c2, lb) = parse_kernel_spec(spec).terms
            assert c1 + c2 == 1
            assert c1 * la + c2 * lb == 0
        (_, la), (_, lb) = parse_kernel_spec("combo:3:1.7:0.4").terms
        assert (la, lb) == (Fraction(math.log(1.7)), Fraction(math.log(0.4)))

    def test_eval_is_weighted_translates(self):
        kernel = parse_kernel_spec("combo:4:e^1:e^2")
        b4 = parse_kernel_spec("bspline:4")
        rng = np.random.default_rng(5)
        for u in rng.uniform(0.01, 2.0, size=300):
            want = 2.0 * b4.eval_log(math.log(math.e * u)) - b4.eval_log(math.log(math.e ** 2 * u))
            assert kernel.eval_log(math.log(u)) == pytest.approx(want, abs=1e-14)

    def test_combo_takes_negative_values(self):
        kernel = parse_kernel_spec("combo:4:e^1:e^2")
        ts = np.linspace(*kernel.log_support, 500)
        assert min(kernel.eval_log(t) for t in ts) < -0.05

    def test_equal_factors_rejected(self):
        with pytest.raises(KernelSpecError, match="translate factors must differ"):
            parse_kernel_spec("combo:4:1.5:1.5")


class TestSpecParsing:
    def test_bspline_form(self):
        kernel = parse_kernel_spec("bspline:2")
        assert kernel.label == "bspline:2"
        assert kernel.log_support == (-1.0, 1.0)

    def test_combo_exact_exponent_round_trips(self):
        """e^<rational> exponents are stored exactly: the label reproduces
        the rational, which a rounded float could not."""
        kernel = parse_kernel_spec("combo:4:e^1/3:e^2")
        assert kernel.label == "combo:4:e^1/3:e^2"

    def test_combo_decimal_factors(self):
        kernel = parse_kernel_spec("combo:2:1.5:2.5")
        b2 = parse_kernel_spec("bspline:2")
        c1 = math.log(2.5) / (math.log(2.5) - math.log(1.5))
        c2 = 1.0 - c1
        for u in (0.4, 0.8, 1.1):
            want = c1 * b2.eval_log(math.log(1.5 * u)) + c2 * b2.eval_log(math.log(2.5 * u))
            assert kernel.eval_log(math.log(u)) == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            "bspline",
            "bspline:zero",
            "bspline:0",
            "bspline:2:3",
            "combo:4:e^1",
            "combo:4:e^x:e^2",
            "combo:4:-1.0:2.0",
            "combo:4:e^1:e^1",
            "gauss:3",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec(bad)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "e^1e400", "e^-1e309"])
    def test_non_finite_factor_refused(self, token):
        """A factor must have a finite float log; NaN had ended in "cannot
        convert NaN to integer ratio", 1e400 and e^1e400 in an overflow."""
        for spec in (f"combo:3:{token}:2", f"combo:3:2:{token}"):
            with pytest.raises(KernelSpecError, match=re.escape(repr(token))):
                parse_kernel_spec(spec)

    @pytest.mark.parametrize("token, size", [("e^1001", "1001"), ("e^-3000", "3000"),
                                             ("e^1e300", "1e+300"), ("e^-2001/2", "1000.5")])
    def test_translate_log_capped(self, token, size):
        """|log alpha| and |log beta| above MAX_TRANSLATE_LOG are refused at
        parse time, naming the factor and the cap: every sum walks the
        support, and at e^1e300 kernel-info never ended."""
        for spec in (f"combo:3:{token}:e^2", f"combo:3:e^2:{token}"):
            with pytest.raises(KernelSpecError, match=re.escape(
                    f"scale factor {token!r} has |log| = {size}, more than the "
                    f"{MAX_TRANSLATE_LOG} allowed")):
                parse_kernel_spec(spec)
        assert parse_kernel_spec("combo:3:e^1000:e^-1000").log_support == (-1001.5, 1001.5)

    @pytest.mark.parametrize(
        "alpha, beta, size",
        [("2", "2.0000000000000004", "6.243e+15"), ("2", "2.001", "2774"),
         ("e^1", "e^1001/1000", "2001"), ("0.5", "0.5005", "1386")],
    )
    def test_close_factors_refused(self, alpha, beta, size):
        """Nearly equal factors have huge coefficients that cancel:
        combo:3:2:2.0000000000000004 had m_0 = 1.6484375 and the label
        combo:3:2:2."""
        with pytest.raises(KernelSpecError, match=re.escape(
                f"translate factors {alpha} and {beta} are too close in "
                f"'combo:3:{alpha}:{beta}': |c1| + |c2| = {size} exceeds 1000")):
            parse_kernel_spec(f"combo:3:{alpha}:{beta}")

    def test_accepted_specs_keep_the_zeroth_moment(self):
        """Every spec the coefficient limit accepts, down to factors 0.15%
        apart, keeps |m_0 - 1| <= 1e-12 at every u; the closer ones in the
        same sweep are refused."""
        accepted = refused = 0
        for n in (1, 2, 3, 4, 6, 10):
            for alpha in (0.3, 2.0, 7.5):
                for rel in (0.5, 1e-1, 1e-2, 3e-3, 1.5e-3, 1e-3, 1e-6, 1e-16):
                    spec = f"combo:{n}:{alpha!r}:{alpha * (1.0 + rel)!r}"
                    try:
                        kernel = parse_kernel_spec(spec)
                    except KernelSpecError:
                        refused += 1
                        continue
                    accepted += 1
                    for t in np.linspace(0.0, 1.0, 41):
                        assert abs(algebraic_moment_at_log(kernel, 0, t) - 1.0) <= 1e-12, (spec, t)
        for alpha, beta in (("e^1", "e^101/100"), ("e^1/2", "e^51/100"), ("e^-3/2", "e^-149/100")):
            kernel = parse_kernel_spec(f"combo:4:{alpha}:{beta}")
            for t in np.linspace(0.0, 1.0, 41):
                assert abs(algebraic_moment_at_log(kernel, 0, t) - 1.0) <= 1e-12
        assert accepted >= 60 and refused >= 30
