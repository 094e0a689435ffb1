"""Kernel family tests: spline values, transforms, translated combinations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from expsamp.kernels import (
    Kernel,
    KernelSpecError,
    MellinBSplineSpec,
    TranslatedComboSpec,
    bspline_eval,
    bspline_mellin_transform,
    build_bspline_kernel,
    build_translated_combo,
    parse_kernel_spec,
)

ALL_TEST_KERNELS = [
    parse_kernel_spec("bspline:1"),
    parse_kernel_spec("bspline:2"),
    parse_kernel_spec("bspline:3"),
    parse_kernel_spec("bspline:4"),
    parse_kernel_spec("bspline:10"),
    parse_kernel_spec("combo:4:e^1:e^2"),
    parse_kernel_spec("combo:2:e^1/2:e^-1/2"),
]


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
        spec = MellinBSplineSpec(2)
        assert bspline_eval(spec, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert bspline_eval(spec, math.exp(0.5)) == pytest.approx(0.5, abs=1e-15)
        assert bspline_eval(spec, math.exp(-0.5)) == pytest.approx(0.5, abs=1e-15)
        assert bspline_eval(spec, math.e ** 2) == 0.0
        # both branches at a generic interior point
        assert bspline_eval(spec, math.exp(0.25)) == pytest.approx(0.75, abs=1e-15)
        assert bspline_eval(spec, math.exp(-0.8)) == pytest.approx(0.2, abs=1e-15)

    def test_order4_center_value(self):
        """B4 at u = 1: the divided-difference formula gives
        (2^3 - 4*1^3) / 3! = 2/3."""
        assert bspline_eval(MellinBSplineSpec(4), 1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_order4_center_matches_transform_inversion(self):
        """Independent route to B4(1): invert the closed-form transform,
        B4(e^0) = (1/pi) * int_0^inf (sinc(t/2))^4 dt by evenness."""
        spec = MellinBSplineSpec(4)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        total = 0.0
        for panel in range(600):
            a = panel * math.pi
            b = a + math.pi
            ts = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += 0.5 * (b - a) * sum(
                wq * bspline_mellin_transform(spec, t) for t, wq in zip(ts, weights)
            )
        assert total / math.pi == pytest.approx(bspline_eval(spec, 1.0), abs=1e-6)

    def test_rejects_nonpositive_argument(self):
        spec = MellinBSplineSpec(2)
        with pytest.raises(ValueError):
            bspline_eval(spec, 0.0)
        with pytest.raises(ValueError):
            bspline_eval(spec, -1.5)

    def test_symmetry(self):
        """B_n(u) = B_n(1/u)."""
        rng = np.random.default_rng(42)
        for n in (2, 3, 4, 6):
            spec = MellinBSplineSpec(n)
            for u in rng.uniform(0.05, 20.0, size=200):
                assert bspline_eval(spec, u) == pytest.approx(
                    bspline_eval(spec, 1.0 / u), abs=1e-13
                )

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            kernel = build_bspline_kernel(MellinBSplineSpec(n))
            ts = np.concatenate(
                [rng.uniform(-0.6 * n, 0.6 * n, size=500), np.linspace(-n / 2, n / 2, 257)]
            )
            assert all(kernel.eval_log(t) >= 0.0 for t in ts)

    def test_continuous_across_knots_for_order_two_up(self):
        """Orders >= 2 are continuous, including at the knots and the
        support endpoints.  The offset 5.55e-17 puts t + n/2 within
        round-off of an integer, where the order-1 start of the recursion
        must still mark a single cell."""
        for n in (2, 3, 4, 5):
            kernel = build_bspline_kernel(MellinBSplineSpec(n))
            knots = [-0.5 * n + j for j in range(n + 1)]
            for knot in knots:
                for h in (1e-9, 5.55e-17):
                    left = kernel.eval_log(knot - h)
                    right = kernel.eval_log(knot + h)
                    assert abs(left - right) < 1e-7

    def test_order1_left_closed(self):
        spec = MellinBSplineSpec(1)
        assert bspline_eval(spec, math.exp(-0.5)) == 1.0
        assert bspline_eval(spec, math.exp(0.5)) == 0.0
        assert bspline_eval(spec, 1.0) == 1.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            MellinBSplineSpec(0)
        with pytest.raises(ValueError):
            MellinBSplineSpec(11)


class TestSupport:
    def test_log_support_bounds(self):
        assert build_bspline_kernel(MellinBSplineSpec(2)).log_support == (-1.0, 1.0)
        assert build_bspline_kernel(MellinBSplineSpec(4)).log_support == (-2.0, 2.0)

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
        kernel = build_translated_combo(
            MellinBSplineSpec(4), log_alpha=Fraction(1), log_beta=Fraction(2)
        )
        assert kernel.log_support == (-4.0, 1.0)


class TestPiecewisePolynomial:
    def test_knots(self):
        b4 = parse_kernel_spec("bspline:4")
        assert b4.log_knots == (-2.0, -1.0, 0.0, 1.0, 2.0) and b4.piece_degree == 3
        combo = parse_kernel_spec("combo:4:e^1:e^2")
        assert combo.log_knots == (-4.0, -3.0, -3.0, -2.0, -2.0, -1.0, -1.0, 0.0, 0.0, 1.0)
        assert combo.piece_degree == 3

    def test_polynomial_between_knots(self):
        """The (d+1)-th finite difference of a degree-d polynomial vanishes;
        on each knot piece it is taken over d + 2 equally spaced points."""
        for kernel in ALL_TEST_KERNELS + [parse_kernel_spec("combo:3:1.3:0.6")]:
            d = kernel.piece_degree
            knots = kernel.log_knots
            assert list(knots) == sorted(knots)
            assert (knots[0], knots[-1]) == pytest.approx(kernel.log_support, abs=1e-15)
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
        assert bspline_mellin_transform(MellinBSplineSpec(2), 0.0) == 1.0
        assert abs(bspline_mellin_transform(MellinBSplineSpec(2), 2.0 * math.pi)) < 1e-30
        want = (2.0 / math.pi) ** 4
        assert bspline_mellin_transform(MellinBSplineSpec(4), math.pi) == pytest.approx(
            want, rel=1e-14
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.5, 1.0, math.pi, 5.0])
    def test_matches_quadrature(self, n, t):
        """Closed form equals the defining integral int u^(it-1) chi(u) du,
        computed as int e^(itv) B_n(v) dv panel by panel between the knots."""
        kernel = build_bspline_kernel(MellinBSplineSpec(n))
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
        want = bspline_mellin_transform(MellinBSplineSpec(n), t)
        assert abs(total - want) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0 * math.pi])
    def test_derivative_map_matches_moment_integrals(self, n, j, t):
        """Differentiating the transform under the integral sign gives
        phi^(j)(t) = int (iv)^j e^(itv) B_n(v) dv, an oracle independent of
        the polynomial-power evaluation used by the derivative map."""
        kernel = build_bspline_kernel(MellinBSplineSpec(n))
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
        """Analytic transform derivatives vs Richardson central differences."""
        kernel = build_bspline_kernel(MellinBSplineSpec(n))
        phi = kernel.mellin_transform
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
        spec = TranslatedComboSpec(MellinBSplineSpec(4), Fraction(1), Fraction(2))
        assert spec.c1 == Fraction(2)
        assert spec.c2 == Fraction(-1)

    def test_coefficients_half_logs(self):
        """alpha = e^(1/2), beta = e^(-1/2): c1 = (-1/2)/(-1) = 1/2, c2 = 1/2."""
        spec = TranslatedComboSpec(MellinBSplineSpec(2), Fraction(1, 2), Fraction(-1, 2))
        assert spec.c1 == Fraction(1, 2)
        assert spec.c2 == Fraction(1, 2)

    def test_coefficient_identities_exact(self):
        """c1 + c2 = 1 and c1 log(alpha) + c2 log(beta) = 0, exactly."""
        cases = [
            (Fraction(1), Fraction(2)),
            (Fraction(1, 3), Fraction(-2, 5)),
            (Fraction(math.log(1.7)), Fraction(math.log(0.4))),
        ]
        for la, lb in cases:
            spec = TranslatedComboSpec(MellinBSplineSpec(3), la, lb)
            assert spec.c1 + spec.c2 == 1
            assert spec.c1 * la + spec.c2 * lb == 0

    def test_eval_is_weighted_translates(self):
        kernel = build_translated_combo(
            MellinBSplineSpec(4), log_alpha=Fraction(1), log_beta=Fraction(2)
        )
        b4 = MellinBSplineSpec(4)
        rng = np.random.default_rng(5)
        for u in rng.uniform(0.01, 2.0, size=300):
            want = 2.0 * bspline_eval(b4, math.e * u) - bspline_eval(b4, math.e ** 2 * u)
            assert kernel.eval(u) == pytest.approx(want, abs=1e-14)

    def test_combo_takes_negative_values(self):
        kernel = parse_kernel_spec("combo:4:e^1:e^2")
        ts = np.linspace(*kernel.log_support, 500)
        assert min(kernel.eval_log(t) for t in ts) < -0.05

    def test_equal_factors_rejected(self):
        with pytest.raises(ValueError):
            build_translated_combo(MellinBSplineSpec(4), 1.5, 1.5)


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
        b2 = MellinBSplineSpec(2)
        c1 = math.log(2.5) / (math.log(2.5) - math.log(1.5))
        c2 = 1.0 - c1
        for u in (0.4, 0.8, 1.1):
            want = c1 * bspline_eval(b2, 1.5 * u) + c2 * bspline_eval(b2, 2.5 * u)
            assert kernel.eval(u) == pytest.approx(want, rel=1e-12, abs=1e-15)

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
