"""Operator evaluation: cell means, series summation, sample ingestion."""

import dataclasses
import hashlib
import io
import math
import random
import re
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest

import exact
from expsamp import operators
from expsamp.combinations import apply_combo, solve_coefficients
from expsamp.functions import TestFunction, get_function
from expsamp.kernels import parse_kernel_spec
from expsamp.operators import (
    MissingSampleError,
    _gauss_rule,
    OperatorConfig,
    SampleFormatError,
    SampleSeries,
    apply,
    apply_from_samples,
    apply_grid,
    cell_mean,
    read_sample_csv,
    write_sample_csv,
)

B2 = parse_kernel_spec("bspline:2")
B4 = parse_kernel_spec("bspline:4")


class TestGaussRule:
    """The standard-library Gauss-Legendre rule on [0, 1] with halved
    weights; numpy's leggauss is a test-local oracle only."""

    @pytest.mark.parametrize("n", range(1, 65))
    def test_exact_on_monomials(self, n):
        """int_0^1 x^k dx = 1/(k+1) for k <= 2n - 1, summed exactly in Fraction
        over integer numerators on one power-of-two denominator per k."""
        nodes, weights = _gauss_rule(n)
        dx = max(Fraction(x).denominator for x in nodes)
        dw = max(Fraction(wt).denominator for wt in weights)
        terms = [int(Fraction(wt) * dw) for wt in weights]  # wt * x^k * dw * dx^k
        scaled = [int(Fraction(x) * dx) for x in nodes]
        for k in range(2 * n):
            total = Fraction(sum(terms), dw * dx ** k)
            assert abs(total - Fraction(1, k + 1)) <= 2e-16, k
            terms = [t * x for t, x in zip(terms, scaled)]

    @pytest.mark.parametrize("n", range(1, 65))
    def test_agrees_with_leggauss(self, n):
        x, wt = np.polynomial.legendre.leggauss(n)
        nodes, weights = _gauss_rule(n)
        assert np.max(np.abs(np.array(nodes) - 0.5 * (x + 1.0))) <= 1e-11
        assert np.max(np.abs(np.array(weights) / (0.5 * wt) - 1.0)) <= 1e-11

    @pytest.mark.parametrize("n", range(1, 65))
    def test_shape(self, n):
        nodes, weights = _gauss_rule(n)
        assert len(nodes) == len(weights) == n
        assert all(type(v) is float for v in nodes + weights)
        assert 0.0 < nodes[0] and nodes[-1] < 1.0
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        assert all(wt > 0.0 for wt in weights)
        assert weights == weights[::-1]
        assert abs(math.fsum(weights) - 1.0) <= 1e-16

    def test_bits_pinned(self):
        """Every rule for n = 1..64, bit for bit, by the SHA-256 of their reprs.
        The tests above allow a tolerance; this one fails where a change of
        arithmetic or of the stopping rule moves a last bit, or where a Python
        version or platform rounds the rule differently."""
        text = "\n".join(repr(_gauss_rule(n)) for n in range(1, 65))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0026448d88be1aad8fffbae940cce967021626f0ddc2f8b888e54a6f91cab0d1")

    def test_cached(self):
        assert _gauss_rule(7) is _gauss_rule(7)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_nodes_refused(self, n):
        """cell_mean is public and does not check the node count itself;
        without the rule's check, n = 0 gave a mean of 0 and n = -1 a mean
        from one node, with no error."""
        with pytest.raises(ValueError, match=f"quad_nodes must be a positive integer, got {n}"):
            cell_mean(get_function("log"), 10.0, 0, n)

    @pytest.mark.parametrize(
        "n, message",
        [(0, "a positive integer, got 0"), (65, "at most 64, got 65"), (200, "at most 64, got 200"),
         (2.5, "a positive integer, got 2.5"), (7.0, "a positive integer, got 7.0")],
    )
    def test_node_count_refused_where_every_cell_mean_goes(self, n, message):
        """One rule, in the Gauss rule every cell mean fetches: cell_mean and
        SampleSeries.from_function refuse what OperatorConfig refuses
        (n = 200 grew the rule cache unchecked, 2.5 raised TypeError), and a
        refused count leaves no cache entry.  The count is checked before
        the cell, here one beyond the float range."""
        _gauss_rule(7)
        cached = _gauss_rule.cache_info().currsize
        message = re.escape(f"quad_nodes must be {message}")
        for w in (10.0, 0.001):
            with pytest.raises(ValueError, match=message):
                cell_mean(get_function("log"), w, 0, n)
        with pytest.raises(ValueError, match=message):
            SampleSeries.from_function(get_function("log"), 10.0, 0, 3, quad_nodes=n)
        with pytest.raises(ValueError, match=message):
            OperatorConfig(w=10.0, quad_nodes=n)
        assert _gauss_rule.cache_info().currsize == cached


class TestCellMean:
    def test_constant(self):
        assert cell_mean(get_function("const:1"), 15.0, 3) == pytest.approx(1.0, abs=1e-15)

    def test_log_closed_form(self):
        """w * int u du over [k/w, (k+1)/w] = (2k+1)/(2w); Gauss is exact on
        linear integrands."""
        assert cell_mean(get_function("log"), 10.0, 0) == pytest.approx(1.0 / 20.0, abs=1e-15)
        for w, k in [(7.0, 5), (31.0, -4)]:
            assert cell_mean(get_function("log"), w, k) == pytest.approx(
                (2 * k + 1) / (2 * w), abs=1e-14
            )

    def test_log_squared_closed_form(self):
        """w * int u^2 du = (3k^2 + 3k + 1)/(3w^2)."""
        assert cell_mean(get_function("log2"), 10.0, 2) == pytest.approx(19.0 / 300.0, abs=1e-15)

    @pytest.mark.parametrize("w, k", [(0.001, 0), (0.001, -1), (5e-324, 0), (1.0, 710), (1.0, -709)])
    def test_cell_beyond_float_range_refused(self, w, k):
        """Cells whose points e^u overflow or fall below the smallest normal
        float are refused, not summed into inf or a math domain error."""
        with pytest.raises(ValueError, match=f"cell k={k} at w={w:g} .* beyond the float range"):
            cell_mean(get_function("log"), w, k)

    @pytest.mark.parametrize("w", [0.0, -1.0, math.inf, math.nan])
    def test_rate_not_positive_and_finite_refused(self, w):
        """As OperatorConfig refuses it: no ZeroDivisionError at 0, no mean
        at a negative rate, no f(1) for every cell at inf."""
        with pytest.raises(ValueError, match=f"sampling rate w must be positive and finite, got {w}"):
            cell_mean(get_function("sinmix"), w, 3)

    def test_cells_at_the_float_range_ends(self):
        assert cell_mean(get_function("log"), 1.0, 708) == pytest.approx(708.5, rel=1e-15)
        assert cell_mean(get_function("log"), 1.0, -708) == pytest.approx(-707.5, rel=1e-15)

    @pytest.mark.parametrize("name", ["log", "log2", "log3", "cos4exp", "sinmix", "const:-2.5"])
    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_against_nodes_on_the_x_axis(self, name, n):
        """Cell means integrate f_at_log; against f(exp(u)) at the same nodes,
        the form of the mean before f_at_log existed, cos4exp, sinmix and
        constants agree bit for bit and the log family to round-off."""
        f = get_function(name)
        nodes, weights = _gauss_rule(n)
        for w, k in [(7.0, 5), (31.0, -40), (500.0, 351), (5000.0, -2987), (1.0, 3)]:
            want = math.fsum(wt * f.f(math.exp((k + s) / w)) for s, wt in zip(nodes, weights))
            got = cell_mean(f, w, k, n)
            if name.startswith("log"):
                assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (w, k)
            else:
                assert got == want, (w, k)

    @staticmethod
    def _gauss(f: TestFunction) -> TestFunction:
        """f without its log monomial: its cell means take the Gauss rule."""
        return dataclasses.replace(f, log_monomial=None)

    def test_exact_mean_within_the_gauss_error(self):
        """Against exact Fraction means of u^p on seeded random cells, down
        to |k| = 1e9, the closed form errs no more than the 7-node Gauss rule
        did on the same cells."""
        rng = random.Random(16)
        cells = [(w, rng.randint(-kmax, kmax)) for _ in range(600)
                 for w, kmax in [(5.0, 15), (13.7, 41), (160.0, 480), (600.0, 1800),
                                 (5000.0, 15000), (1.5e6, 10**9)]]
        for p in (1, 2, 3):
            f = get_function("log" if p == 1 else f"log{p}")
            worst = {"exact": 0.0, "gauss": 0.0}
            for w, k in cells:
                a, b = Fraction(k) / Fraction(w), Fraction(k + 1) / Fraction(w)
                want = (b ** (p + 1) - a ** (p + 1)) / (p + 1) * Fraction(w)
                if want == 0:
                    continue
                for side, g in (("exact", f), ("gauss", self._gauss(f))):
                    err = abs(Fraction(cell_mean(g, w, k)) - want) / abs(want)
                    worst[side] = max(worst[side], float(err))
            assert worst["exact"] <= worst["gauss"], (p, worst)
            assert worst["exact"] < 4e-16, (p, worst)

    @pytest.mark.parametrize("name", ["log", "log2", "log3", "const:-2.5", "const:1e300"])
    def test_exact_mean_is_the_gauss_mean(self, name):
        """Where the n-node rule is exact, 2n - 1 >= p, it and the closed
        form agree to round-off: within 4 ulp at every n from 2 to 64."""
        f = get_function(name)
        for n in range(2, 65):
            for w, k in [(7.0, 5), (31.0, -40), (500.0, 351), (5000.0, -2987), (1.0, 3)]:
                got, want = cell_mean(f, w, k, n), cell_mean(self._gauss(f), w, k, n)
                assert abs(got - want) <= 4 * math.ulp(want), (n, w, k)

    @pytest.mark.parametrize("name", ["log", "log2", "log3", "const:-2.5"])
    def test_one_node_is_the_midpoint_rule(self, name):
        """At one node the rule is exact only through degree 1: log2 and
        log3 keep the midpoint value, and log and constants, whose exact
        mean it is, give it bit for bit."""
        f = get_function(name)
        for w, k in [(7.0, 5), (31.0, -40), (5000.0, -2987)]:
            assert cell_mean(f, w, k, 1) == f.f_at_log([(k + 0.5) / w])[0], (w, k)

    @pytest.mark.parametrize("w, k", [(2.0 ** 64, 5), (1e103, 0), (1e200, -7 * 10**201)])
    def test_exact_mean_gives_way_above_its_rate_range(self, w, k):
        """At a rate whose cubes leave the float range the Gauss rule is
        used, so the mean is neither 0 nor an overflow."""
        f = get_function("log3")
        assert cell_mean(f, w, k) == cell_mean(self._gauss(f), w, k)

    def test_function_without_f_at_log_unchanged(self):
        """A TestFunction built without f_at_log composes f with math.exp, so
        its cell means are f(exp(u)) at the nodes, bit for bit."""
        log3 = get_function("log3")
        f = TestFunction(f=log3.f, mellin_derivs=log3.mellin_derivs, label="plain",
                         eval_interval=(0.5, 3.0))
        for n in (3, 7, 14):
            nodes, weights = _gauss_rule(n)
            for w, k in [(7.0, 5), (800.0, -312), (2100.0, 1555)]:
                want = math.fsum(wt * log3.f(math.exp((k + s) / w)) for s, wt in zip(nodes, weights))
                assert cell_mean(f, w, k, n) == want

    def test_integrand_is_f_at_log(self):
        """f itself is not called: a cell mean reads f_at_log only."""

        def never(x):
            raise AssertionError("f called on the x axis")

        f = TestFunction(f=never, mellin_derivs=(), label="u", eval_interval=(0.5, 3.0),
                         f_at_log=lambda us: [u for u in us])
        assert cell_mean(f, 10.0, 0) == pytest.approx(1.0 / 20.0, abs=1e-15)
        traced = dataclasses.replace(get_function("log2"), f=never)
        assert cell_mean(traced, 10.0, 2) == pytest.approx(19.0 / 300.0, abs=1e-15)

    def test_overflowing_f_named(self):
        with pytest.raises(ValueError, match=r"cell k=97 at w=10: f overflows"):
            cell_mean(get_function("cos4exp"), 10.0, 97, 7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OperatorConfig(w=0.0)
        with pytest.raises(ValueError):
            OperatorConfig(w=5.0, quad_nodes=0)
        with pytest.raises(ValueError):
            OperatorConfig(w=5.0, quad_nodes=65)

    @pytest.mark.parametrize("w", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, w):
        with pytest.raises(ValueError, match=f"positive and finite, got {w}"):
            OperatorConfig(w=w)
        with pytest.raises(ValueError, match=f"positive and finite, got {w}"):
            SampleSeries(w=w, means={0: 1.0}, k_range=(0, 0))


class TestApply:
    def test_constant_reproduction(self):
        """Partition of unity forces exact reproduction of constants."""
        rng = np.random.default_rng(9)
        for c in (-3.0, 0.0, 1.0, 7.5):
            f = get_function(f"const:{c}")
            for kernel in (B2, B4):
                for _ in range(25):
                    x = rng.uniform(0.2, 5.0)
                    w = rng.uniform(1.0, 90.0)
                    got = apply(f, kernel, OperatorConfig(w), x)
                    assert abs(got - c) < 1e-12

    def test_log_exactness(self):
        """(I_w log)(x) = log(x) + 1/(2w): the first moment vanishes and the
        cell mean of u is exact."""
        f = get_function("log")
        assert apply(f, B2, OperatorConfig(10.0), 1.0) == pytest.approx(0.05, abs=1e-14)
        assert apply(f, B2, OperatorConfig(15.0), math.e) == pytest.approx(
            1.0 + 1.0 / 30.0, abs=1e-13
        )
        rng = np.random.default_rng(10)
        for kernel in (B2, B4):
            for _ in range(50):
                x = rng.uniform(0.3, 4.0)
                w = rng.uniform(2.0, 80.0)
                err = apply(f, kernel, OperatorConfig(w), x) - math.log(x)
                assert abs(err - 1.0 / (2.0 * w)) < 1e-12

    def test_rejects_nonpositive_point(self):
        with pytest.raises(ValueError):
            apply(get_function("log"), B2, OperatorConfig(10.0), -2.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rejects_non_finite_point(self, x):
        with pytest.raises(ValueError, match=f"evaluation point must be positive and finite, got {x}"):
            apply(get_function("log"), B2, OperatorConfig(10.0), x)

    def test_overflowing_sum_refused(self):
        """The weights -1.5 and 2.5 at x = e^6 times the constant 1e308 give a
        term 2.5e308 past the float range, but the exact sum 1e308; with the
        means 0 and 7.2e307 the sum 1.8e308 itself is past it and refused,
        where eval and reconstruct printed inf."""
        kernel, x = parse_kernel_spec("combo:1:e^-1:e^-5/3"), 403.4287934927351
        assert apply(get_function("const:1e308"), kernel, OperatorConfig(w=1.0), x) == 1e308
        series = SampleSeries(w=1.0, means={k: 7.2e307 if k == 5 else 0.0 for k in range(12)},
                              k_range=(0, 11))
        with pytest.raises(ValueError, match=r"operator sum at x=403\.429 overflows"):
            apply_from_samples(series, kernel, x)

    def test_overflowing_window_position_rejected(self):
        """Finite w and x whose w*log(x) overflows get a ValueError, not an
        OverflowError from the window arithmetic."""
        with pytest.raises(ValueError, match="must be finite, got inf"):
            apply(get_function("log"), B2, OperatorConfig(1e308), 1e10)

    @pytest.mark.parametrize("fn", ["cos4exp", "sinmix", "log3"])
    def test_quadrature_converged_at_default_order(self, fn):
        """Doubling the per-cell Gauss order moves the value by < 1e-10 for
        the smooth test functions at rates up to 100.  (This is what forces
        the 7-node default: 5 nodes leave ~1e-9 at w = 10 on the faster
        oscillation.)"""
        f = get_function(fn)
        base = OperatorConfig(1.0).quad_nodes
        lo, hi = f.eval_interval
        for w in (10.0, 30.0, 100.0):
            for x in np.linspace(lo, hi, 7):
                v1 = apply(f, B2, OperatorConfig(w, quad_nodes=base), x)
                v2 = apply(f, B2, OperatorConfig(w, quad_nodes=2 * base), x)
                assert abs(v1 - v2) < 1e-10

    def test_window_widening_is_noop(self):
        """Terms beyond the tight support window are exactly zero, so the
        defensive widening cannot change the value."""
        f = get_function("cos4exp")
        w, x = 15.0, 0.77
        wt = w * math.log(x)
        a, b = B2.log_support
        tight = math.fsum(
            B2.eval_log(wt - k) * cell_mean(f, w, k)
            for k in range(math.ceil(wt - b), math.floor(wt - a) + 1)
        )
        wide = math.fsum(
            B2.eval_log(wt - k) * cell_mean(f, w, k)
            for k in range(math.ceil(wt - b) - 4, math.floor(wt - a) + 5)
        )
        got = apply(f, B2, OperatorConfig(w), x)
        assert got == pytest.approx(tight, abs=5e-16)
        assert got == pytest.approx(wide, abs=5e-16)


class TestExactOracle:
    """The operator and its p-combinations against exact rationals."""

    def test_within_round_off_of_exact(self):
        """|value - exact| <= 8u sum_i |c_i| sum_k |chi(t_i - k) mu_i(k)|,
        u = 2^-53, over seeded draws of every oracle kernel, the log family
        and constants, p in {1, 2, 3, 5, 8}, w in [10, 1e4] and |log x| in
        [0.05, 2].  Exact: the kernel from its terms, the cell means mu_i(k)
        of c s^q at rate i*w in closed form, t_i = i*w*log x from a 60-digit
        log.  The scale is the sum of absolute terms, not |exact|: the
        weights of a combo kernel and of a combination cancel."""
        functions = ["log", "log2", "log3", "const:1", "const:-2.5"]
        ctx, rng = Context(prec=60), random.Random(37)
        worst = (0.0, None)
        for _ in range(200):
            spec, name = rng.choice(exact.ORACLE_SPECS), rng.choice(functions)
            p, w = rng.choice((1, 2, 3, 5, 8)), 10.0 ** rng.uniform(1.0, 4.0)
            x = math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0))
            kernel, f, scheme = parse_kernel_spec(spec), get_function(name), solve_coefficients(p)
            c, q = f.log_monomial
            log_x = Fraction(Decimal(x).ln(ctx))
            want, scale = Fraction(0), Fraction(0)
            for i, coeff in enumerate(scheme.coeffs, start=1):
                rate = i * Fraction(w)
                t = rate * log_x
                terms = [exact.chi(kernel, t - k) * Fraction(c) * ((k + 1) ** (q + 1) - k ** (q + 1))
                         / ((q + 1) * rate ** q) for k in kernel.window(float(t))]
                want += coeff * sum(terms)
                scale += abs(coeff) * sum(map(abs, terms))
            ratio = abs(Fraction(apply_combo(f, kernel, scheme, w, x)) - want) / scale * 2 ** 53
            worst = max(worst, (float(ratio), (spec, name, p, w, x)), key=lambda r: r[0])
        assert worst[0] <= 8.0, f"worst |value - exact| = {worst[0]:.3g}u of the scale at {worst[1]}"


class TestApplyGrid:
    def test_constant_errors_zero(self):
        f, xs = get_function("const:1"), [0.6, 1.0, 2.2]
        values = apply_grid(f, B2, OperatorConfig(9.0), xs)
        assert all(abs(v - f.f(x)) < 1e-13 for x, v in zip(xs, values))

    def test_log_uniform_error(self):
        f, xs = get_function("log"), list(np.linspace(0.5, 2.0, 31))
        values = apply_grid(f, B2, OperatorConfig(20.0), xs)
        assert len(values) == len(xs)
        for x, v in zip(xs, values):
            assert abs(v - f.f(x)) == pytest.approx(1.0 / 40.0, abs=1e-13)

    def test_oscillatory_reference_point(self):
        """|f - I_15 f| at x = 0.75 for f = 1 - cos(4 e^x), published value
        0.1474."""
        f = get_function("cos4exp")
        (value,) = apply_grid(f, B2, OperatorConfig(15.0), [0.75])
        assert abs(value - f.f(0.75)) == pytest.approx(0.1474, abs=2e-3)

    def test_matches_apply_pointwise(self):
        """Both run the one operator sum, so the shared cell-mean cache
        leaves every value bit-identical."""
        f = get_function("sinmix")
        cfg = OperatorConfig(12.0)
        xs = list(np.linspace(2.0, 4.0, 17))
        values = apply_grid(f, B4, cfg, xs)
        assert len(values) == len(xs)
        for x, v in zip(xs, values):
            assert v == apply(f, B4, cfg, x)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            apply_grid(get_function("log"), B2, OperatorConfig(5.0), [])


class TestTracedCalls:
    """What bench/tracing.py counts in the operator sum, pinned with a kernel
    whose eval_log is replaced by ``dataclasses.replace``, as the tracer
    replaces it.  ``operators.values`` counts ``_apply_with_cache`` calls,
    one per point; ``kernels.evals`` counts eval_log calls, one per window
    position; ``cell_reuse`` divides the nonzero ones by the cell means.  A
    change that computes all weights of a point in one pass, without
    eval_log (ROADMAP item 4), breaks these counts, so it must change the
    tracer first."""

    @pytest.mark.parametrize("spec", ["bspline:1", "bspline:3", "combo:4:e^1:e^2"])
    def test_one_sum_per_point_one_eval_per_window_position(self, monkeypatch, spec):
        base = parse_kernel_spec(spec)
        offsets = []
        kernel = dataclasses.replace(base, eval_log=lambda t: offsets.append(t) or base.eval_log(t))
        sums = []
        inner = operators._apply_with_cache

        def counted(kernel, w, x, mean):
            sums.append(x)
            return inner(kernel, w, x, mean)

        monkeypatch.setattr(operators, "_apply_with_cache", counted)
        w, xs = 12.5, [0.7, 1.0, 1.37, 2.9]
        values = apply_grid(get_function("sinmix"), kernel, OperatorConfig(w), xs)
        assert sums == xs
        assert values == apply_grid(get_function("sinmix"), base, OperatorConfig(w), xs)
        wts = [w * math.log(x) for x in xs]
        assert offsets == [wt - k for wt in wts for k in base.window(wt)]

    @pytest.mark.parametrize("spec", ["bspline:1", "bspline:3", "combo:4:e^1:e^2"])
    def test_means_asked_once_per_nonzero_weight_ascending(self, spec):
        kernel = parse_kernel_spec(spec)
        for w, x in [(12.5, 0.7), (3.0, 1.0), (40.0, 2.9)]:
            asked = []
            value = operators._apply_with_cache(kernel, w, x, lambda k: asked.append(k) or k / 7)
            wt = w * math.log(x)
            nonzero = [k for k in kernel.window(wt) if kernel.eval_log(wt - k) != 0.0]
            assert asked == nonzero
            assert value == math.fsum(kernel.eval_log(wt - k) * (k / 7) for k in nonzero)


class TestSampleSeries:
    def test_reconstruction_equals_direct(self):
        f = get_function("cos4exp")
        xs = list(np.linspace(0.5, 1.0, 41))
        for kernel in (B2, B4):
            series = SampleSeries.covering(f, kernel, 15.0, xs)
            for x in xs:
                assert apply_from_samples(series, kernel, x) == apply(f, kernel, OperatorConfig(15.0), x)

    def test_nonzero_weight_cells_suffice(self):
        """At x = 1 the order-2 spline weighs only k = 0; its neighbours in
        the window have weight 0 and are not looked up."""
        series = SampleSeries(w=7.0, means={0: 0.25}, k_range=(0, 0))
        assert apply_from_samples(series, B2, 1.0) == 0.25

    def test_constant_series(self):
        series = SampleSeries.covering(get_function("const:2"), B2, 15.0, [1.3])
        assert apply_from_samples(series, B2, 1.3) == pytest.approx(2.0, abs=1e-13)

    def test_missing_cell_named(self):
        series = SampleSeries.from_function(get_function("log"), 10.0, -2, 2)
        # at x = 0.75, w*log(x) = -2.88 so the window starts at k = -3
        with pytest.raises(MissingSampleError, match="k=-3"):
            apply_from_samples(series, B2, 0.75)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gaps"):
            SampleSeries(w=5.0, means={0: 1.0, 2: 1.0}, k_range=(0, 2))

    @pytest.mark.parametrize(
        "keys, k_range",
        [
            ((0, 2), (0, 2)),
            ((0, 3, 5, 9, 10), (0, 12)),
            ((-5, 7), (-6, 7)),
            ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (-3, 20)),
            ((4, 100), (0, 200)),
            ((-50, 50), (-50, 50)),
            ((0, 1, 5), (0, 2)),  # as many int keys as the range, one above it
            ((-1, 0, 1), (0, 2)),  # and one below it
        ],
    )
    def test_gaps_named_as_the_first_eight_missing_indices(self, keys, k_range):
        """The message lists the first 8 indices of k_range absent from the
        means, ascending, whichever side of the stored cells they lie on."""
        want = [k for k in range(k_range[0], k_range[1] + 1) if k not in keys][:8]
        with pytest.raises(ValueError, match=re.escape(f"sample series has gaps at k={want}")):
            SampleSeries(w=5.0, means=dict.fromkeys(keys, 1.0), k_range=k_range)

    def test_gap_check_ignores_cells_outside_the_range(self):
        series = SampleSeries(w=5.0, means={-9: 1.0, 0: 1.0, 1: 1.0, 9: 1.0}, k_range=(0, 1))
        assert series.k_range == (0, 1)
        # the full range and one key outside it: one key more than the range holds
        series = SampleSeries(w=5.0, means={0: 1.0, 1: 1.0, 2: 1.0, 7: 1.0}, k_range=(0, 2))
        assert series.k_range == (0, 2)

    def test_bool_key_counts_as_its_int(self):
        """True is an int instance, as it always was here, and stands for 1."""
        series = SampleSeries(w=5.0, means={0: 1.0, True: 2.0}, k_range=(0, 1))
        assert series.means[1] == 2.0
        with pytest.raises(ValueError, match=re.escape("sample series has gaps at k=[2]")):
            SampleSeries(w=5.0, means={0: 1.0, True: 2.0}, k_range=(0, 2))

    @pytest.mark.parametrize(
        "means, k_range, message",
        [
            ({}, (0, -1), "sample series k_range (0, -1) is empty"),
            ({0: 1.0}, (3, 2), "sample series k_range (3, 2) is empty"),
            ({0: 1.0}, (-5.5, 19), "sample series k_range must be two integers, got (-5.5, 19)"),
            ({0: 1.0}, (0, 0.0), "sample series k_range must be two integers, got (0, 0.0)"),
            ({0: 1.0, 1: math.nan}, (0, 1), "sample series mean at k=1 is not finite: nan"),
            ({-2: math.inf, 0: 1.0, 3: -math.inf}, (-2, 3), "mean at k=-2 is not finite: inf"),
            ({0: 1.0, 0.5: 1.0}, (0, 1), "sample series has gaps at k=[1]"),
            ({0: 1.0, 1.0: 2.0}, (0, 1), "sample series has gaps at k=[1]"),
        ],
        ids=["empty", "inverted", "fractional", "float-bound", "nan-mean", "inf-mean",
             "fractional-key", "float-key"],
    )
    def test_constructor_refuses(self, means, k_range, message):
        """An empty or non-integer range and a non-finite mean are refused
        with a ValueError; a fractional key is no cell, and neither is a
        float key equal to an integer, such as 1.0."""
        with pytest.raises(ValueError, match=re.escape(message)):
            SampleSeries(w=5.0, means=means, k_range=k_range)


class TestSeriesBlocks:
    """SampleSeries.from_function computes its cells in blocks of 64, one
    f_at_log call per block, and gives cell_mean's floats and refusals."""

    @staticmethod
    def _plain(name: str) -> TestFunction:
        """A built-in rebuilt without f_at_log: f composed with math.exp."""
        f = get_function(name)
        return TestFunction(f=f.f, mellin_derivs=f.mellin_derivs, label="plain",
                            eval_interval=f.eval_interval)

    @pytest.mark.parametrize("name", ["log", "log2", "log3", "cos4exp", "sinmix", "const:-2.5",
                                      "plain"])
    @pytest.mark.parametrize("n", [1, 2, 7, 20, 64])
    def test_equals_cell_mean_bit_for_bit(self, name, n):
        f = self._plain("sinmix") if name == "plain" else get_function(name)
        for w in (5.0, 13.7, 600.0, 4999.5):
            for cells in (1, 63, 64, 65, 255, 256, 257, 1000):
                k_last = int(w) - 3  # below u = 1, where cos4exp is finite
                k_first = k_last - cells + 1
                series = SampleSeries.from_function(f, w, k_first, k_last, n)
                want = {k: cell_mean(f, w, k, n) for k in range(k_first, k_last + 1)}
                assert series.means == want, (w, cells)
                assert list(series.means) == list(want), (w, cells)

    @staticmethod
    def _first_refusal(f: TestFunction, w: float, k_first: int, k_last: int) -> str:
        for k in range(k_first, k_last + 1):
            try:
                cell_mean(f, w, k)
            except ValueError as exc:
                return str(exc)
        raise AssertionError("no cell refused")

    @pytest.mark.parametrize(
        "name, w, k_first, k_last",
        [
            ("log", 1.0, 700, 720),  # the range ends at k = 709
            ("log", 1.0, -720, -700),  # from the first cell
            ("log3", 2.0, 0, 1500),  # in the 23rd block
            ("sinmix", 1.0, -709, 800),  # e^u overflows in a node before the range ends
            ("cos4exp", 10.0, -200, 7200),  # f overflows at k = 65, long before the range
            ("cos4exp", 1000.0, 6000, 7000),  # f cannot be evaluated from k = 6563
            ("log", 1e300, 10 ** 309, 10 ** 309 + 3),  # k beyond the float range
            ("log", 1e300, -10 ** 309 - 3, -10 ** 309),
        ],
    )
    def test_refusal_names_the_first_cell(self, name, w, k_first, k_last):
        """A series refuses with the message cell_mean gives its first
        refused cell in ascending k, whichever block it lies in."""
        f = get_function(name)
        want = self._first_refusal(f, w, k_first, k_last)
        with pytest.raises(ValueError) as info:
            SampleSeries.from_function(f, w, k_first, k_last)
        assert str(info.value) == want

    def test_undefined_f_named(self):
        """cos(inf) raises a domain error, not an overflow; the cell is named."""
        want = ("cell k=6563 at w=1000: f cannot be evaluated on log x in [6.563, 6.564] "
                "(math domain error)")
        with pytest.raises(ValueError, match=re.escape(want)):
            cell_mean(get_function("cos4exp"), 1000.0, 6563)
        with pytest.raises(ValueError, match=re.escape(want)):
            SampleSeries.from_function(get_function("cos4exp"), 1000.0, 6500, 6600)

    @pytest.mark.parametrize("k", [10 ** 309, -10 ** 309])
    def test_cell_index_beyond_the_float_range_refused(self, k):
        """k / w cannot be computed for such a k: the cell is refused as one
        beyond the float range, not with an OverflowError."""
        sign = "" if k > 0 else "-"
        with pytest.raises(ValueError, match=re.escape(
                f"cell k={k} at w=1e+300 spans log x in [{sign}inf, {sign}inf], beyond the float range")):
            cell_mean(get_function("log"), 1e300, k)

    @pytest.mark.parametrize("w", [0.0, -2.0, math.nan, math.inf])
    def test_rate_refused_before_any_cell(self, w):
        with pytest.raises(ValueError, match="sampling rate w must be positive and finite"):
            SampleSeries.from_function(get_function("log"), w, 0, 10)


class TestSampleCsv:
    def test_round_trip_exact(self):
        f = get_function("sinmix")
        series = SampleSeries.covering(f, B4, 30.0, [2.0, 3.9])
        buf = io.StringIO()
        write_sample_csv(buf, series)
        buf.seek(0)
        back = read_sample_csv(buf)
        assert back.w == series.w
        assert back.k_range == series.k_range
        assert all(back.means[k] == series.means[k] for k in series.means)

    def test_schema(self):
        series = SampleSeries.from_function(get_function("log"), 4.0, 0, 2)
        buf = io.StringIO()
        write_sample_csv(buf, series)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "# w=4.0"
        assert lines[1] == "k,mean"
        assert buf.getvalue().count("\r") == 0

    def test_bytes_pinned(self, tmp_path):
        """Shortest round-trip reprs, LF line ends, negative k; the file
        reads back equal, the sign of -0.0 included."""
        series = SampleSeries(w=2.5, means={-3: -0.0, -2: 5e-324, -1: 1e16, 0: -1.5},
                              k_range=(-3, 0))
        path = tmp_path / "s.csv"
        write_sample_csv(str(path), series)
        assert path.read_bytes() == b"# w=2.5\nk,mean\n-3,-0.0\n-2,5e-324\n-1,1e+16\n0,-1.5\n"
        back = read_sample_csv(str(path))
        assert back == series
        assert math.copysign(1.0, back.means[-3]) == -1.0

    @pytest.mark.parametrize(
        "text",
        [
            "# w=2.5\r\nk,mean\r\n-1,1e+16\r\n0,-1.5\r\n1,5e-324\r\n",
            "# w=2.5\nk,mean\n-1,1e+16\n0,-1.5\n1,5e-324",
            "# w=2.5\nk,mean\n-1,1e+16\n\n0,-1.5\n\n\n1,5e-324\n\n",
        ],
        ids=["crlf", "no-final-newline", "blank-lines"],
    )
    def test_read_as_the_plain_file(self, tmp_path, text):
        """CRLF line ends, a missing final newline and blank lines between
        rows give the series of the plain LF file."""
        plain = "# w=2.5\nk,mean\n-1,1e+16\n0,-1.5\n1,5e-324\n"
        for name, body in (("plain.csv", plain), ("other.csv", text)):
            (tmp_path / name).write_bytes(body.encode())
        want = read_sample_csv(str(tmp_path / "plain.csv"))
        assert want == SampleSeries(w=2.5, means={-1: 1e16, 0: -1.5, 1: 5e-324}, k_range=(-1, 1))
        assert read_sample_csv(str(tmp_path / "other.csv")) == want

    def test_duplicate_k_rejected(self):
        text = "# w=4.0\nk,mean\n0,1.0\n0,2.0\n"
        with pytest.raises(SampleFormatError, match="duplicate"):
            read_sample_csv(io.StringIO(text))

    def test_missing_sidecar_rejected(self):
        with pytest.raises(SampleFormatError, match="sidecar"):
            read_sample_csv(io.StringIO("k,mean\n0,1.0\n"))

    def test_bad_tokens_rejected_with_line(self):
        with pytest.raises(SampleFormatError, match="line 3"):
            read_sample_csv(io.StringIO("# w=4.0\nk,mean\nzero,1.0\n"))
        with pytest.raises(SampleFormatError, match="line 4"):
            read_sample_csv(io.StringIO("# w=4.0\nk,mean\n0,1.0\n1,abc\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# w=abc\nk,mean\n0,1.0\n", "line 1: bad rate value 'abc'"),
            ("# w=0\nk,mean\n0,1.0\n", "line 1: rate must be positive and finite, got '0'"),
            ("# w=-4.0\nk,mean\n0,1.0\n", "line 1: rate must be positive and finite, got '-4.0'"),
            ("# w=nan\nk,mean\n0,1.0\n", "line 1: rate must be positive and finite, got 'nan'"),
            ("# w=inf\nk,mean\n0,1.0\n", "line 1: rate must be positive and finite, got 'inf'"),
            ("# w=4.0\nx,mean\n0,1.0\n", "line 2: expected header 'k,mean', got ['x', 'mean']"),
            ("# w=4.0\nk,mean\n0,1.0,2.0\n", "line 3: expected 2 fields, got 3"),
            ("# w=4.0\nk,mean\n\n", "no rows after the header on line 2"),
            # a quoted field spans lines 3-4, so the bad mean is on line 6
            ('# w=4.0\nk,mean\n"0\n",1.0\n1,2.0\n2,x\n', "line 6: bad mean value 'x'"),
            # a lone CR ends a line, so "0" stands alone, although int("0\r") is 0
            ("# w=4.0\nk,mean\n0\r,1.0\n", "line 3: expected 2 fields, got 1"),
            # csv refuses a mean of 131,074 characters, over its limit of 131,072
            ("# w=4.0\nk,mean\n0,1.0\n1,0." + "1" * 131072 + "\n",
             "line 4: field larger than field limit (131072)"),
        ],
        ids=["bad-rate", "zero-rate", "negative-rate", "nan-rate", "inf-rate",
             "wrong-header", "three-fields", "no-rows", "quoted-line-break", "cr-inside-row",
             "field-over-limit"],
    )
    def test_malformed_file_rejected_with_line(self, text, message):
        with pytest.raises(SampleFormatError, match=re.escape(message)):
            read_sample_csv(io.StringIO(text))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_mean_rejected_with_line(self, token):
        with pytest.raises(SampleFormatError, match=f"line 4: mean value must be finite, got '{token}'"):
            read_sample_csv(io.StringIO(f"# w=4.0\nk,mean\n0,1.0\n1,{token}\n2,1.0\n"))
