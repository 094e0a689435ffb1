"""Moment computations: direct sums, frequency side, suprema, brackets."""

import math
from fractions import Fraction

import numpy as np
import pytest

import exact
from expsamp import moments
from expsamp.kernels import parse_kernel_spec
from expsamp.combinations import solve_coefficients
from expsamp.moments import (
    absolute_moment_at_log,
    absolute_moment_sup,
    algebraic_moment,
    algebraic_moment_at_log,
    build_moment_report,
    kantorovich_bracket_at_log,
    poisson_moment,
)

B2 = parse_kernel_spec("bspline:2")
B4 = parse_kernel_spec("bspline:4")
COMBO = parse_kernel_spec("combo:4:e^1:e^2")

# Kernels whose M_nu is continuous in u, and order-1 kernels, which jump.
CONTINUOUS_SPECS = [f"bspline:{n}" for n in range(1, 11)] + ["combo:4:e^1:e^2", "combo:6:2.5:0.3"]
JUMP_SPECS = ["combo:1:e^1/3:e^-1/2", "combo:1:1.3:0.6"]


# ---------------------------------------------------------------------------
# grid oracle for sup M_nu, independent of the library's evaluators


def _oracle_bspline(n, t):
    """Centred cardinal B-spline by the Cox-de Boor recursion on knots 0..n."""
    x = np.asarray(t, dtype=float) + 0.5 * n
    basis = [((j <= x) & (x < j + 1)).astype(float) for j in range(n)]
    for m in range(2, n + 1):
        basis = [
            ((x - j) * basis[j] + (j + m - x) * basis[j + 1]) / (m - 1)
            for j in range(n - m + 1)
        ]
    return basis[0]


def _oracle_moment_map(spec):
    """(nu, s) -> M_nu(chi, e^s) for an array s in about [0, 1]."""
    kernel = parse_kernel_spec(spec)
    n = kernel.order
    terms = [(float(c), float(a)) for c, a in kernel.terms]
    reach = math.ceil(0.5 * n + max(abs(shift) for _, shift in terms)) + 2
    ks = np.arange(-reach, reach + 2)

    def moment_map(nu, s):
        t = s[:, None] - ks[None, :]
        chi = sum(c * _oracle_bspline(n, t + shift) for c, shift in terms)
        return np.sum(np.abs(chi) * np.abs(t) ** nu, axis=1)

    return moment_map


def _grid_sup(moment_map, nu, grid_size=4096):
    """Grid estimate of sup M_nu: the best point of a grid on [0, 1), then
    zooming around it down to ~1e-11.  It approaches the sup from below."""
    s = np.arange(grid_size) / grid_size
    values = moment_map(nu, s)
    i = int(np.argmax(values))
    best, best_s = float(values[i]), float(s[i])
    radius = 1.0 / grid_size
    while radius > 1e-11:
        s = best_s - radius + np.arange(33) * (radius / 16)
        values = moment_map(nu, s)
        i = int(np.argmax(values))
        if values[i] > best:
            best, best_s = float(values[i]), float(s[i])
        radius /= 8.0
    return best


class TestAlgebraicMoment:
    def test_order_zero_is_partition_of_unity(self):
        assert algebraic_moment(B2, 0, 3.7) == pytest.approx(1.0, abs=1e-13)

    def test_b2_first_moment_vanishes(self):
        assert algebraic_moment(B2, 1, math.exp(0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_b2_second_moment_hand_sums(self):
        """At u = 1 only the k = 0 term survives and carries weight 0^2;
        at u = e^(1/2) two terms 0.5 * (1/2)^2 add to 1/4."""
        assert algebraic_moment(B2, 2, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert algebraic_moment(B2, 2, math.exp(0.5)) == pytest.approx(0.25, abs=1e-13)

    def test_b4_second_moment_constant_third(self):
        rng = np.random.default_rng(1)
        for u in rng.uniform(0.2, 5.0, size=50):
            assert algebraic_moment(B4, 2, u) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_combo_second_moment(self):
        rng = np.random.default_rng(2)
        for u in rng.uniform(0.2, 5.0, size=50):
            assert algebraic_moment(COMBO, 2, u) == pytest.approx(-5.0 / 3.0, abs=1e-12)

    def test_periodic_in_log_u(self):
        """m_nu(chi, u) = m_nu(chi, e*u): the map depends on log(u) mod 1."""
        rng = np.random.default_rng(3)
        for kernel in (B2, B4, COMBO):
            for nu in (0, 1, 2, 3):
                for u in rng.uniform(0.3, 3.0, size=25):
                    assert algebraic_moment(kernel, nu, u) == pytest.approx(
                        algebraic_moment(kernel, nu, math.e * u), abs=1e-12
                    )

    def test_order_and_domain_validation(self):
        with pytest.raises(ValueError):
            algebraic_moment(B2, 9, 1.0)
        with pytest.raises(ValueError):
            algebraic_moment(B2, -1, 1.0)
        with pytest.raises(ValueError):
            algebraic_moment(B2, 1, 0.0)


class TestAbsoluteMoment:
    def test_nonnegative_kernel_orders_match(self):
        rng = np.random.default_rng(4)
        for u in rng.uniform(0.2, 5.0, size=30):
            assert absolute_moment_at_log(B2, 0, math.log(u)) == pytest.approx(1.0, abs=1e-13)

    def test_b2_first_absolute_at_half(self):
        """0.5 * (1/2) + 0.5 * (1/2) = 1/2."""
        assert absolute_moment_at_log(B2, 1, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_combo_zeroth_exceeds_one(self):
        """|c1| + |c2| = 3 > 1 allows the absolute sum to exceed unity."""
        assert absolute_moment_at_log(COMBO, 0, 0.0) >= 1.0 - 1e-12

    def test_dominates_algebraic(self):
        rng = np.random.default_rng(5)
        for kernel in (B2, B4, COMBO):
            for nu in range(5):
                for u in rng.uniform(0.2, 5.0, size=20):
                    assert abs(algebraic_moment(kernel, nu, u)) <= absolute_moment_at_log(
                        kernel, nu, math.log(u)
                    ) + 1e-13


class TestAbsoluteMomentSup:
    def test_b2_values(self):
        """Hand maxima of the periodic moment maps of the order-2 spline:
        constant 1 at order 0, peak 1/2 then 1/4 at half-integer log u."""
        assert absolute_moment_sup(B2, 0) == pytest.approx(1.0, abs=1e-12)
        assert absolute_moment_sup(B2, 1) == pytest.approx(0.5, abs=1e-10)
        assert absolute_moment_sup(B2, 2) == pytest.approx(0.25, abs=1e-10)

    def test_b4_first_order_hand_value(self):
        """At half-integer log u the order-4 spline sits at values 23/48 and
        1/48, giving M_1 = 2*(23/96 + 3/96) = 13/24, the maximum."""
        assert absolute_moment_sup(B4, 1) == pytest.approx(13.0 / 24.0, abs=1e-10)

    def test_b4_third_order_hand_value(self):
        """At integer log u only the neighbours at distance 1 contribute:
        2 * B4(e) * 1 = 1/3, which is the maximum of the cubic map."""
        assert absolute_moment_sup(B4, 3) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_bounds_every_sampled_value(self):
        """The sup dominates M_nu at every point of a grid, and so every grid
        estimate, which grows as the grid is refined."""
        grid = np.arange(1024) / 1024
        moment_map = _oracle_moment_map("combo:4:e^1:e^2")
        for nu in (1, 2, 3):
            sup = absolute_moment_sup(COMBO, nu)
            assert max(absolute_moment_at_log(COMBO, nu, s) for s in grid) <= sup + 1e-12
            coarse = _grid_sup(moment_map, nu, 64)
            fine = _grid_sup(moment_map, nu, 1024)
            assert coarse <= fine + 1e-12
            assert fine <= sup * (1.0 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            absolute_moment_sup(B2, 9)
        with pytest.raises(ValueError):
            absolute_moment_sup(B2, -1)

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS)
    def test_matches_grid_oracle(self, spec):
        kernel = parse_kernel_spec(spec)
        moment_map = _oracle_moment_map(spec)
        for nu in range(9):
            want = _grid_sup(moment_map, nu)
            assert absolute_moment_sup(kernel, nu) == pytest.approx(want, rel=1e-12, abs=0.0), nu

    @pytest.mark.parametrize("spec", JUMP_SPECS)
    def test_jump_kernels_reach_the_limit(self, spec):
        """Order-1 kernels jump at knots, and the sup can be a one-sided
        limit that no u attains; a grid only approaches it from below.
        The exact sup is at least the grid's (up to round-off) and at most
        1e-9 above it."""
        kernel = parse_kernel_spec(spec)
        moment_map = _oracle_moment_map(spec)
        for nu in range(9):
            grid = _grid_sup(moment_map, nu)
            exact = absolute_moment_sup(kernel, nu)
            assert grid * (1.0 - 1e-15) <= exact <= grid * (1.0 + 1e-9), nu

    def test_unattained_limit_value(self):
        """combo:1:e^1/3:e^-1/2 is 3/5 on [-5/6, 1/6) plus 2/5 on [0, 1).
        On (1/6, 1), M_5(chi, e^s) = 2/5 s^5 + 3/5 (1 - s)^5, which rises to
        2/5 as s -> 1, while M_5 at s = 0 is 0: sup M_5 = 2/5, never attained."""
        kernel = parse_kernel_spec("combo:1:e^1/3:e^-1/2")
        assert absolute_moment_sup(kernel, 5) == pytest.approx(0.4, abs=1e-15)


def _clenshaw(c, x):
    b1 = b2 = 0.0
    for ck in reversed(c[1:]):
        b1, b2 = 2.0 * x * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _newton(c, dc, a, b, fa):
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = _clenshaw(c, x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a = x
        else:
            b = x
        slope = _clenshaw(dc, x)
        nx = x - fx / slope if slope else a
        if not a < nx < b:
            nx = 0.5 * (a + b)
        if abs(nx - x) <= 4e-16 or b - a <= 4e-16:
            return nx
        x = nx
    return x


def _roots(c):
    """The root search as first written: Clenshaw with 2.0 * x * b1 in the
    loop, every bound summed from a generator."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    c = c[:n]
    if n <= 1 or abs(c[0]) > math.fsum(abs(v) for v in c[1:]):
        return []
    dc = moments._cheb_derivative(c)
    ends = [-1.0, *_roots(dc), 1.0]
    roots, fa = [], _clenshaw(c, -1.0)
    for a, b in zip(ends, ends[1:]):
        fb = _clenshaw(c, b)
        if fa == 0.0 and a > -1.0:
            roots.append(a)
        elif fa < 0.0 < fb or fb < 0.0 < fa:
            roots.append(_newton(c, dc, a, b, fa))
        fa = fb
    return roots


class TestChebyshevRoots:
    def test_bit_identical_to_the_first_search(self):
        """1,200 seeded series of degree 1-17, the degrees the sup fits,
        give the same roots, bit for bit, as the search kept above."""
        rng = np.random.default_rng(42)
        found = 0
        for _ in range(1200):
            c = rng.normal(size=int(rng.integers(2, 19))) * rng.uniform(1e-3, 1e3)
            c[0] *= rng.uniform(0.0, 1.0)
            c = c.tolist()
            roots = moments._cheb_roots(c)
            assert roots == _roots(c), c
            found += len(roots)
        assert found > 2000

    @pytest.mark.parametrize("spec", [f"bspline:{n}" for n in range(1, 11)]
                             + ["combo:3:e^-1:e^2", "combo:6:e^-1000:e^1000", "combo:2:e^-1/2:e^3/2"])
    def test_no_sign_change_where_every_coefficient_is_positive(self, spec):
        """chi = sum_i c_i B_n(t + a_i) with every c_i > 0 never changes sign,
        so skipping the search for such kernels loses no breakpoint."""
        kernel = parse_kernel_spec(spec)
        assert all(c > 0 for c, _ in kernel.terms)
        assert moments._sign_changes(kernel) == []


class TestPoissonMoment:
    def test_b4_constants_at_zero_frequencies(self):
        """All transform derivatives through order 3 vanish at the nonzero
        frequencies for the order-4 spline, so K_max = 0 is exact:
        m_0..m_3 = (1, 0, 1/3, 0)."""
        for nu, want in [(0, 1.0), (1, 0.0), (2, 1.0 / 3.0), (3, 0.0)]:
            assert poisson_moment(B4, nu, 2.0, 0) == pytest.approx(want, abs=1e-12)

    def test_matches_direct_summation_where_frequencies_covered(self):
        rng = np.random.default_rng(6)
        cases = [(B4, (0, 1, 2, 3), 0), (COMBO, (0, 1, 2), 0), (B2, (0, 1), 200)]
        for kernel, orders, kmax in cases:
            for nu in orders:
                for u in rng.uniform(0.2, 5.0, size=25):
                    assert poisson_moment(kernel, nu, u, kmax) == pytest.approx(
                        algebraic_moment(kernel, nu, u), abs=1e-10
                    )

    def test_b2_second_order_truncation_tail(self):
        """For the order-2 spline the order-2 frequency terms decay like
        1/(2 pi^2 m^2); truncating at K leaves a tail bounded by 1/(pi^2 K).
        1e-10 agreement is impossible at K = 200, the analytic tail bound is
        the honest tolerance (and the u = 1 case attains it up to a factor)."""
        tail_bound = 1.0 / (math.pi ** 2 * 200)
        rng = np.random.default_rng(7)
        for u in list(rng.uniform(0.2, 5.0, size=40)) + [1.0, math.exp(0.5)]:
            got = poisson_moment(B2, 2, u, 200)
            want = algebraic_moment(B2, 2, u)
            assert abs(got - want) <= tail_bound * 1.05
        worst_u1 = abs(poisson_moment(B2, 2, 1.0, 200) - algebraic_moment(B2, 2, 1.0))
        assert worst_u1 > tail_bound / 25.0  # the tail is real, not round-off

    def test_spec_example_quarter(self):
        assert poisson_moment(B2, 2, math.exp(0.5), 50) == pytest.approx(0.25, abs=1e-4)

    def test_negative_truncation_refused(self):
        with pytest.raises(ValueError, match=r"^K_max must be >= 0, got -1$"):
            poisson_moment(B2, 2, 1.0, K_max=-1)

    def test_combo_of_order2_base_with_contributing_frequencies(self):
        """A combination built on the order-2 spline keeps nonzero
        frequency terms at order 2, exercising the translate phase factors
        e^(-2*pi*i*m*log(alpha)); agreement with direct summation at the
        truncation-tail tolerance, and exactly for orders 0 and 1 where
        the double zero of the base transform kills every frequency."""
        kernel = parse_kernel_spec("combo:2:e^1/2:e^-1/2")
        rng = np.random.default_rng(11)
        for u in rng.uniform(0.3, 3.0, size=15):
            for nu in (0, 1):
                assert poisson_moment(kernel, nu, u, 100) == pytest.approx(
                    algebraic_moment(kernel, nu, u), abs=1e-10
                )
            assert poisson_moment(kernel, 2, u, 200) == pytest.approx(
                algebraic_moment(kernel, 2, u), abs=2e-3
            )


class TestKantorovichBracket:
    def test_b4_values(self):
        """i = 1: 2 m_1 + m_0 = 1; i = 2: 3 m_2 + 3 m_1 + m_0 = 2."""
        for u in (0.7, 1.0, 3.3):
            assert kantorovich_bracket_at_log(B4, 1, math.log(u)) == pytest.approx(1.0, abs=1e-12)
            assert kantorovich_bracket_at_log(B4, 2, math.log(u)) == pytest.approx(2.0, abs=1e-12)

    def test_combo_value(self):
        """3 * (-5/3) + 0 + 1 = -4."""
        for u in (0.7, 1.0, 3.3):
            assert kantorovich_bracket_at_log(COMBO, 2, math.log(u)) == pytest.approx(-4.0, abs=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            kantorovich_bracket_at_log(B4, 7, 0.0)

    @pytest.mark.parametrize("spec", [f"bspline:{n}" for n in range(1, 11)] + [
        "combo:4:e^1:e^2", "combo:2:e^1/2:e^-1/2", "combo:7:e^-3/7:e^5/3", "combo:3:1.3:0.6"])
    def test_within_round_off_of_exact(self, spec):
        """At random log u, where most brackets depend on u, every order i =
        0..6 is within 2e-15 (1 + |value|) of the bracket in exact rationals,
        sum_k chi(log u - k) ((k + 1 - log u)^(i+1) - (k - log u)^(i+1)),
        which equals sum_{j=1}^{i+1} C(i+1, j) m_{i-j+1} over the same chi."""
        kernel = parse_kernel_spec(spec)
        for t in np.random.default_rng(23).uniform(-30.0, 30.0, 12):
            log_u = float(t)
            exact_t = Fraction(log_u)
            weights = {k: exact.chi(kernel, exact_t - k) for k in kernel.window(log_u)}
            for i in range(7):
                want = sum(c * ((k + 1 - exact_t) ** (i + 1) - (k - exact_t) ** (i + 1))
                           for k, c in weights.items())
                m = [sum(c * (k - exact_t) ** nu for k, c in weights.items()) for nu in range(i + 1)]
                assert want == sum(math.comb(i + 1, j) * m[i - j + 1] for j in range(1, i + 2))
                got = kantorovich_bracket_at_log(kernel, i, log_u)
                assert abs(Fraction(got) - want) <= Fraction(2e-15) * (1 + abs(want)), (log_u, i)


class TestMomentReport:
    def test_b4_flags_u_independent(self):
        for nu, want in [(0, 1.0), (1, 0.0), (2, 1.0 / 3.0), (3, 0.0)]:
            rep = build_moment_report(B4, nu)
            assert rep.u_independent
            assert rep.algebraic == pytest.approx(want, abs=1e-12)
            assert rep.absolute_sup >= abs(rep.algebraic) - 1e-12
            assert rep.absolute_sup >= 0.0

    def test_b2_second_moment_flagged_u_dependent(self):
        rep = build_moment_report(B2, 2)
        assert not rep.u_independent

    @pytest.mark.parametrize("spec", CONTINUOUS_SPECS + JUMP_SPECS)
    def test_u_independence_matches_frequency_side(self, spec):
        """m_nu is constant in u exactly when it equals the frequency side's
        constant term, poisson_moment at K_max = 0, at every u."""
        kernel = parse_kernel_spec(spec)
        probes = (np.arange(101) + 0.5) / 101
        for nu in range(9):
            mean = poisson_moment(kernel, nu, 1.0, 0)  # the same at every u
            deviation = max(abs(algebraic_moment_at_log(kernel, nu, s) - mean) for s in probes)
            assert build_moment_report(kernel, nu).u_independent == (deviation <= 1e-10), nu

    @pytest.mark.parametrize("spec", [
        *(f"bspline:{n}" for n in range(1, 11)), "combo:4:e^1:e^2", "combo:6:2.5:0.3", *JUMP_SPECS,
        *(f"combo:{n}:e^1/2:e^-1/2" for n in (1, 2, 3, 4, 7)),
        "combo:6:e^-1000:e^1000", "combo:4:e^-300:e^300"])
    def test_u_independent_exactly_below_the_order(self, spec):
        """m_nu is constant in u exactly when nu < n, proved in rationals.
        On each piece of one period between the fractional parts of the knots,
        m_nu is a polynomial of degree at most n - 1 + nu <= n + 7; so it is
        constant when it takes one value at n + 8 points inside every piece
        and at the breakpoints, and varies when it takes two."""
        kernel = parse_kernel_spec(spec)
        n = kernel.order
        breaks = sorted({x - math.floor(x) for _, a in kernel.terms
                         for x in (j - Fraction(n, 2) - a for j in range(n + 1))})
        points = [*breaks, *(lo + (hi - lo) * Fraction(j, n + 9)
                             for lo, hi in zip(breaks, [*breaks[1:], breaks[0] + 1])
                             for j in range(1, n + 9))]
        values = [exact.moments(kernel, s, 8) for s in points]
        for nu in range(9):
            constant = len({m[nu] for m in values}) == 1
            assert constant == (nu < n) == build_moment_report(kernel, nu).u_independent, nu

    def test_pieces_found_once_per_kernel_object(self, monkeypatch):
        """The sign-change search runs once for each kernel object, whatever
        nu asks; a second kernel parsed from the same spec searches anew."""
        calls = []
        search = moments._sign_changes
        monkeypatch.setattr(moments, "_sign_changes", lambda k: calls.append(k) or search(k))
        first, second = parse_kernel_spec("combo:4:e^1:e^2"), parse_kernel_spec("combo:4:e^1:e^2")
        reports = [build_moment_report(first, nu) for nu in range(4)]
        assert calls == [first]
        assert [build_moment_report(second, nu) for nu in range(4)] == reports
        assert calls == [first, second]

    def test_combo_second_moment_independent(self):
        rep = build_moment_report(COMBO, 2)
        assert rep.u_independent
        assert rep.algebraic == pytest.approx(-5.0 / 3.0, abs=1e-12)


class TestLogSpaceEntry:
    def test_large_rate_arguments_do_not_overflow(self):
        """Moments at u = x^w are evaluated from w*log(x) directly; x = 20,
        w = 500 would overflow as a power."""
        value = algebraic_moment_at_log(B4, 2, 500.0 * math.log(20.0))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestLocationValidation:
    ENTRY_POINTS = {
        "algebraic_moment": lambda u: algebraic_moment(B2, 1, u),
        "poisson_moment": lambda u: poisson_moment(B2, 1, u, 2),
        "build_moment_report": lambda u: build_moment_report(B2, 1, at_u=u),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("u", [0.0, -1.0, math.inf, math.nan])
    def test_rejected_with_the_location_named(self, name, u):
        with pytest.raises(ValueError, match=f"moment location u must be positive and finite, got {u}"):
            self.ENTRY_POINTS[name](u)
