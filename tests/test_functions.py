"""Built-in test functions: registry behavior and derivative consistency."""

import dataclasses
import math

import numpy as np
import pytest

from expsamp.functions import BUILTIN_FUNCTIONS, get_function


def _mellin_fd(g, x: float) -> float:
    """x * g'(x) by Richardson-extrapolated central differences."""
    h = 1e-4 * max(1.0, abs(x))
    d_h = (g(x + h) - g(x - h)) / (2.0 * h)
    d_2h = (g(x + 2 * h) - g(x - 2 * h)) / (4.0 * h)
    return x * (4.0 * d_h - d_2h) / 3.0


class TestRegistry:
    def test_known_names(self):
        for name in ("log", "log2", "log3", "cos4exp", "sinmix"):
            f = get_function(name)
            assert f.label == name
            assert callable(f.theta(3))
            with pytest.raises(ValueError, match=f"{name}: Mellin derivative of order 4 not available"):
                f.theta(4)

    def test_constant_parsing(self):
        f = get_function("const:2.5")
        assert f.f(0.3) == 2.5
        assert f.theta(1)(0.3) == 0.0
        assert f.theta(3)(9.0) == 0.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown function"):
            get_function("exp")
        with pytest.raises(ValueError, match="bad constant"):
            get_function("const:abc")

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_constant_rejected(self, c):
        with pytest.raises(ValueError, match=f"'const:{c}' must be finite, got {c}"):
            get_function(f"const:{c}")

    def test_missing_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            get_function("log").theta(4)


class TestDerivativeConsistency:
    """Each stored theta^j must match x d/dx applied to theta^(j-1)."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_FUNCTIONS))
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_finite_difference_chain(self, name, j):
        f = get_function(name)
        lo, hi = f.eval_interval
        prev = f.theta(j - 1)
        cur = f.theta(j)
        for x in np.linspace(lo * 1.02, hi * 0.98, 23):
            fd = _mellin_fd(prev, x)
            assert fd == pytest.approx(cur(x), abs=1e-6 * (1.0 + abs(cur(x))))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_log_family_closed_forms(self, p):
        """theta^j (log x)^p = p!/(p-j)! (log x)^(p-j), and exactly 0 for j > p."""
        f = get_function("log" if p == 1 else f"log{p}")
        for x in (0.6, 1.0, 2.2585, 2.9):
            L = math.log(x)
            for j in range(1, 4):
                want = math.perm(p, j) * L ** (p - j) if j <= p else 0.0
                assert f.theta(j)(x) == want, (j, x)

    # Hand-written f', f'', f''' of the oscillatory built-ins; theta^j is
    # composed from them as x f' + ...
    ORDINARY = {
        "cos4exp": (
            lambda x: 4.0 * math.exp(x) * math.sin(4.0 * math.exp(x)),
            lambda x: (4.0 * math.exp(x) * math.sin(4.0 * math.exp(x))
                       + 16.0 * math.exp(2.0 * x) * math.cos(4.0 * math.exp(x))),
            lambda x: (4.0 * math.exp(x) * math.sin(4.0 * math.exp(x))
                       + 48.0 * math.exp(2.0 * x) * math.cos(4.0 * math.exp(x))
                       - 64.0 * math.exp(3.0 * x) * math.sin(4.0 * math.exp(x))),
        ),
        "sinmix": (
            lambda x: 2.0 * math.pi * math.cos(2.0 * math.pi * x) + math.pi * math.cos(0.5 * math.pi * x),
            lambda x: (-4.0 * math.pi ** 2 * math.sin(2.0 * math.pi * x)
                       - 0.5 * math.pi ** 2 * math.sin(0.5 * math.pi * x)),
            lambda x: (-8.0 * math.pi ** 3 * math.cos(2.0 * math.pi * x)
                       - 0.25 * math.pi ** 3 * math.cos(0.5 * math.pi * x)),
        ),
    }

    @pytest.mark.parametrize("name", sorted(ORDINARY))
    def test_theta_is_the_composition_bit_for_bit(self, name):
        """theta f = x f', theta^2 f = x f' + x^2 f'' and theta^3 f = x f' +
        3x^2 f'' + x^3 f''', each composed in that order, equal the built-in's
        theta^j bit for bit at 10,000 seeded points over 0.8-1.2x its interval."""
        df, d2f, d3f = self.ORDINARY[name]
        oracle = (
            lambda x: x * df(x),
            lambda x: x * df(x) + x * x * d2f(x),
            lambda x: x * df(x) + 3.0 * x * x * d2f(x) + x ** 3 * d3f(x),
        )
        f = get_function(name)
        lo, hi = f.eval_interval
        rng = np.random.default_rng(20)
        for x in rng.uniform(0.8 * lo, 1.2 * hi, 10_000).tolist():
            for j in range(1, 4):
                assert f.theta(j)(x) == oracle[j - 1](x), (j, x)


class TestAtLog:
    """f_at_log maps a list of u to [f(e^u) for u in us], the operator's
    integrand on the log axis."""

    US = np.concatenate([np.linspace(-700.0, 6.5, 4001), np.linspace(-1.0, 1.0, 2001)]).tolist()

    @pytest.mark.parametrize("name", ["cos4exp", "sinmix", "const:-2.5", "const:1"])
    def test_bit_identical_to_f_of_exp(self, name):
        f = get_function(name)
        got = f.f_at_log(self.US)
        assert len(got) == len(self.US)
        for u, value in zip(self.US, got):
            assert value == f.f(math.exp(u)), u

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_log_family_is_u_to_the_p(self, p):
        """(log e^u)^p = u^p: the closed form differs from the round trip
        by the rounding of exp and log, about one ulp of max(1, |u|) in u."""
        f = get_function("log" if p == 1 else f"log{p}")
        got = f.f_at_log(self.US)
        assert len(got) == len(self.US)
        for u, value in zip(self.US, got):
            trip = f.f(math.exp(u))
            assert value == u ** p
            assert abs(value - trip) <= 4.5e-16 * p * max(1.0, abs(u)) ** p, u

    @pytest.mark.parametrize("name", ["log", "cos4exp", "sinmix", "const:-2.5"])
    def test_empty_and_single_lists(self, name):
        """A value does not depend on the other u of the list."""
        f = get_function(name)
        assert f.f_at_log([]) == []
        assert f.f_at_log([0.25]) == f.f_at_log([-3.0, 0.25, 1.5])[1:2]

    @pytest.mark.parametrize("name", ["log3", "sinmix", "const:2"])
    def test_replace_keeps_f_at_log(self, name):
        """A function whose f is swapped by dataclasses.replace, as a tracer
        that wraps f does, still integrates the original f_at_log, and keeps
        its log monomial."""
        f = get_function(name)
        g = dataclasses.replace(f, f=lambda x: 0.0)
        assert g.f_at_log is f.f_at_log
        assert g.log_monomial == f.log_monomial


class TestLogMonomial:
    """The log family and constants are c (log x)^p, built by one builder."""

    XS = np.concatenate([np.geomspace(1e-300, 1e300, 2001), np.linspace(0.05, 20.0, 2001)])

    @pytest.mark.parametrize("name, c, p", [
        ("log", 1.0, 1), ("log2", 1.0, 2), ("log3", 1.0, 3), ("cos4exp", None, None),
        ("const:-2.5", -2.5, 0), ("const:1e-300", 1e-300, 0), ("const:1", 1.0, 0),
    ])
    def test_fields(self, name, c, p):
        f = get_function(name)
        assert f.log_monomial == (None if p is None else (c, p))

    @pytest.mark.parametrize("name", ["log", "log2", "log3", "const:-2.5", "const:-0", "const:1"])
    def test_values_as_the_separate_builders_gave(self, name):
        """f, f_at_log and theta^j equal, with ==, the forms the separate
        constant and log-power builders wrote: c, u^p, (log x)^p and
        p!/(p-j)! (log x)^(p-j)."""
        f = get_function(name)
        if name.startswith("const"):
            c = float(name[6:])
            old = [lambda x: c] + [lambda x: 0.0] * 3
            old_at_log = lambda u: c
        else:
            p = 1 if name == "log" else int(name[3:])
            old = [(lambda x, j=j: float(math.perm(p, j)) * math.log(x) ** (p - j))
                   if j <= p else (lambda x: 0.0) for j in range(4)]
            old[0] = lambda x: math.log(x) ** p
            old_at_log = lambda u: u ** p
        for x in self.XS.tolist():
            for j in range(4):
                assert f.theta(j)(x) == old[j](x), (j, x)
        us = [math.log(x) for x in self.XS.tolist()]
        for u, value in zip(us, f.f_at_log(us)):
            assert value == old_at_log(u), u
