import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from sfrac.coeff import (check_conditions, constant_profile, differentiate,
                         evaluate, make_profile, parse_expr,
                         poincare_constant)
from sfrac.errors import EvalError, ExprSyntaxError

ACCEPT = [
    "1",
    "1+0.1*x",
    "sin(x)^2",
    "-x",
    "--x",
    "2^3^2",
    "1+2*3",
    "(1+2)*3",
    "sqrt(x)",
    "exp(-x)",
    "cos(x)*sin(x)",
    "1.5e-3",
    "2.5E+2",
    " 1 + x ",
    "x^2",
    "1/(1+x)",
    "-(x+1)",
    "1-2-3",
    "sqrt(exp(x))",
    "0.5*(1+cos(2*x))",
]

REJECT = [
    "1+*x",
    "",
    "(1+x",
    "y",
    "sin",
    "1..2",
    "x x",
    "tan(x)",
    "1+",
    "2**3",
]


class TestParser:
    @pytest.mark.parametrize("text", ACCEPT)
    def test_accepts(self, text):
        parse_expr(text)

    @pytest.mark.parametrize("text", REJECT)
    def test_rejects(self, text):
        with pytest.raises(ExprSyntaxError):
            parse_expr(text)

    def test_offset_reported(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("1+*x")
        assert exc.value.offset == 2

    def test_precedence(self):
        assert evaluate(parse_expr("1+2*3")) == 7.0
        assert evaluate(parse_expr("(1+2)*3")) == 9.0
        assert evaluate(parse_expr("1-2-3")) == -4.0

    def test_power_right_associative(self):
        assert evaluate(parse_expr("2^3^2")) == 512.0

    def test_unary_minus_around_power(self):
        # the base of '^' is a unary production, its exponent a factor
        assert evaluate(parse_expr("-2^2")) == 4.0
        assert evaluate(parse_expr("2^-2")) == 0.25

    def test_call_precedence(self):
        # sin(x)^2, not sin(x^2)
        val = evaluate(parse_expr("sin(x)^2"), x=0.7)
        assert math.isclose(val, math.sin(0.7) ** 2, rel_tol=1e-15)

    def test_scientific_numbers(self):
        assert evaluate(parse_expr("1.5e-3")) == 1.5e-3
        assert evaluate(parse_expr("2.5E+2")) == 250.0

    def test_extended_variables(self):
        e = parse_expr("x*y+z", variables=("x", "y", "z"))
        assert evaluate(e, x=2.0, y=3.0, z=1.0) == 7.0
        with pytest.raises(ExprSyntaxError):
            parse_expr("x*y", variables=("x",))


class TestEvaluate:
    def test_vectorized(self):
        xs = np.linspace(0, 1, 11)
        vals = evaluate(parse_expr("1+0.1*x"), x=xs)
        assert np.allclose(vals, 1 + 0.1 * xs)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse_expr("1/x"), x=0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse_expr("sqrt(x)"), x=-1.0)

    @pytest.mark.parametrize("scalar, array", [
        ("10^400", "10^(400*x)"),
        ("(0-8)^(1/3)", "(0-8*x)^(1/3)"),
        ("0^(0-1)", "(0*x)^(0-1)")])
    def test_power_off_the_real_domain(self, scalar, array):
        # overflow, a negative base and a pole end in one EvalError, on
        # scalars as on arrays, without a RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalError, match="power left the real domain"):
                evaluate(parse_expr(scalar))
            with pytest.raises(EvalError, match="power left the real domain"):
                evaluate(parse_expr(array), x=np.ones(3))


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse_expr("x^2"))
        assert evaluate(d, x=3.0) == 6.0

    def test_chain_rule_sin(self):
        assert str(differentiate(parse_expr("sin(x)"))) == "cos(x)"

    def test_constant_rule(self):
        assert evaluate(differentiate(parse_expr("5")), x=0.3) == 0.0

    @pytest.mark.parametrize("text", [
        "1+0.1*x", "sin(x)^2", "exp(-x)", "sqrt(1+x)", "x/(1+x)",
        "cos(2*x)*x", "0.5*(1+cos(2*x))", "exp(x)*sin(x)", "x^3", "2^3^2",
    ])
    def test_against_finite_differences(self, text):
        e = parse_expr(text)
        de = differentiate(e)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.05, 2.0, 100)
        h = 1e-6
        sym = np.asarray(evaluate(de, x=xs), dtype=float) + np.zeros_like(xs)
        fd = (np.asarray(evaluate(e, x=xs + h), dtype=float)
              - np.asarray(evaluate(e, x=xs - h), dtype=float)) / (2 * h)
        assert np.max(np.abs(sym - fd) / (1.0 + np.abs(sym))) <= 1e-6

    @pytest.mark.parametrize("text", ["1+x^0", "1+0*sqrt(x)"])
    def test_no_term_times_an_exact_zero_is_evaluated(self, text):
        # sqrt'(0) is a pole: the derivative must drop the term it sits
        # in, not evaluate it times 0 (the hypothesis report samples x = 0)
        d = differentiate(parse_expr(text))
        assert np.all(evaluate(d, x=np.array([0.0, 0.5])) == 0.0)
        r = check_conditions([make_profile(1, text, 1.0)], (1.0,))
        assert r.phi_sup == 0.0 and r.pass_

    @pytest.mark.parametrize("c", [1e200, 1e-160])
    def test_constant_divisor_has_no_square(self, c):
        # d(x/c) = 1/c: the quotient rule's c^2 would overflow at 1e200 and
        # go subnormal at 1e-160, failing the spot check of make_profile on
        # a box of side c
        d = differentiate(parse_expr(f"x/{c!r}"))
        assert str(d) == str(parse_expr(f"1/{c!r}"))
        assert str(differentiate(parse_expr(f"2/{c!r}"))) == "0.0"
        assert make_profile(1, f"x/{c!r}-0.45", c).da(0.5 * c) == 1.0 / c

    def test_random_expressions_against_five_point_differences(self):
        # seeded draws from the whole grammar; an expression that leaves
        # the real domain near the points, or grows past 100, is redrawn
        rng = np.random.default_rng(25)
        xs = np.linspace(0.3, 1.2, 7)
        h = 1e-4
        seen = set()
        for _ in range(300):
            while True:
                kinds = set()
                e = parse_expr(_random_expr(rng, 4, kinds))
                try:
                    f = {k: np.asarray(evaluate(e, x=xs + k * h), dtype=float)
                         + np.zeros_like(xs) for k in (-2, -1, 0, 1, 2)}
                except EvalError:
                    continue
                if np.max(np.abs(f[0])) <= 100.0:
                    break
            sym = (np.asarray(evaluate(differentiate(e), x=xs), dtype=float)
                   + np.zeros_like(xs))
            fd = (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12.0 * h)
            assert np.max(np.abs(sym - fd) / (1.0 + np.abs(sym))) <= 1e-6, e
            seen |= kinds
        assert seen == set(_OPERATIONS)


_OPERATIONS = ("neg", "sin", "cos", "exp", "sqrt", "^", "+", "-", "*", "/")


def _random_expr(rng, depth, kinds) -> str:
    """A random expression text of at most `depth` nested operations, each
    drawn from _OPERATIONS and added to the set kinds."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.choice(["x", "x", "0.5", "2", "1.5", "0", "1"]))
    kind = str(rng.choice(_OPERATIONS))
    kinds.add(kind)
    a = _random_expr(rng, depth - 1, kinds)
    if kind == "neg":
        return f"(-{a})"
    if kind == "^":  # a constant exponent, the only kind with a derivative
        return f"({a})^{rng.choice(['0', '1', '2', '3', '0.5', '(0-1)'])}"
    if kind in ("+", "-", "*", "/"):
        return f"({a}{kind}{_random_expr(rng, depth - 1, kinds)})"
    return f"{kind}({a})"


class TestPoincare:
    def test_known_values(self):
        assert math.isclose(poincare_constant((math.pi,)), 1.0, rel_tol=1e-15)
        assert math.isclose(poincare_constant((1.0,)), 1 / math.pi,
                            rel_tol=1e-15)
        assert math.isclose(poincare_constant((math.pi, 2 * math.pi)), 2.0,
                            rel_tol=1e-15)

    def test_against_discrete_dirichlet_oracle(self):
        # 1/sqrt(lambda_min) of the narrow second difference -> L/pi as h -> 0
        L = math.pi
        estimates = []
        for n in (200, 400):
            h = L / (n + 1)
            main = 2.0 * np.ones(n)
            off = -np.ones(n - 1)
            lam = scipy.linalg.eigh_tridiagonal(main, off,
                                                eigvals_only=True)[0] / h ** 2
            estimates.append(1.0 / math.sqrt(lam))
        # Richardson in h^2
        extrap = estimates[1] + (estimates[1] - estimates[0]) / 3.0
        assert abs(extrap - poincare_constant((L,))) < 1e-6

    def test_monotone_in_lengths(self):
        assert poincare_constant((1.0, 2.0)) > poincare_constant((1.0, 1.5))


class TestProfiles:
    def test_make_profile_attaches_derivative(self):
        p = make_profile(1, "1+0.1*x", 1.0)
        assert math.isclose(p.da(0.3), 0.1, rel_tol=1e-12)

    def test_constant_profile(self):
        p = constant_profile(2, 1.5, 2.0)
        assert p.a(0.7) == 1.5 and p.da(0.7) == 0.0


class TestConditionReport:
    def test_constant_coefficients_exact(self):
        lengths = (math.pi, math.pi, math.pi)
        profiles = [constant_profile(i + 1, 1.0, L)
                    for i, L in enumerate(lengths)]
        r = check_conditions(profiles, lengths)
        assert r.margins == (1.0, 1.0, 1.0)
        assert r.phi_sup == 0.0
        assert r.c_a == 1.0
        assert r.k_const == 0.5
        assert r.tau == 0.5
        assert r.theta == 2.0 * math.sqrt(2.0)
        assert r.pass_

    def test_constant_scaling_monotonicity(self):
        lengths = (1.0,)
        r1 = check_conditions([constant_profile(1, 1.0, 1.0)], lengths)
        r2 = check_conditions([constant_profile(1, 2.0, 1.0)], lengths)
        assert math.isclose(r2.c_a, r1.c_a / 2.0, rel_tol=1e-15)
        assert math.isclose(r2.margins[0], 4.0 * r1.margins[0], rel_tol=1e-15)

    def test_variable_example(self):
        lengths = (1.0, 1.0, 1.0)
        profiles = [make_profile(i + 1, "1+0.1*x", 1.0) for i in range(3)]
        r = check_conditions(profiles, lengths)
        assert r.pass_
        assert math.isclose(r.k_const, 0.4985, abs_tol=5e-4)
        for m in r.margins:
            assert math.isclose(m, 0.938, abs_tol=1e-3)
        assert math.isclose(r.phi_sup, 0.1 * math.sqrt(3.0), rel_tol=1e-12)
        assert math.isclose(r.c_omega, 1 / math.pi, rel_tol=1e-15)

    def test_failing_example(self):
        lengths = (10.0, 10.0, 10.0)
        profiles = [make_profile(i + 1, "0.01+x^2", 10.0) for i in range(3)]
        r = check_conditions(profiles, lengths)
        assert not r.pass_
        assert min(r.margins) < 0.0

    def test_magnitudes_past_the_floats_give_a_report(self):
        # C_a^2 = 1e320 and C_Omega^2 = 1e399 pass the largest float; a
        # constant set keeps K = 1/2 (no 0 * inf), exp(-500 x) fails
        exact = (0.5, 0.5, 2.0 * math.sqrt(2.0))
        r = check_conditions([constant_profile(1, 1e-160, 1.0)], (1.0,))
        assert (r.k_const, r.tau, r.theta) == exact
        r = check_conditions([constant_profile(1, 1.0, 1e200)], (1e200,))
        assert (r.k_const, r.tau, r.theta) == exact and r.pass_
        r = check_conditions([make_profile(1, "exp(-500*x)", 1.0)], (1.0,))
        assert r.k_const == -math.inf and not r.pass_

    def test_kappa(self):
        profiles = [constant_profile(1, 1.0, math.pi)]
        r = check_conditions(profiles, (math.pi,))
        assert r.kappa_at(0.25) == 0.25
        assert r.kappa_at(4.0) == 1.0

    def test_flat_dict_keys(self):
        r = check_conditions([constant_profile(1, 1.0, 1.0)], (1.0,))
        d = r.as_flat_dict()
        for key in ("c_omega", "c_a", "phi_sup", "k_const", "tau", "theta",
                    "pass", "check_margins_positive", "check_k_positive",
                    "check_coefficients_positive", "margin_1", "inf_a_1",
                    "domain_note"):
            assert key in d
