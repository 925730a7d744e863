"""Coefficient expressions, symbolic derivatives, and the operator-hypothesis
constants.

The grammar (part of the config-file contract):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?          # right-assoc
    unary  := '-' unary | atom
    atom   := NUMBER | 'x' | '(' expr ')' | FUNC '(' expr ')'
    FUNC   := 'sin'|'cos'|'exp'|'sqrt'
    NUMBER := decimal literal with optional exponent

Whitespace is insignificant.  Coefficients depend on a single variable; the
initial-field parser reuses the same grammar with 'x','y','z' allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ExprSyntaxError

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var:
    name: str  # 'x', 'y' or 'z'

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg:
    arg: "Expr"

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/', '^'
    left: "Expr"
    right: "Expr"

    def __str__(self):
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class Call:
    func: str  # 'sin', 'cos', 'exp', 'sqrt'
    arg: "Expr"

    def __str__(self):
        return f"{self.func}({self.arg})"


Expr = Const | Var | Neg | Bin | Call

_FUNCS = ("sin", "cos", "exp", "sqrt")


# ---------------------------------------------------------------------------
# Parser (recursive descent; offsets are byte offsets into the input)


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.vars = variables
        self.pos = 0

    def error(self, message):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.peek()
            if c == "+" or c == "-":
                self.pos += 1
                e = Bin(c, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            c = self.peek()
            if c == "*" or c == "/":
                self.pos += 1
                e = Bin(c, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        e = self.unary()
        if self.peek() == "^":
            self.pos += 1
            return Bin("^", e, self.factor())  # right-associative
        return e

    def unary(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        c = self.peek()
        if c == "":
            self.error("unexpected end of expression")
        if c == "(":
            self.pos += 1
            e = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            return self.name()
        self.error(f"unexpected {c!r}")

    def number(self) -> Expr:
        start = self.pos
        t = self.text
        n = len(t)
        while self.pos < n and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < n and t[self.pos] == ".":
            self.pos += 1
            while self.pos < n and t[self.pos].isdigit():
                self.pos += 1
        if self.pos < n and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and t[self.pos].isdigit():
                while self.pos < n and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' was not an exponent
        lit = t[start:self.pos]
        try:
            return Const(float(lit))
        except ValueError:
            self.pos = start
            self.error(f"bad number literal {lit!r}")

    def name(self) -> Expr:
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos].isalpha():
            self.pos += 1
        word = t[start:self.pos]
        if word in self.vars:
            return Var(word)
        if word in _FUNCS:
            if not self.take("("):
                self.error(f"{word} requires parenthesized argument")
            e = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return Call(word, e)
        self.pos = start
        self.error(f"unknown name {word!r}")


def parse_expr(text: str, variables: tuple[str, ...] = ("x",)) -> Expr:
    """Parse an expression string; raises ExprSyntaxError with byte offset."""
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# Evaluation (vectorized over numpy arrays)


def evaluate(e: Expr, **values) -> np.ndarray | float:
    """Evaluate with named variable arrays/scalars, e.g. evaluate(e, x=xs).

    Raises EvalError on division by zero, sqrt of a negative, or any
    non-finite intermediate (pole of '^' with negative base etc.).
    """
    out = _eval(e, values)
    if isinstance(out, np.ndarray):
        if not np.all(np.isfinite(out)):
            raise EvalError(f"non-finite value evaluating {e}")
    elif not math.isfinite(out):
        raise EvalError(f"non-finite value evaluating {e}")
    return out


def _eval(e: Expr, values):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return values[e.name]
        except KeyError:
            raise EvalError(f"variable {e.name!r} not supplied") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, values)
    if isinstance(e, Bin):
        a = _eval(e.left, values)
        b = _eval(e.right, values)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(np.asarray(b) == 0.0):
                raise EvalError("division by zero")
            return a / b
        # '^'
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            r = np.power(a, b)
        if np.any(~np.isfinite(np.asarray(r))):
            raise EvalError("power left the real domain")
        return r
    if isinstance(e, Call):
        a = _eval(e.arg, values)
        if e.func == "sin":
            return np.sin(a)
        if e.func == "cos":
            return np.cos(a)
        if e.func == "exp":
            return np.exp(a)
        # sqrt
        if np.any(np.asarray(a) < 0.0):
            raise EvalError("sqrt of negative value")
        return np.sqrt(a)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Symbolic differentiation (w.r.t. a single variable)


def differentiate(e: Expr, var: str = "x") -> Expr:
    """Symbolic derivative in one walk: `_add`, `_mul` and `_neg` drop exact
    0 and 1 operands as it is built, so no term times an exact 0 is ever
    evaluated.  Constant subtrees of e are left to `evaluate`."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var))
    if isinstance(e, Call):
        outer = {"sin": Call("cos", e.arg), "cos": Neg(Call("sin", e.arg)),
                 "exp": e, "sqrt": Bin("/", Const(0.5), e)}[e.func]
        return _mul(outer, differentiate(e.arg, var))
    if not isinstance(e, Bin):
        raise TypeError(f"not an expression node: {e!r}")
    u, v = e.left, e.right
    du = differentiate(u, var)
    if e.op == "^":
        if not _is_constant(v):
            raise EvalError("cannot differentiate a variable exponent "
                            "(grammar has no log)")
        c = float(evaluate(v))
        if c == 0.0 or _is(du, 0.0):
            return Const(0.0)
        p = c - 1.0
        power = {0.0: Const(1.0), 1.0: u}.get(p, Bin("^", u, Const(p)))
        return _mul(_mul(Const(c), power), du)
    dv = differentiate(v, var)
    if e.op in "+-":
        return _add(e.op, du, dv)
    if e.op == "*":
        return _add("+", _mul(du, v), _mul(u, dv))
    num = _add("-", _mul(du, v), _mul(u, dv))  # '/': the quotient rule
    return num if _is(num, 0.0) else Bin("/", num, Bin("^", v, Const(2.0)))


def _is(e: Expr, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _neg(a: Expr) -> Expr:
    return Const(-a.value) if isinstance(a, Const) else Neg(a)


def _add(op: str, a: Expr, b: Expr) -> Expr:
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return b if op == "+" else _neg(b)
    return Bin(op, a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is(a, 0.0) or _is(b, 0.0):
        return Const(0.0)
    return b if _is(a, 1.0) else a if _is(b, 1.0) else Bin("*", a, b)


# ---------------------------------------------------------------------------
# Profiles and the hypothesis report


@dataclass(frozen=True)
class CoefficientProfile:
    """One axis coefficient a_l on [0, length] with its symbolic derivative."""

    axis: int  # 1, 2 or 3
    expr: Expr
    dexpr: Expr
    length: float

    def a(self, x) -> np.ndarray | float:
        return evaluate(self.expr, x=x)

    def da(self, x) -> np.ndarray | float:
        return evaluate(self.dexpr, x=x)


def _is_constant(e: Expr) -> bool:
    if isinstance(e, Const):
        return True
    if isinstance(e, Var):
        return False
    if isinstance(e, Neg):
        return _is_constant(e.arg)
    if isinstance(e, Bin):
        return _is_constant(e.left) and _is_constant(e.right)
    return _is_constant(e.arg)


def make_profile(axis: int, text: str, length: float) -> CoefficientProfile:
    """Parse a coefficient expression and attach its symbolic derivative.

    The derivative is spot-checked against a five-point central difference
    at a few interior points so a bad rule cannot slip into the hypothesis
    constants silently.  It runs in y = x/length, so it means the same on
    any box: |L a' - (difference quotient in y)| <= 1e-6*(1+|L a'|).
    """
    expr = parse_expr(text)
    dexpr = differentiate(expr)
    xs = np.linspace(0.12 * length, 0.93 * length, 17)
    h = 1e-6 * length  # a step of 1e-6 in y
    sym = length * (np.asarray(evaluate(dexpr, x=xs), dtype=float)
                    + np.zeros_like(xs))
    f = {k: np.asarray(evaluate(expr, x=xs + k * h), dtype=float)
         for k in (-2, -1, 1, 2)}
    fd = (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / 12e-6
    if np.max(np.abs(sym - fd) / (1.0 + np.abs(sym))) > 1e-6:
        raise EvalError(f"symbolic derivative of {text!r} disagrees with "
                        "finite differences")
    return CoefficientProfile(axis, expr, dexpr, float(length))


def constant_profile(axis: int, value: float, length: float) -> CoefficientProfile:
    return CoefficientProfile(axis, Const(float(value)), Const(0.0),
                              float(length))


def poincare_constant(lengths) -> float:
    """max_l L_l / pi: the per-direction Dirichlet Poincare constant of a box,
    valid for every axis simultaneously."""
    return max(lengths) / math.pi


_CONDITION_SAMPLES = 1024  # per axis, in check_conditions


@dataclass(frozen=True)
class ConditionReport:
    """All constants of the imaginary-axis resolvent estimate, plus pass/fail.

    pass_ is exactly (all margins > 0) and (k_const > 0); those are the two
    hypotheses under which every purely imaginary s != 0 is a regular point
    of T and the resolvents obey norm <= theta/|s|.
    """

    c_omega: float
    c_a: float
    phi_sup: float
    margins: tuple
    k_const: float
    tau: float
    theta: float
    pass_: bool
    inf_a: tuple
    domain_note: str = ("box domain: per-direction Poincare inequality holds "
                        "by 1-D slicing; corners are harmless for it")

    def kappa_at(self, s1_squared: float) -> float:
        return min(s1_squared, min(self.margins))

    def as_flat_dict(self) -> dict:
        d = {
            "c_omega": self.c_omega,
            "c_a": self.c_a,
            "phi_sup": self.phi_sup,
            "k_const": self.k_const,
            "tau": self.tau,
            "theta": self.theta,
            "pass": self.pass_,
            "domain_note": self.domain_note,
            "check_margins_positive": bool(min(self.margins) > 0.0),
            "check_k_positive": bool(self.k_const > 0.0),
            "check_coefficients_positive": bool(min(self.inf_a) > 0.0),
        }
        for i, m in enumerate(self.margins):
            d[f"margin_{i + 1}"] = m
        for i, m in enumerate(self.inf_a):
            d[f"inf_a_{i + 1}"] = m
        d["kappa_at_1"] = self.kappa_at(1.0) if min(self.margins) > -math.inf else None
        return d


def _coupling(phi_sup: float, c_omega: float, c_a: float) -> float:
    """(phi_sup C_Omega C_a)^2 as the product of the three squares: 0 when
    phi_sup is 0 (a constant set, whatever C_a), inf where a square or the
    product passes the largest float, or C_a already did (then k_const is
    -inf, as for a sample <= 0)."""
    if phi_sup == 0.0:
        return 0.0
    try:
        p = phi_sup ** 2 * c_omega ** 2 * c_a ** 2
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(p) else p  # 0 * inf, C_a = inf


def check_conditions(profiles, lengths) -> ConditionReport:
    """Evaluate every hypothesis constant by dense sampling.

    sup/inf over the closed box are estimated at `_CONDITION_SAMPLES`
    Chebyshev-Lobatto points per axis (the coefficients are C^1 in one
    variable each, so dense 1-D sampling is adequate).
    """
    lengths = getattr(lengths, "lengths", lengths)  # BoxDomain or plain tuple
    c_omega = poincare_constant(lengths)
    sqrt_co = math.sqrt(c_omega)

    inf_a = []
    margins = []
    dsup_sq = []
    # Chebyshev-Lobatto points on [0, L]: includes both endpoints, since the
    # sup/inf run over the closed box.
    cheb = 0.5 * (1.0 - np.cos(np.pi * np.arange(_CONDITION_SAMPLES)
                               / (_CONDITION_SAMPLES - 1)))
    for p, length in zip(profiles, lengths):
        xs = length * cheb
        a = np.asarray(p.a(xs), dtype=float) + np.zeros_like(xs)
        da = np.asarray(p.da(xs), dtype=float) + np.zeros_like(xs)
        inf_a.append(float(np.min(a)))
        with np.errstate(over="ignore"):  # inf where a square passes it
            # d/dx (a^2) = 2 a a'
            d_a2_sup = float(np.max(np.abs(2.0 * a * da)))
            inf_a2 = float(np.min(a * a))
            dsup_sq.append(float(np.max(da * da)))
        # both terms inf: -inf (fmax drops the NaN of inf - inf)
        margins.append(float(np.fmax(inf_a2 - 0.5 * sqrt_co * d_a2_sup,
                                     -math.inf)))

    phi_sup = math.sqrt(sum(dsup_sq))
    min_inf_a = min(inf_a)
    if min_inf_a > 0.0:
        c_a = 1.0 / min_inf_a
        coupling = _coupling(phi_sup, c_omega, c_a)
        k_const = 0.5 - 0.5 * coupling
    else:
        c_a = math.inf
        k_const = -math.inf
    if k_const > 0.0:
        tau = 0.5 / (1.0 + 2.0 * coupling / k_const)
        # sqrt(1/tau), not 1/sqrt(tau): exact when 1/tau is representable
        theta = 2.0 * max(1.0, math.sqrt(1.0 / tau))
    else:
        tau = 0.0
        theta = math.inf
    ok = (min(margins) > 0.0) and (k_const > 0.0)
    return ConditionReport(
        c_omega=c_omega, c_a=c_a, phi_sup=phi_sup, margins=tuple(margins),
        k_const=k_const, tau=tau, theta=theta, pass_=ok, inf_a=tuple(inf_a),
    )
