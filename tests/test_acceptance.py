"""Acceptance suite: every advertised numerical guarantee, end to end, at its
stated tolerance.  One test per guarantee; the numbering only fixes the run
order.

The continuum-model check (test 02) runs on the staggered (mimetic) scheme,
`StaggeredOperators`, the one that converges to the continuum law on real
inputs: the scalar channel carries the Dirichlet operator on the nodes, the
vector channel the Neumann operator on the faces, and the divergence reads
the face values.  The collocated default (every other test here) keeps the
exact discrete identities but misses the continuum amplitudes of a sampled
sine by O(1) (vec channel 0.233, divergence 0.862 at n=255, alpha=0.5),
because its composed stencil is wide and pairs each smooth mode with a
grid-parity partner.  On the staggered scheme the measured gaps are 1.3e-5
(vec) and 3.8e-5 (divergence) against the 5e-3 target.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sfrac.coeff import (check_conditions, constant_profile, differentiate,
                         evaluate, make_profile, parse_expr)
from sfrac.errors import ExprSyntaxError
from sfrac.evolve import EvolutionConfig, divergence, evolve, generator
from sfrac.frac import (QuadratureSpec, apply_P_alpha, build_matrix,
                        quad_nodes)
from sfrac.grid import (BoxDomain, Grid, Operators, QuatField, RealField,
                        StaggeredOperators, constant_operators, norms)
from sfrac.oracle import closed_form_P_alpha
from sfrac.quat import J_E1, J_E2, Quaternion, unit_from_components
from engine import node_engine
from sresolvent import (estimate_norm, s_resolvent_equation_residual,
                        splitting_residual)

CORPUS_ALPHA = 0.5


def bump_field(grid):
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    vals = np.ones(grid.n)
    for ax, L in enumerate(grid.domain.lengths):
        vals = vals * mesh[ax] * (L - mesh[ax])
    return RealField(grid, vals)


def corpus_entries():
    """Standard corpus: constant 1-D (odd n exercises the parity null
    mode), passing variable 1-D, passing variable 2-D."""
    out = []
    g1 = Grid(BoxDomain((math.pi,)), (63,))
    out.append(("const-1d", constant_operators(g1)))
    g2 = Grid(BoxDomain((1.0,)), (48,))
    out.append(("var-1d", Operators(g2, (make_profile(1, "1+0.1*x", 1.0),))))
    g3 = Grid(BoxDomain((1.0, 1.0)), (16, 20))
    out.append(("var-2d", Operators(g3, (make_profile(1, "1+0.1*x", 1.0),
                                         make_profile(2, "1+0.1*x", 1.0)))))
    return out


@pytest.fixture(scope="module")
def corpus():
    rows = []
    for name, ops in corpus_entries():
        v = QuatField.from_real(bump_field(ops.grid))
        base = apply_P_alpha(QuadratureSpec(alpha=CORPUS_ALPHA), ops, v)
        rows.append((name, ops, v, base))
    return rows


def rel_gap(field, reference):
    return (field - reference).l2() / max(reference.l2(), 1e-300)


def test_01_quadrature_matches_closed_form_constant_coefficients():
    start = time.monotonic()
    grid = Grid(BoxDomain((math.pi,)), (255,))
    ops = constant_operators(grid)
    x = grid.axes[0]
    v = RealField(grid, x * (math.pi - x) ** 2)
    for alpha in (0.25, 0.5, 0.75):
        got = apply_P_alpha(QuadratureSpec(alpha=alpha), ops,
                            QuatField.from_real(v))
        ref = closed_form_P_alpha(alpha, v, ops)
        scal_gap = (np.linalg.norm(got.scal.flat() - ref.scal.flat())
                    / np.linalg.norm(ref.scal.flat()))
        gv = np.stack([f.flat() for f in got.vec])
        rv = np.stack([f.flat() for f in ref.vec])
        vec_gap = np.linalg.norm(gv - rv) / np.linalg.norm(rv)
        assert scal_gap <= 1e-6, alpha
        assert vec_gap <= 1e-6, alpha
    assert time.monotonic() - start <= 30.0


def test_02_continuum_model_on_sampled_sine():
    # On the staggered scheme sampled sin(2x) is an eigenvector of L_D and
    # its flux cos(2x), sampled at the faces, one of L_N, so P_alpha must
    # reproduce the continuum amplitudes up to O(h^2) in both channels.
    grid = Grid(BoxDomain((math.pi,)), (255,))
    ops = StaggeredOperators(grid, (constant_profile(1, 1.0, math.pi),))
    x = grid.axes[0]
    alpha = 0.5
    res = apply_P_alpha(QuadratureSpec(alpha=alpha), ops,
                        QuatField.from_real(RealField(grid, np.sin(2 * x))))
    # vec channel of the continuum model: (1/2) 4^{(a-1)/2} * 2cos(2x) e1,
    # amplitude 2^{-1/2} ~ 0.70711 at alpha = 1/2, evaluated at the faces
    # where that channel lives
    expected_vec = 4.0 ** ((alpha - 1.0) / 2.0) * np.cos(2 * res.vec[0].axes[0])
    vec_err = (np.linalg.norm(res.vec[0].flat() - expected_vec)
               / np.linalg.norm(expected_vec))
    div = divergence(res.vec, grid)
    expected_div = -0.5 * 4.0 ** ((alpha + 1.0) / 2.0) * np.sin(2 * x)
    div_err = (np.linalg.norm(div.flat() - expected_div)
               / np.linalg.norm(expected_div))
    assert vec_err <= 5e-3, f"vec-channel continuum gap {vec_err:.4f}"
    assert div_err <= 5e-3, f"divergence continuum gap {div_err:.4f}"


def test_03_imaginary_unit_independence(corpus):
    # base takes the symbol route, which never reads j; the other units run
    # the test's quaternionic node engine (left form), where j enters every
    # node
    units = (J_E2, unit_from_components(1.0, 1.0, 1.0))
    for name, ops, v, base in corpus:
        for comps, _ in node_engine(QuadratureSpec(alpha=CORPUS_ALPHA), ops,
                                    v.components, units):
            assert rel_gap(QuatField(v.grid, comps), base.full) <= 1e-10, name


def test_04_left_and_right_integral_forms_agree(corpus):
    for name, ops, v, base in corpus:
        [(left, _)] = node_engine(QuadratureSpec(alpha=CORPUS_ALPHA), ops,
                                  v.components, (J_E1,))
        assert rel_gap(QuatField(v.grid, left), base.full) <= 1e-10, name


def test_05_resolvent_norm_bound_variable_coefficients():
    start = time.monotonic()
    for dims in (1, 2):
        lengths = (1.0,) * dims
        grid = Grid(BoxDomain(lengths), (64,) * dims)
        profiles = tuple(make_profile(ax + 1, "1+0.1*x", 1.0)
                         for ax in range(dims))
        ops = Operators(grid, profiles)
        report = check_conditions(profiles, lengths)
        assert report.pass_, dims
        for t in (0.1, 1.0, 10.0, 100.0):
            est = estimate_norm(ops, Quaternion(0, -t, 0, 0), rel_tol=1e-5)
            assert est * t <= 1.05 * report.theta, (dims, t)
    assert time.monotonic() - start <= 120.0


def random_trig(grid, rng, kmax=4):
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    vals = np.zeros(grid.n)
    for ks in itertools.product(range(1, kmax + 1), repeat=grid.dims):
        prod = np.ones(grid.n)
        for ax, k in enumerate(ks):
            prod = prod * np.sin(k * math.pi * mesh[ax]
                                 / grid.domain.lengths[ax])
        vals = vals + rng.standard_normal() * prod
    return vals


def test_06_coercivity_on_random_trig_fields(corpus):
    rng = np.random.default_rng(0x60C0)
    for name, ops, _, _ in corpus:
        report = check_conditions(ops.profiles, ops.grid.domain.lengths)
        assert report.pass_, name
        vol = ops.grid.cell_volume
        for _ in range(50):
            u = random_trig(ops.grid, rng)
            h1 = norms(QuatField.from_real(RealField(ops.grid, u)), ops)["h1"]
            for s1 in (0.5, 1.0, 2.0):
                qu = s1 ** 2 * u + ops.apply_L(u)
                inner = vol * float(np.sum(u * qu))
                bound = 0.9 * report.kappa_at(s1 ** 2) * h1 ** 2
                assert inner >= bound, (name, s1)


def test_07_s_resolvent_identities():
    tol = 1e-10
    grid = Grid(BoxDomain((1.0,)), (31,))
    ops = Operators(grid, (make_profile(1, "1+0.1*x", 1.0),))
    rng = np.random.default_rng(0x0701)
    v = QuatField(grid, rng.standard_normal((4, *grid.n)))
    nodes = quad_nodes(QuadratureSpec(alpha=0.5, n_sing=10, n_tail=10))
    assert len(nodes) == 20
    for nd in nodes:
        s = Quaternion(0, -nd["t"], 0, 0)
        assert splitting_residual(ops, s, v) <= 10 * tol, nd["t"]
    for _ in range(10):
        while True:
            ts, tp = rng.uniform(0.3, 3.0, size=2)
            if abs(ts - tp) > 0.05:
                break
        ds, dp = rng.standard_normal((2, 3))
        s = Quaternion(0, *(ts * ds / np.linalg.norm(ds)))
        p = Quaternion(0, *(tp * dp / np.linalg.norm(dp)))
        assert s_resolvent_equation_residual(ops, s, p, v) <= 100 * tol


def test_08_crank_nicolson_eigenmode_decay():
    grid = Grid(BoxDomain((math.pi,)), (64,))
    ops = constant_operators(grid)
    lam, vecs = np.linalg.eigh(ops.dense_L())
    lam_h = float(lam[1])
    v0 = RealField(grid, vecs[:, 1].reshape(grid.n))
    G = generator(build_matrix(QuadratureSpec(alpha=0.6), ops), ops)
    trace = evolve(G, v0, EvolutionConfig(dt=1e-3, t_end=1.0))
    ratio = trace.l2_series[-1] / trace.l2_series[0]
    exact = math.exp(-0.5 * lam_h ** 0.8)
    assert abs(ratio - exact) <= 1e-4 * exact
    l2 = trace.l2_series
    assert all(b <= a for a, b in zip(l2, l2[1:]))


def test_09_heat_flux_exponent_correspondence():
    # generator built at beta = 2*0.75 - 1 = 0.5; minus twice that generator
    # must act as the 0.75 power of the second-order operator on every
    # discrete eigenvector
    grid = Grid(BoxDomain((math.pi,)), (32,))
    ops = constant_operators(grid)
    G = generator(build_matrix(QuadratureSpec(alpha=0.5), ops), ops)
    lam, U = np.linalg.eigh(ops.dense_L())
    worst = 0.0
    for i in range(grid.N):
        phi = U[:, i]
        err = -2.0 * (G @ phi) - lam[i] ** 0.75 * phi
        worst = max(worst, np.linalg.norm(err) / lam[i] ** 0.75)
    assert worst <= 1e-7


def test_10_quadrature_self_convergence(corpus):
    for name, ops, v, base in corpus:
        doubled = apply_P_alpha(
            QuadratureSpec(alpha=CORPUS_ALPHA, n_sing=128, n_tail=128),
            ops, v)
        assert rel_gap(doubled.full, base.full) <= 1e-8, name
    nodes = quad_nodes(QuadratureSpec(alpha=0.5))
    acc = sum(nd["weight"] * nd["t"] ** (-0.5) / (1.0 + nd["t"] ** 2)
              for nd in nodes)
    assert abs(acc - math.pi / math.sqrt(2.0)) <= 1e-10


GRAMMAR_ACCEPT = [
    "1", "1+0.1*x", "sin(x)^2", "-x", "--x", "2^3^2", "1+2*3", "(1+2)*3",
    "sqrt(x)", "exp(-x)", "cos(x)*sin(x)", "1.5e-3", "2.5E+2", " 1 + x ",
    "x^2", "1/(1+x)", "-(x+1)", "1-2-3", "sqrt(exp(x))", "0.5*(1+cos(2*x))",
]

GRAMMAR_REJECT = [
    "1+*x", "", "(1+x", "y", "sin", "1..2", "x x", "tan(x)", "1+", "2**3",
]


def test_11_parser_and_constant_report():
    assert len(GRAMMAR_ACCEPT) == 20 and len(GRAMMAR_REJECT) == 10
    for text in GRAMMAR_ACCEPT:
        parse_expr(text)
    for text in GRAMMAR_REJECT:
        with pytest.raises(ExprSyntaxError):
            parse_expr(text)
    rng = np.random.default_rng(0xD1FF)
    for text in ("1+0.1*x", "sin(x)^2", "exp(-x)", "sqrt(1+x)", "x/(1+x)",
                 "0.5*(1+cos(2*x))"):
        e = parse_expr(text)
        de = differentiate(e)
        xs = rng.uniform(0.05, 2.0, 100)
        h = 1e-6
        sym = np.asarray(evaluate(de, x=xs), dtype=float) + np.zeros_like(xs)
        fd = (np.asarray(evaluate(e, x=xs + h), dtype=float)
              - np.asarray(evaluate(e, x=xs - h), dtype=float)) / (2 * h)
        assert np.max(np.abs(sym - fd) / (1.0 + np.abs(sym))) <= 1e-6, text
    profiles = tuple(make_profile(ax + 1, "1", math.pi) for ax in range(3))
    report = check_conditions(profiles, (math.pi,) * 3)
    assert report.pass_
    assert report.k_const == 0.5
    assert report.theta == 2.0 * math.sqrt(2.0)
