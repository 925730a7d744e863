import json
import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from sfrac import frac
from sfrac.cli import main
from sfrac.coeff import check_conditions, make_profile
from sfrac.frac import (QuadratureSpec, apply_P_alpha, build_matrix,
                        gauss_jacobi, quad_nodes, quadrature_certificate,
                        reference_P_alpha)
from sfrac.grid import (AxisFactorization, BoxDomain, Grid, Operators,
                        QuatField, RealField, StaggeredOperators,
                        constant_operators)
from sfrac.oracle import closed_form_P_alpha
from sfrac.quat import (J_E1, J_E2, Quaternion, left_mul, qmul,
                        unit_from_components)
from sfrac.resolvent import ResolventWorkspace
import engine
from engine import node_engine
from helpers import box_ops, grid1d, rel_gap, variable_ops_2d


def integrand_form_gap(spec, ops, v, t):
    """Relative gap at one +-t pair between the splitting-identity form and
    the Tv form of the right integrand, the one whose reduced pair every
    route sums (they are equal in exact arithmetic; the gap is the rounding
    of the Q_t solve)."""
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    tv = ops.apply_T(v.components)
    # T^2 v: T^2 acts componentwise as L (cross terms cancel by exact
    # commutation), and apply_L is that scalar route directly
    lv = ops.apply_L(v.components)
    # T^2 v = T (T v) lies in the range of the A_l, as T v does
    ws = ResolventWorkspace(ops, np.array([t]))
    sol = ws._solve_stack(np.concatenate([tv, lv]).reshape(8, -1))
    u1, u2 = sol.reshape(2, *tv.shape)
    tu1 = ops.apply_T(u1)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    # paired forms, common factor t^{alpha-1} dropped
    split = 2 * sin_t * t * u1 - 2 * cos_t * u2
    tvf = 2 * sin_t * t * u1 - 2 * cos_t * tu1
    denom = max(float(np.max(np.abs(split))), 1e-300)
    return float(np.max(np.abs(split - tvf))) / denom


class TestQuadratureSpec:
    def test_validation(self):
        QuadratureSpec(0.5)
        for alpha in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                QuadratureSpec(alpha)
        with pytest.raises(ValueError):
            QuadratureSpec(0.5, n_sing=3)
        with pytest.raises(ValueError):
            QuadratureSpec(0.5, n_tail=2)

    # alpha = 1e-17 rounds alpha - 1 to -1; at 1 - 2^-53 the recurrence
    # divides by 0; at 1e-12 the 64-node rules hold but the 128-node rule
    # of the near panel puts a node below -1
    @pytest.mark.parametrize("alpha, n", [(1e-17, 64), (1.0 - 2.0 ** -53, 64),
                                          (1e-12, 128)])
    def test_alpha_beyond_the_rule_raises(self, alpha, n):
        with pytest.raises(ValueError, match="too close to 0 or 1"):
            QuadratureSpec(alpha, n_sing=n, n_tail=n)
        QuadratureSpec(1e-12)


class TestNodes:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
    def test_singular_weight_integrates_exactly(self, alpha):
        # integral_0^1 t^{alpha-1} dt = 1/alpha, hit exactly by construction
        nodes = quad_nodes(QuadratureSpec(alpha))
        near = [nd for nd in nodes if nd["t"] <= 1.0]
        total = sum(nd["weight"] * nd["t"] ** (alpha - 1.0) for nd in near)
        assert math.isclose(total, 1.0 / alpha, rel_tol=1e-13)

    def test_known_improper_integral(self):
        # integral_0^inf t^{-1/2}/(1+t^2) dt = pi/sqrt(2)
        nodes = quad_nodes(QuadratureSpec(0.5))
        total = sum(nd["weight"] * nd["t"] ** (-0.5) / (1.0 + nd["t"] ** 2)
                    for nd in nodes)
        assert abs(total - math.pi / math.sqrt(2.0)) <= 1e-10

    def test_doubling_self_convergence(self):
        def value(n):
            nodes = quad_nodes(QuadratureSpec(0.5, n_sing=n, n_tail=n))
            return sum(nd["weight"] * nd["t"] ** (-0.5) / (1.0 + nd["t"] ** 2)
                       for nd in nodes)
        assert abs(value(128) - value(64)) <= 1e-12

    def test_ascending_order(self):
        ts = [nd["t"] for nd in quad_nodes(QuadratureSpec(0.7))]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(t > 0 for t in ts)

    def test_split_follows_the_positive_spectrum(self):
        # t_split = (lambda_min lambda_max)^{1/4} over the nonzero values,
        # the parity null mode (0) left out; the rule scales with it
        spec = QuadratureSpec(0.4)
        unit_t, unit_c = frac._nodes(spec, None, None)
        lam = np.array([[0.0, 16.0], [2.0, 8.0 ** 4 / 2.0]])  # split 8
        t, c = frac._nodes(spec, lam, lam == 0.0)
        assert np.allclose(t, 8.0 * unit_t, rtol=1e-15, atol=0.0)
        assert np.allclose(c, 8.0 ** 0.4 * unit_c, rtol=1e-14, atol=0.0)
        assert t[spec.n_sing - 1] < 8.0 < t[spec.n_sing]
        # no positive spectrum: the unit split
        for lam in (np.zeros(1), np.zeros((0,))):
            t, c = frac._nodes(spec, lam, lam == 0.0)
            assert np.array_equal(t, unit_t) and np.array_equal(c, unit_c)

    def test_split_follows_the_moduli(self):
        # complex eigenvalues split by |lambda|, as their positive
        # counterparts do, an exact 0 left out
        spec = QuadratureSpec(0.4)
        null = np.array([True, False, False])
        want = frac._nodes(spec, np.array([0.0, 2.0, 8.0 ** 4 / 2.0]), null)
        lam = np.array([0.0, 2.0j, 8.0 ** 4 / 2.0 * np.exp(0.3j)])
        for got, ref in zip(frac._nodes(spec, lam, null), want):
            assert np.allclose(got, ref, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("mu", [-0.25, -0.25 + 1e-13j])
    def test_spectral_sphere_raises(self, mu):
        # a real eigenvalue below -zero_tol puts a sphere of radius
        # sqrt(-mu) on the path; one off the real axis does not
        null = np.zeros(4, bool)
        with pytest.raises(ValueError, match="1 spectral sphere.*radius "
                                             "0.5 to 0.5"):
            frac._nodes(QuadratureSpec(0.5), np.array([mu, 1.0, 4.0, 100.0]),
                        null)
        frac._nodes(QuadratureSpec(0.5), np.array([-0.25 + 1e-9j, 1.0]),
                    null[:2])

    def test_exact_zero_off_the_mask_raises(self):
        # an exact 0 of L off its structural 0 (the parity null mode, set
        # in the mask) is a kernel mode, where f_1 has no limit
        lam, null = np.array([0.0, 1.0, 0.0, 4.0, 0.0]), np.arange(5) == 4
        with pytest.raises(ValueError, match="2 eigenvalue.*exactly 0 off"):
            frac._nodes(QuadratureSpec(0.5), lam, null)
        frac._nodes(QuadratureSpec(0.5), lam[3:], null[3:])
        frac._nodes(QuadratureSpec(0.5), lam + 1e-300, null)


def symbols_node_by_node(spec, lam, null):
    """`symbols` one node at a time: the reduced pair integrand added in
    ascending t."""
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    sum_u1 = np.zeros_like(lam)
    sum_u2 = np.zeros_like(lam)
    for t, c in zip(*frac._nodes(spec, lam, null)):
        r = c / (t * t + lam)
        sum_u1 += r * t
        sum_u2 += r * lam
    f1 = np.where(null, 0.0, -math.sin(theta) / math.pi * sum_u1)
    return f1, math.cos(theta) / math.pi * sum_u2


class TestSymbols:
    # (191,) and larger sum in several blocks, (4096,) in one node each
    @pytest.mark.parametrize("shape", [(1,), (7,), (191,), (729,), (9, 9, 9),
                                       (4096,)])
    @pytest.mark.parametrize("n_nodes", [64, 128])
    def test_bitwise_node_by_node(self, shape, n_nodes):
        rng = np.random.default_rng(8)
        lam = np.exp(rng.uniform(-3.0, 12.0, shape))
        # the parity null mode, last, and tiny values off it that keep
        # their sums (`_nodes` refuses an exact 0 there)
        lam.reshape(-1)[2::5] = 1e-30
        lam.reshape(-1)[-1] = 0.0
        null = np.zeros(shape, bool)
        null.reshape(-1)[-1] = True
        spec = QuadratureSpec(0.3, n_sing=n_nodes // 2, n_tail=n_nodes // 2)
        f1, f2 = frac.symbols(spec, lam, null)
        r1, r2 = symbols_node_by_node(spec, lam, null)
        assert f1.shape == f2.shape == lam.shape
        assert np.array_equal(f1, r1) and np.array_equal(f2, r2)
        assert f1.reshape(-1)[-1] == 0.0
        assert np.all(f1.reshape(-1)[2:-1:5] != 0.0)

    @pytest.mark.parametrize("shape", [(7,), (191,), (9, 9, 9)])
    def test_complex_bitwise_node_by_node(self, shape):
        # the eigenvalues of a set with a sample <= 0: the same sums, in
        # complex arithmetic
        rng = np.random.default_rng(9)
        lam = np.exp(rng.uniform(-3.0, 12.0, shape)
                     + 1j * rng.uniform(-1.0, 1.0, shape))
        null = np.zeros(shape, bool)
        spec = QuadratureSpec(0.3)
        f1, f2 = frac.symbols(spec, lam, null)
        r1, r2 = symbols_node_by_node(spec, lam, null)
        assert f1.dtype == f2.dtype == complex
        assert np.array_equal(f1, r1) and np.array_equal(f2, r2)


class TestGaussJacobi:
    """The in-house Golub-Welsch rule for the weight (1+x)^b on [-1, 1]."""

    @pytest.mark.parametrize("n", [4, 64, 128])
    @pytest.mark.parametrize("b", [-0.95, -0.5, -0.05])
    def test_moments_are_exact(self, n, b):
        # sum w (1+x)^k = integral_{-1}^{1} (1+x)^{b+k} dx for k < 2n
        x, w = gauss_jacobi(n, b)
        for k in range(2 * n):
            exact = 2.0 ** (b + k + 1) / (b + k + 1)
            assert abs(np.sum(w * (1.0 + x) ** k) / exact - 1.0) <= 1e-12, k

    @pytest.mark.parametrize("n", [4, 64, 128])
    @pytest.mark.parametrize("b", [-0.95, -0.5, -0.05])
    def test_nodes_match_scipy(self, n, b):
        x, _ = gauss_jacobi(n, b)
        ref, _ = roots_jacobi(n, 0.0, b)
        assert np.max(np.abs(x - ref)) <= 1e-15

    def test_cached_and_read_only(self):
        x, w = gauss_jacobi(16, -0.3)
        assert gauss_jacobi(16, -0.3)[0] is x
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestApply:
    def test_zero_field(self):
        ops = constant_operators(grid1d(10))
        out = apply_P_alpha(QuadratureSpec(0.5), ops,
                            QuatField.zeros(ops.grid))
        assert np.array_equal(out.full.components, np.zeros((4, 10)))
        assert out.j_leak == 0.0

    def test_channels_are_views_of_full(self):
        ops = constant_operators(grid1d(12))
        v = QuatField.from_real(RealField.from_function(ops.grid, np.sin))
        out = apply_P_alpha(QuadratureSpec(0.5), ops, v)
        assert np.array_equal(out.scal.values, out.full.components[0])
        for i in range(3):
            assert np.array_equal(out.vec[i].values, out.full.components[i + 1])

    def test_linearity(self):
        ops = variable_ops_2d()
        spec = QuadratureSpec(0.6)
        rng = np.random.default_rng(0)
        v1 = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        v2 = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        a = apply_P_alpha(spec, ops, v1)
        b = apply_P_alpha(spec, ops, v2)
        c = apply_P_alpha(spec, ops, v1 + 3.0 * v2)
        combo = a.full.components + 3.0 * b.full.components
        assert rel_gap(c.full.components, combo) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_eigenvector_closed_form(self, alpha):
        g = grid1d(64)
        ops = constant_operators(g)
        lam, vecs = np.linalg.eigh(ops.dense_L())
        k = 40
        phi = vecs[:, k]
        out = apply_P_alpha(QuadratureSpec(alpha), ops,
                            QuatField.from_real(RealField(g, phi)))
        scal_expect = 0.5 * lam[k] ** (alpha / 2.0) * phi
        vec_expect = 0.5 * lam[k] ** ((alpha - 1.0) / 2.0) \
            * ops.apply_D(0, phi.reshape(g.n)).reshape(-1)
        assert rel_gap(out.scal.values.reshape(-1), scal_expect) <= 1e-8
        assert rel_gap(out.vec[0].values.reshape(-1), vec_expect) <= 1e-8
        assert np.max(np.abs(out.vec[1].values)) <= 1e-12
        assert np.max(np.abs(out.vec[2].values)) <= 1e-12

    def test_j_independence(self):
        # the symbol route never reads j, so the other units run the left
        # form of reference_P_alpha
        ops = variable_ops_2d()
        rng = np.random.default_rng(2)
        v = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        spec = QuadratureSpec(0.4)
        base = apply_P_alpha(spec, ops, v).full.components
        units = (J_E2, unit_from_components(1.0, 1.0, 1.0))
        for left in reference_P_alpha(spec, ops, v, units):
            assert rel_gap(left.full.components, base) <= 1e-10

    def test_left_right_agreement(self):
        ops = variable_ops_2d()
        rng = np.random.default_rng(3)
        v = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        spec = QuadratureSpec(0.7)
        r = apply_P_alpha(spec, ops, v)
        [l] = reference_P_alpha(spec, ops, v, (J_E1,))
        assert rel_gap(r.full.components, l.full.components) <= 1e-10

    def test_j_leak_small(self):
        # the leak is a diagnostic of the left form of reference_P_alpha;
        # apply_P_alpha sums the j-free reduction itself
        ops = variable_ops_2d()
        v = QuatField.from_real(RealField.from_function(
            ops.grid, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y / 1.3)))
        [out] = reference_P_alpha(QuadratureSpec(0.5), ops, v, (J_E1,))
        scale = max(np.max(np.abs(out.full.components)), 1e-300)
        assert out.j_leak / scale <= 1e-9

    @pytest.mark.parametrize("t", [0.7, 1.5])
    def test_integrand_form_gap(self, t):
        ops = variable_ops_2d()
        rng = np.random.default_rng(4)
        v = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        tol = 1e-10
        gap = integrand_form_gap(QuadratureSpec(0.5), ops, v, t)
        assert gap <= 10 * tol

    @pytest.mark.parametrize("n", [(17,), (18,), (7, 9), (8, 9), (5, 7, 9),
                                   (5, 6, 7)])
    def test_symbol_route_matches_node_engine(self, n, dense_route):
        # the symbol route against the left form of reference_P_alpha and
        # of the test's node engine, on the per-axis factorization and on
        # the dense route, on odd (parity null mode) and even grids with
        # variable coefficients and vector components
        lengths = (1.0, 1.3, 0.8)[: len(n)]
        texts = ("1+0.1*x", "exp(0.2*x)", "1+0.2*sin(x)")
        ops = Operators(Grid(BoxDomain(lengths), n),
                        tuple(make_profile(ax + 1, texts[ax], length)
                              for ax, length in enumerate(lengths)))
        v = QuatField(ops.grid, np.random.default_rng(8).standard_normal(
            (4, *ops.grid.n)))
        dense = dense_route(ops)
        # small alpha: f_1 at the null mode, were it not 0, would amplify
        # the rounding of T v there by ~1e4
        # alpha = 0.93: the tail dominates the node sum
        for alpha in (0.1, 0.37, 0.93):
            spec = QuadratureSpec(alpha)
            got = apply_P_alpha(spec, ops, v)
            assert got.j_leak == 0.0
            [left] = reference_P_alpha(spec, ops, v, (J_E1,))
            [(engine_left, _)] = node_engine(spec, ops, v.components, (J_E1,))
            [(dense_left, _)] = node_engine(spec, dense, v.components,
                                            (J_E1,))
            for ref in (left.full.components, engine_left, dense_left):
                assert rel_gap(got.full.components, ref) <= 1e-12

    def test_forced_split_follows_the_moduli(self):
        # 1D 200 `x-0.45`: complex eigenvalues, whose split of |lambda|
        # takes the doubling gap from 8.3e-11 at the unit split to below
        # 1e-11; the symbol route sits within 1e-10 of the left form
        ops = Operators(grid1d(200, 1.0), (make_profile(1, "x-0.45", 1.0),))
        assert np.iscomplexobj(ops.spectral.eigenvalues())
        v = QuatField.from_real(RealField.from_function(
            ops.grid, lambda x: x * (1.0 - x)))
        got = apply_P_alpha(QuadratureSpec(0.5), ops, v).full
        [ref] = reference_P_alpha(QuadratureSpec(0.5), ops, v, (J_E1,))
        assert rel_gap(got.components, ref.full.components) <= 1e-10
        doubled = apply_P_alpha(QuadratureSpec(0.5, n_sing=128, n_tail=128),
                                ops, v).full
        assert (doubled - got).l2() / got.l2() <= 1e-11

    @pytest.mark.parametrize("coeff", ["x-0.45", "x-0.3"])
    def test_spectral_sphere_on_the_path_raises(self, coeff):
        # 1D 64: two real eigenvalues of L below 0, so Q_t is singular on
        # the path; the symbol route and the left form share the check
        ops = Operators(grid1d(64, 1.0), (make_profile(1, coeff, 1.0),))
        v = QuatField.from_real(RealField.from_function(
            ops.grid, lambda x: x * (1.0 - x)))
        with pytest.raises(ValueError, match="2 spectral sphere"):
            apply_P_alpha(QuadratureSpec(0.5), ops, v)
        with pytest.raises(ValueError, match="2 spectral sphere"):
            reference_P_alpha(QuadratureSpec(0.5), ops, v, (J_E1,))

    def test_doubling_convergence(self):
        ops = variable_ops_2d()
        rng = np.random.default_rng(5)
        v = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        a = apply_P_alpha(QuadratureSpec(0.5), ops, v)
        b = apply_P_alpha(QuadratureSpec(0.5, n_sing=128, n_tail=128), ops, v)
        assert rel_gap(a.full.components, b.full.components) <= 1e-8

    def test_threads_bitwise_deterministic(self):
        # the node reduction order is fixed, so reruns agree bit for bit
        ops = variable_ops_2d()
        rng = np.random.default_rng(6)
        v = QuatField(ops.grid, rng.standard_normal((4, *ops.grid.n)))
        spec = QuadratureSpec(0.5)
        first = apply_P_alpha(spec, ops, v)
        again = apply_P_alpha(spec, ops, v)
        assert np.array_equal(first.full.components, again.full.components)
        assert first.j_leak == again.j_leak

    def test_no_conditions_gate_in_the_library(self):
        # the CLI gates the hypothesis conditions (exit 2 unless --force);
        # the library computes on a set that fails them
        g = Grid(BoxDomain((10.0,)), (9,))
        ops = Operators(g, (make_profile(1, "0.01+x^2", 10.0),))
        assert not check_conditions(ops.profiles, g.domain.lengths).pass_
        v = QuatField.from_real(RealField.from_function(
            g, lambda x: np.sin(np.pi * x / 10.0)))
        spec = QuadratureSpec(0.5)
        [left] = reference_P_alpha(spec, ops, v, (J_E1,))
        for out in (apply_P_alpha(spec, ops, v), left):
            assert np.all(np.isfinite(out.full.components))
        assert np.all(np.isfinite(build_matrix(spec, ops)))

    def test_staggered_matches_closed_form_variable_2d(self):
        g = Grid(BoxDomain((1.0, 1.3)), (12, 15))
        ops = StaggeredOperators(g, (make_profile(1, "1+0.2*sin(x)", 1.0),
                                     make_profile(2, "exp(0.1*x)", 1.3)))
        x1, x2 = np.meshgrid(*g.axes, indexing="ij")
        v = RealField(g, x1 * (1.0 - x1) * x2 * (1.3 - x2))
        quad = apply_P_alpha(QuadratureSpec(0.5), ops, QuatField.from_real(v))
        ref = closed_form_P_alpha(0.5, v, ops)
        assert quad.full is None
        assert rel_gap(quad.scal.values, ref.scal.values) <= 1e-10
        for ax in range(2):
            assert quad.vec[ax].values.shape == ref.vec[ax].values.shape
            assert rel_gap(quad.vec[ax].values, ref.vec[ax].values) <= 1e-10
        with pytest.raises(ValueError):
            apply_P_alpha(QuadratureSpec(0.5), ops,
                          QuatField.from_components(g, q0=v.values,
                                                    q2=v.values))


def node_by_node(spec, ops, comps, j):
    """The node engine's quadrature at the imaginary unit j one node at a
    time, each node with its own workspace: u1 = Q_t^{-1} T v, T u1, the
    reduced pair and the naive left pair, added in ascending t; returns
    (reduced, left, j_leak)."""
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    tv = ops.apply_T(comps).reshape(4, -1)
    reduced = np.zeros_like(comps)
    acc = np.zeros_like(comps)
    leak = np.zeros_like(comps)
    sp = ops.spectral
    for t, c in zip(*frac._nodes(spec, sp.eigenvalues(), sp.null_mask)):
        ws = ResolventWorkspace(ops, np.array([t]))
        u1 = ws._solve_stack(tv).reshape(comps.shape)
        tu1 = ops.apply_T(u1)
        naive = np.zeros_like(comps)
        for e, sb in ((Quaternion(cos_t) + j.scale(-sin_t), j.scale(t)),
                      (Quaternion(cos_t) + j.scale(sin_t), j.scale(-t))):
            naive += (left_mul(qmul(sb, e), u1)
                      - ops.apply_T(left_mul(e, u1)))
        red = c * (2.0 * sin_t * t * u1 - 2.0 * cos_t * tu1)
        reduced += red
        acc += c * naive
        leak += c * naive - red
    return (-reduced / (2.0 * math.pi), -acc / (2.0 * math.pi),
            float(np.max(np.abs(leak))) / (2 * math.pi))


def engine_case(name):
    """(ops, v) of one node-engine case: odd and even 1D grids (n = 200
    makes blocks of 81 nodes, so 128 nodes end in a partial block), 2D, 3D
    all-odd (the parity null mode), and, named "dense", an all-odd set with
    a sample <= 0 (the per-axis eig of L).  A name ending in "-real" keeps
    the scalar part of v and sets components 1-3 to exactly 0, the only
    input kind of the CLI."""
    name, real = name.removesuffix("-real"), name.endswith("-real")
    n = {"1d-odd": (17,), "1d-even": (18,), "1d-200": (200,), "2d": (7, 8),
         "3d-odd": (5, 7, 3), "dense": (9,)}[name]
    ops = box_ops(n, ("x-0.45",)) if name == "dense" else box_ops(n)
    comps = np.random.default_rng(9).standard_normal((4, *ops.grid.n))
    if real:
        comps[1:] = 0.0
    return ops, QuatField(ops.grid, comps)


def count_node_solves(monkeypatch):
    """A list that receives, per resolvent solve, the number of nodes t it
    solves at (the block size)."""
    solved = []
    original = ResolventWorkspace._solve_stack

    def counting(self, *args, **kwargs):
        solved.append(len(self._t2))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ResolventWorkspace, "_solve_stack", counting)
    return solved


UNITS = (J_E1, J_E2, unit_from_components(1.0, 1.0, 1.0))
ENGINE_CASES = ("1d-odd", "1d-even", "1d-200", "2d", "3d-odd", "dense")
REAL_CASES = tuple(f"{name}-real" for name in ENGINE_CASES)


class TestNodeEngine:
    """The test's node engine: one pass over the nodes, in blocks, serving
    several imaginary units, against the engine evaluated one node at a
    time."""

    @pytest.mark.parametrize("name", ENGINE_CASES + REAL_CASES)
    @pytest.mark.parametrize("alpha", [0.37, 0.93])
    def test_each_unit_matches_node_by_node(self, name, alpha):
        ops, v = engine_case(name)
        spec = QuadratureSpec(alpha)
        refs = node_engine(spec, ops, v.components, UNITS)
        assert len(refs) == len(UNITS)
        for j, (got, got_leak) in zip(UNITS, refs):
            _, want, want_leak = node_by_node(spec, ops, v.components, j)
            scale = np.max(np.abs(want))
            assert rel_gap(got, want) <= 1e-13, j
            assert abs(got_leak - want_leak) <= 1e-13 * scale, j
            # a pass for a single unit gives the same bits
            [(one, one_leak)] = node_engine(spec, ops, v.components, (j,))
            assert np.array_equal(one, got)
            assert one_leak == got_leak

    @pytest.mark.parametrize("j", UNITS)
    def test_right_form_on_the_dense_route(self, j):
        # on a set with a sample <= 0, apply_P_alpha sums the j-free
        # reduction of the right form through complex symbols, and matches
        # the engine's reduced pairs summed node by node; it reports no
        # leak, and the left form at j sits its j_leak away from it
        ops, v = engine_case("dense")
        spec = QuadratureSpec(0.6)
        out = apply_P_alpha(spec, ops, v)
        want, left, _ = node_by_node(spec, ops, v.components, j)
        assert rel_gap(out.full.components, want) <= 1e-13
        assert out.j_leak == 0.0
        [(ref, ref_leak)] = node_engine(spec, ops, v.components, (j,))
        gap = np.max(np.abs(ref - out.full.components))
        assert abs(gap - ref_leak) <= 1e-13 * np.max(np.abs(left))

    @pytest.mark.parametrize("name", ENGINE_CASES + REAL_CASES)
    @pytest.mark.parametrize("nodes_per_block", [1, 5])
    def test_independent_of_the_block_budget(self, name, nodes_per_block,
                                             monkeypatch):
        # 128 nodes in blocks of 1, and of 5 (a partial block of 3 last);
        # the node sums of the symbols (apply_P_alpha, reference_P_alpha)
        # go in blocks of half that count, at least 1
        ops, v = engine_case(name)
        spec = QuadratureSpec(0.6)

        def run():
            return (*node_engine(spec, ops, v.components, UNITS),
                    *((r.full.components, r.j_leak) for r in (
                        *reference_P_alpha(spec, ops, v, UNITS),
                        apply_P_alpha(spec, ops, v))))
        base = run()
        budget = nodes_per_block * 4 * ops.grid.N
        monkeypatch.setattr(engine, "BLOCK_ELEMS", budget)
        monkeypatch.setattr(frac, "_BLOCK_ELEMS", budget)
        for (a, a_leak), (b, b_leak) in zip(base, run()):
            assert rel_gap(a, b) <= 1e-14
            assert abs(a_leak - b_leak) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("name", ENGINE_CASES + REAL_CASES)
    def test_reduced_sum_does_not_depend_on_the_units(self, name):
        # the reduced pairs behind j_leak are formed once for all units, in
        # the engine per block and in reference_P_alpha once: the left form
        # and the leak of a unit keep their bits when other units ride along
        ops, v = engine_case(name)
        spec = QuadratureSpec(0.6)
        [one] = node_engine(spec, ops, v.components, UNITS[:1])
        three = node_engine(spec, ops, v.components, UNITS)
        assert np.array_equal(three[0][0], one[0])
        assert three[0][1] == one[1]
        [one] = reference_P_alpha(spec, ops, v, UNITS[:1])
        three = reference_P_alpha(spec, ops, v, UNITS)
        assert np.array_equal(three[0].full.components, one.full.components)
        assert three[0].j_leak == one.j_leak

    @pytest.mark.parametrize("name", ["1d-200", "2d", "3d-odd", "dense"])
    def test_one_stencil_per_axis_and_block(self, name, monkeypatch):
        # A_l u1 once per grid axis and block, shared by every unit and
        # half line, plus one per axis for T v: d (blocks + 1) calls, 3 on
        # 1D n = 200 (blocks of 81 and 47 nodes)
        ops, v = engine_case(f"{name}-real")
        calls = count_stencils(monkeypatch)
        counts = []
        for units in (UNITS[:1], UNITS):
            calls.clear()
            node_engine(QuadratureSpec(0.6), ops, v.components, units)
            counts.append(len(calls))
        per_block = max(1, engine.BLOCK_ELEMS // (4 * ops.grid.N))
        blocks = -(-128 // per_block)
        assert counts == [ops.grid.dims * (blocks + 1)] * 2
        if name == "1d-200":
            assert counts == [3, 3]

    def test_budget_of_one_element_is_one_node(self, monkeypatch):
        ops, v = engine_case("2d")
        monkeypatch.setattr(engine, "BLOCK_ELEMS", 1)
        solved = count_node_solves(monkeypatch)
        node_engine(QuadratureSpec(0.6), ops, v.components, UNITS)
        assert solved == [1] * 128


def count_stencils(monkeypatch):
    """A list that receives the grid axis of every `Operators.apply_A`."""
    original = Operators.apply_A
    calls = []

    def counting(self, grid_axis, values):
        calls.append(grid_axis)
        return original(self, grid_axis, values)

    monkeypatch.setattr(Operators, "apply_A", counting)
    return calls


def engine_set(name):
    """(ops, v) of one set on which `reference_P_alpha` meets the node
    engine: v is the bump prod_l x_l (L_l - x_l) as a real field, the CLI's
    input kind."""
    n, texts, lengths = {
        "1d-31": ((31,), ("1+0.1*sin(x)",), (math.pi,)),
        "1d-201": ((201,), ("1+0.1*sin(x)",), (math.pi,)),
        "1d-2048": ((2048,), ("1+0.1*sin(x)",), (math.pi,)),
        "2d-9x11": ((9, 11), ("1+0.2*sin(x)", "exp(0.1*x)"), (1.0, 1.3)),
        "2d-128": ((128, 128), ("1+0.2*sin(x)", "exp(0.1*x)"), (1.0, 1.3)),
        "3d-24": ((24, 24, 24), ("1+0.1*x", "1", "exp(0.1*x)"),
                  (1.0, 1.3, 0.8)),
        "forced-1d-201": ((201,), ("x-0.45",), (1.0,)),
    }[name]
    ops = box_ops(n, texts, lengths)
    mesh = np.meshgrid(*ops.grid.axes, indexing="ij")
    bump = math.prod(x * (length - x) for x, length in zip(mesh, lengths))
    return ops, QuatField.from_real(RealField(ops.grid, bump))


class TestTwoSymbolLeftForm:
    """reference_P_alpha sums the left pairs over the nodes first, onto the
    two symbols g_1 and g_2 of L."""

    # measured: at most 3.6e-14 (1D 2048), 9.8e-15 on the forced set and
    # 2.4e-15 or less elsewhere
    @pytest.mark.parametrize("name", ["1d-31", "1d-201", "1d-2048",
                                      "2d-9x11", "2d-128", "3d-24",
                                      "forced-1d-201"])
    def test_matches_the_node_engine(self, name):
        ops, v = engine_set(name)
        spec = QuadratureSpec(0.5)
        lefts = reference_P_alpha(spec, ops, v, UNITS)
        refs = node_engine(spec, ops, v.components, UNITS)
        for j, got, (want, want_leak) in zip(UNITS, lefts, refs):
            gap = np.linalg.norm(got.full.components - want)
            assert gap <= 1e-13 * np.linalg.norm(want), j
            scale = np.max(np.abs(want))
            assert max(got.j_leak, want_leak) <= 1e-14 * scale, j

    def test_work_does_not_grow_with_the_nodes(self, monkeypatch):
        # one pass of the factorization for both symbols and 2 d stencils,
        # the A_l v of T v and the A_l w, at 16+16 nodes as at 256+256
        ops, v = engine_set("2d-9x11")
        calls = count_stencils(monkeypatch)
        passes = []
        original = AxisFactorization.apply_symbol

        def counting(self, *args):
            passes.append(1)
            return original(self, *args)

        monkeypatch.setattr(AxisFactorization, "apply_symbol", counting)
        counts = []
        for nodes in (16, 256):
            calls.clear()
            passes.clear()
            reference_P_alpha(QuadratureSpec(0.5, nodes, nodes), ops, v,
                              UNITS)
            counts.append((len(passes), len(calls)))
        assert counts == [(1, 2 * ops.grid.dims)] * 2

    def test_verify_solves_no_node(self, tmp_path, monkeypatch):
        # three units, 128 nodes and not one Q_t solve
        solved = count_node_solves(monkeypatch)
        cfg = {"domain": {"dims": 1, "lengths": [math.pi]},
               "grid": {"n": [200]}, "coefficients": ["1"],
               "task": "verify", "alpha": 0.6}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([str(path), "--out", str(tmp_path / "out")]) == 0
        assert solved == []

    @pytest.mark.parametrize("fault", ["scale", "roll"])
    def test_a_faulty_factorization_fails_left_right_gap(
            self, fault, tmp_path, monkeypatch):
        # the left form applies T g_2(L) T v where the symbol route applies
        # lambda g_2(L) v, so a Lambda off the stencils (scaled by 1 + 1e-6,
        # or one parity family rolled by one index) fails left_right_gap
        # (7.1e-7 and 0.26 on this set, at every unit); closed_form_gap
        # reads the same factorization and still passes (1.6e-15, 1.4e-15)
        original = AxisFactorization._eigenvalues.func

        def faulty(self):
            lam = np.array(original(self))
            if fault == "scale":
                return lam * (1.0 + 1e-6)
            m = len(lam) // 2  # the odd family first, then the even
            lam[:m] = np.roll(lam[:m], 1)
            return lam

        monkeypatch.setattr(AxisFactorization, "_eigenvalues",
                            property(faulty))
        cfg = {"domain": {"dims": 1, "lengths": [math.pi]},
               "grid": {"n": [201]}, "coefficients": ["1+0.1*sin(x)"],
               "task": "verify", "alpha": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([str(path), "--out", str(out)]) == 4
        checks = json.loads((out / "verify.json").read_text())["checks"]
        failed = {name for name, c in checks.items() if not c["pass"]}
        assert failed == {"left_right_gap", "j_independence"}

    def test_staggered_operators_rejected(self):
        g = Grid(BoxDomain((1.0,)), (8,))
        ops = StaggeredOperators(g, (make_profile(1, "1", 1.0),))
        with pytest.raises(ValueError, match="collocated"):
            reference_P_alpha(QuadratureSpec(0.5), ops,
                              QuatField.zeros(g), UNITS)


class TestMatrixBuild:
    def test_matches_direct_apply(self):
        # F = f_1(L) comes from the symbols, and F A_l w is the flux
        # channel; the reference is the quaternionic left form of
        # reference_P_alpha (from g_1, g_2 and the stencils), not the
        # symbol route
        spec = QuadratureSpec(0.6)
        rng = np.random.default_rng(7)
        for ops in (constant_operators(grid1d(24)), variable_ops_2d(7, 9),
                    variable_ops_2d(6, 9)):
            g = ops.grid
            F = build_matrix(spec, ops)
            assert F.shape == (g.N, g.N)
            for w in rng.standard_normal((3, g.N)):
                [ref] = reference_P_alpha(
                    spec, ops, QuatField.from_real(RealField(g, w)), (J_E1,))
                for ax in range(g.dims):
                    vec = F @ ops.apply_A(ax, w.reshape(g.n)).reshape(-1)
                    assert rel_gap(vec, ref.vec[ax].values.reshape(-1)) \
                        <= 1e-11

    def test_scal_block_symmetric_for_constant_coefficients(self):
        # f_2(L), column by column from the scal channel
        g = grid1d(16)
        ops = constant_operators(g)
        f2 = np.stack([
            apply_P_alpha(QuadratureSpec(0.5), ops, QuatField.from_real(
                RealField(g, e))).scal.values for e in np.eye(g.N)], axis=1)
        scale = np.max(np.abs(f2))
        assert np.max(np.abs(f2 - f2.T)) <= 1e-8 * scale

    def test_alpha_composition_on_eigenbasis(self):
        g = grid1d(16)
        ops = constant_operators(g)
        lam, vecs = np.linalg.eigh(ops.dense_L())
        k = 9
        phi = vecs[:, k]

        def mu(alpha):  # 2 phi^T f_2(L) phi
            scal = apply_P_alpha(QuadratureSpec(alpha), ops,
                                 QuatField.from_real(RealField(g, phi))).scal
            return 2.0 * float(phi @ scal.values)

        # lam^0.075 * lam^0.075 = lam^0.15
        assert math.isclose(mu(0.15) ** 2, mu(0.30), rel_tol=1e-8)

    def test_staggered_operators_rejected(self):
        g = Grid(BoxDomain((1.0,)), (9,))
        ops = StaggeredOperators(g, (make_profile(1, "1+0.1*x", 1.0),))
        with pytest.raises(ValueError, match="collocated"):
            build_matrix(QuadratureSpec(0.5), ops)

    def test_quadrature_certificate(self):
        # the symbols against the exact powers over the spectrum of L: tight
        # on a coarse grid and on a fine one, whose spread of the spectrum
        # a fixed split t_split = 1 did not fit (about 1e-2 off there)
        for n, length in ((31, math.pi), (1023, 1.0)):
            cert = quadrature_certificate(
                QuadratureSpec(0.5), constant_operators(grid1d(n, length)))
            assert 0.0 < cert["scal"] <= 1e-12, n
            assert 0.0 < cert["vec"] <= 1e-12, n

    def test_dense_cap(self):
        g = Grid(BoxDomain((1.0, 1.0)), (80, 80))
        with pytest.raises(ValueError, match="dense materialization capped"):
            build_matrix(QuadratureSpec(0.5), constant_operators(g))
