import math

import numpy as np
import pytest

from sfrac.grid import (BoxDomain, Grid, Operators, QuatField, RealField,
                        StaggeredOperators, _axis_eig, _eig,
                        constant_operators, diff_axis, norms)
from sfrac.coeff import constant_profile, make_profile
from sfrac.quat import E1, E2, E3, left_mult_table
from sfrac.resolvent import ResolventWorkspace
from helpers import box_ops, grid1d, null_pair, rel_gap


class TestDomainAndGrid:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            BoxDomain(())
        with pytest.raises(ValueError):
            BoxDomain((1.0, 2.0, 3.0, 4.0))
        with pytest.raises(ValueError):
            BoxDomain((1.0, -2.0))

    def test_spacing(self):
        g = grid1d(9, 1.0)
        assert math.isclose(g.h[0], 0.1, rel_tol=1e-15)
        assert np.allclose(g.axes[0], np.arange(1, 10) * 0.1)
        assert g.N == 9

    def test_counts_match_dims(self):
        with pytest.raises(ValueError):
            Grid(BoxDomain((1.0, 1.0)), (5,))
        with pytest.raises(ValueError):
            Grid(BoxDomain((1.0,)), (0,))

    def test_caps(self):
        with pytest.raises(ValueError):
            Grid(BoxDomain((1.0,)), (4096,))
        with pytest.raises(ValueError):
            Grid(BoxDomain((1.0, 1.0, 1.0)), (25, 25, 25))

    def test_parity_null_flag(self):
        assert grid1d(9).has_parity_null
        assert not grid1d(10).has_parity_null
        assert Grid(BoxDomain((1.0, 1.0)), (3, 5)).has_parity_null
        assert not Grid(BoxDomain((1.0, 1.0)), (3, 4)).has_parity_null

    def test_parity_null_vector_pattern(self):
        zeta, _ = null_pair(constant_operators(grid1d(5)))
        assert np.array_equal(zeta, [1.0, 0.0, 1.0, 0.0, 1.0])
        assert null_pair(constant_operators(grid1d(4))) is None


class TestFields:
    def test_realfield_shape_check(self):
        g = grid1d(5)
        RealField(g, np.zeros(5))
        with pytest.raises(ValueError):
            RealField(g, np.zeros(6))

    def test_from_function_and_l2(self):
        # sum_i sin^2(i pi/(n+1)) = (n+1)/2 exactly, so l2^2 = h*(n+1)/2 = L/2
        g = grid1d(200)
        f = RealField.from_function(g, np.sin)
        assert math.isclose(f.l2(), math.sqrt(math.pi / 2), rel_tol=1e-12)

    def test_quatfield_roundtrip(self):
        g = grid1d(5)
        q = QuatField.from_real(RealField.from_function(g, np.sin))
        assert np.allclose(q.component(0).values, np.sin(g.axes[0]))
        assert np.allclose(q.component(2).values, 0.0)

    def test_arithmetic_and_lincomb(self):
        g = grid1d(7)
        a = QuatField.from_real(RealField.from_function(g, np.sin))
        b = QuatField.from_real(RealField.from_function(g, np.cos))
        d = 2.0 * a - b
        assert np.array_equal(d.components,
                              2.0 * a.components - b.components)

    def test_left_mul_pointwise(self):
        g = grid1d(4)
        q = QuatField.from_real(RealField.from_function(g, np.sin))
        r = q.left_mul(E2)
        assert np.allclose(r.components[2], np.sin(g.axes[0]))
        assert np.allclose(r.components[0], 0.0)


class TestDiff:
    def test_linear_profile_exact_interior(self):
        g = grid1d(9, 1.0)
        ops = constant_operators(g)
        u = RealField.from_function(g, lambda x: x).values
        du = ops.apply_D(0, u)
        assert np.allclose(du[:-1], 1.0, atol=1e-14)
        # right-boundary-adjacent node reads a ghost zero
        h = g.h[0]
        expected_last = (0.0 - g.axes[0][-2]) / (2 * h)
        assert math.isclose(du[-1], expected_last, rel_tol=1e-14)

    def test_sin_second_order(self):
        g = grid1d(199)
        ops = constant_operators(g)
        u = np.sin(g.axes[0])
        du = ops.apply_D(0, u)
        interior = slice(1, -1)
        err = np.max(np.abs(du[interior] - np.cos(g.axes[0][interior])))
        assert err <= g.h[0] ** 2 / 6

    def test_zero(self):
        g = grid1d(11)
        assert np.array_equal(constant_operators(g).apply_D(0, np.zeros(11)),
                              np.zeros(11))

    def test_leading_dims_ride_along(self):
        g = Grid(BoxDomain((1.0, 2.0)), (4, 6))
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((3, 4, *g.n))
        out = diff_axis(batch, 1, g.h[1], g.dims)
        single = diff_axis(batch[1, 2], 1, g.h[1], g.dims)
        assert np.array_equal(out[1, 2], single)


def diff_by_cell(values, ax, h):
    """(u_{i+1} - u_{i-1}) / (2h) along axis ax, cell by cell, with +0.0
    ghosts."""
    u = np.moveaxis(values, ax, -1)
    out = np.empty_like(u)
    n = u.shape[-1]
    for i in range(n):
        right = u[..., i + 1] if i + 1 < n else 0.0
        left = u[..., i - 1] if i >= 1 else 0.0
        out[..., i] = (right - left) / (2.0 * h)
    return np.moveaxis(out, -1, ax)


STENCIL_GRIDS = [(1,), (2,), (3,), (8,), (1, 2), (2, 5), (7, 8), (4, 1),
                 (2, 1, 3), (5, 3, 5), (4, 5, 6)]


class TestStencilReferences:
    """diff_axis and apply_T against the dense matrices and a per-cell
    loop, which share no array kernel with them."""

    @pytest.mark.parametrize("n", STENCIL_GRIDS)
    def test_diff_axis_matches_dense_D(self, n):
        ops = box_ops(n, ("1",) * 3)
        v = np.random.default_rng(4).standard_normal((3, 4, *n))
        for ax in range(len(n)):
            out = diff_axis(v, ax, ops.grid.h[ax], len(n))
            ref = (v.reshape(12, -1) @ ops.dense_D(ax).T).reshape(v.shape)
            tol = 4 * np.finfo(float).eps * np.max(np.abs(v)) / ops.grid.h[ax]
            assert np.max(np.abs(out - ref), initial=0.0) <= tol
            # bit for bit, sign of zero included, against the cell loop
            by_cell = diff_by_cell(v, v.ndim - len(n) + ax, ops.grid.h[ax])
            assert np.array_equal(out, by_cell)
            assert np.array_equal(np.signbit(out), np.signbit(by_cell))

    @pytest.mark.parametrize("n", [(2,), (3,), (9,), (7, 8), (3, 2, 4)])
    def test_zero_next_to_a_boundary_keeps_its_sign(self, n):
        # +0 and -0 in the cells next to both ends of every line: the first
        # cell is u_1 (its sign kept), the last 0 - u_{n-2} (+0 for +-0)
        ops = box_ops(n, ("1",) * 3)
        for ax in range(len(n)):
            v = np.random.default_rng(ax).standard_normal((4, *n))
            line = [slice(None)] * v.ndim
            for i, z in ((0, 0.0), (1, -0.0), (n[ax] - 2, 0.0),
                         (n[ax] - 1, -0.0)):
                line[ax + 1] = i
                v[tuple(line)] = z
            out = diff_axis(v, ax, ops.grid.h[ax], len(n))
            by_cell = diff_by_cell(v, ax + 1, ops.grid.h[ax])
            assert np.array_equal(np.signbit(out), np.signbit(by_cell))
            assert np.array_equal(out, by_cell)
            line[ax + 1] = -1
            assert not np.any(np.signbit(out[tuple(line)]))

    @pytest.mark.parametrize("n", [(1,), (2,), (9,), (5, 4), (1, 2, 3),
                                   (3, 4, 5)])
    def test_apply_T_matches_dense_A_and_tables(self, n):
        ops = box_ops(n)
        v = np.random.default_rng(6).standard_normal((2, 4, *n))
        flat = v.reshape(2, 4, -1)
        ref = np.zeros_like(flat)
        for ax in range(len(n)):
            av = flat @ ops.dense_A(ax).T
            table = left_mult_table((E1, E2, E3)[ax])
            for a in range(4):
                for b in range(4):
                    if table[a, b]:
                        ref[:, a] += table[a, b] * av[:, b]
        out = ops.apply_T(v)
        assert out.shape == v.shape
        tol = 16 * np.finfo(float).eps * np.max(np.abs(v)) * max(
            np.max(np.abs(ops.dense_A(ax))) for ax in range(len(n)))
        assert np.max(np.abs(out.reshape(flat.shape) - ref)) <= tol


class TestOperators:
    def test_apply_T_real_sine(self):
        g = grid1d(63)
        ops = constant_operators(g)
        v = QuatField.from_real(RealField.from_function(g, np.sin))
        tv = ops.apply_T(v)
        dh = ops.apply_D(0, np.sin(g.axes[0]))
        assert np.allclose(tv.components[1], dh, atol=1e-15)
        assert np.allclose(tv.components[0], 0.0)
        assert np.allclose(tv.components[2:], 0.0)

    def test_apply_T_constant_boundary_spikes(self):
        g = grid1d(9, 1.0)
        ops = constant_operators(g)
        v = QuatField.from_real(RealField(g, np.ones(9)))
        tv = ops.apply_T(v)
        h = g.h[0]
        e1c = tv.components[1]
        assert math.isclose(e1c[0], 1 / (2 * h), rel_tol=1e-15)
        assert math.isclose(e1c[-1], -1 / (2 * h), rel_tol=1e-15)
        assert np.allclose(e1c[1:-1], 0.0)

    def test_apply_T_component_mixing(self):
        # v = e2 f in 1-D: T v = e1 e2 (A1 f) = e3 (A1 f)
        g = grid1d(12)
        ops = constant_operators(g)
        f = np.sin(g.axes[0])
        v = QuatField.from_components(g, q2=f)
        tv = ops.apply_T(v)
        assert np.allclose(tv.components[3], ops.apply_A(0, f), atol=1e-15)
        assert np.allclose(tv.components[:3], 0.0)

    def test_dense_matches_matrix_free(self):
        dom = BoxDomain((1.0, 1.5))
        g = Grid(dom, (5, 6))
        profiles = (make_profile(1, "1+0.1*x", 1.0),
                    make_profile(2, "1+0.2*x^2", 1.5))
        ops = Operators(g, profiles)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.n)
        for ax in range(2):
            dense = ops.dense_A(ax) @ u.reshape(-1)
            assert np.allclose(dense, ops.apply_A(ax, u).reshape(-1),
                               atol=1e-13)
        dense_l = ops.dense_L() @ u.reshape(-1)
        assert np.allclose(dense_l, ops.apply_L(u).reshape(-1), atol=1e-12)

    def test_axis_operators_commute_exactly(self):
        dom = BoxDomain((1.0, 1.5))
        g = Grid(dom, (6, 7))
        profiles = (make_profile(1, "1+0.1*x", 1.0),
                    make_profile(2, "exp(-x)", 1.5))
        ops = Operators(g, profiles)
        a1, a2 = ops.dense_A(0), ops.dense_A(1)
        assert np.array_equal(a1 @ a2, a2 @ a1)

    def test_transpose_is_adjoint(self):
        g = grid1d(17, 1.0)
        ops = Operators(g, (make_profile(1, "1+0.1*x", 1.0),))
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal((2, 17))
        lhs = np.dot(ops.apply_A(0, u), v)
        rhs = np.dot(u, ops.apply_A_transpose(0, v))
        assert math.isclose(lhs, rhs, rel_tol=1e-13)

    def test_T_squared_is_scalar(self):
        dom = BoxDomain((1.0, 1.5))
        g = Grid(dom, (8, 9))
        profiles = (make_profile(1, "1+0.1*x", 1.0),
                    make_profile(2, "1+0.2*x", 1.5))
        ops = Operators(g, profiles)
        rng = np.random.default_rng(3)
        v = QuatField(g, rng.standard_normal((4, *g.n)))
        ttv = ops.apply_T(ops.apply_T(v))
        lv = ops.apply_L(v.components)
        scale = float(np.max(np.abs(lv)))
        assert np.max(np.abs(ttv.components - lv)) <= 1e-13 * scale

    def test_even_grid_L_positive_definite(self):
        g = grid1d(16)
        ops = constant_operators(g)
        lam = np.linalg.eigvalsh(ops.dense_L())
        assert lam[0] > 0.0
        # composed-stencil spectrum: cos^2(k pi/(n+1)) / h^2
        k = np.arange(1, 17)
        expect = np.sort(np.cos(k * np.pi / 17.0) ** 2) / g.h[0] ** 2
        assert np.allclose(np.sort(lam), expect, atol=1e-10)

    def test_odd_grid_exact_null(self):
        dom = BoxDomain((1.0, 1.0))
        g = Grid(dom, (5, 7))
        profiles = (make_profile(1, "1+0.1*x", 1.0),
                    make_profile(2, "1+0.3*x", 1.0))
        ops = Operators(g, profiles)
        zeta, eta = null_pair(ops)
        scale = float(np.max(np.abs(eta))) / min(g.h)
        for ax in range(2):
            # right null is bitwise (equal pattern values difference away)
            assert np.array_equal(ops.apply_A(ax, zeta), np.zeros(g.n))
            # left null holds to rounding for variable coefficients: the
            # pattern a_l*eta is constant along axis l only in exact arithmetic
            assert np.max(np.abs(ops.apply_A_transpose(ax, eta))) \
                <= 1e-14 * scale
        assert null_pair(constant_operators(grid1d(4))) is None

    def test_zero_sample_on_and_off_the_null_support(self):
        # 1D n = 9 on [0, 1] puts x = 0.5 at index 4 (on the pattern) and
        # x = 0.4 at index 3 (off it)
        g = Grid(BoxDomain((1.0,)), (9,))
        off = Operators(g, (make_profile(1, "x-0.4", 1.0),))
        zeta, eta = null_pair(off)
        assert eta[3] == 0.0 and np.all(np.isfinite(eta))
        assert np.array_equal(eta[zeta != 0.0],
                              1.0 / off.a_samples[0][zeta != 0.0])
        for text in ("x-0.5", "0"):
            with pytest.raises(ValueError, match="parity null mode"):
                null_pair(Operators(g, (make_profile(1, text, 1.0),)))

    def test_constant_coefficients_left_null_bitwise(self):
        ops = constant_operators(grid1d(7))
        zeta, eta = null_pair(ops)
        assert np.array_equal(eta, zeta)
        assert np.array_equal(ops.apply_A_transpose(0, eta), np.zeros(7))

    @pytest.mark.parametrize("n,lengths,c", [
        ((9,), (math.pi,), (1.0,)),
        ((10,), (2.5,), (1.7,)),
        ((7, 9), (1.3, 2.0), (1.4, 0.6)),
        ((6, 8), (0.7, 1.9), (2.0, 1.1)),
        ((5, 8), (1.3, 2.0), (1.4, 0.6)),
        ((5, 7, 9), (1.2, 0.8, 2.1), (0.9, 1.5, 1.1)),
        ((6, 5, 8), (1.2, 0.8, 2.1), (0.9, 1.5, 1.1)),
    ])
    def test_eigenvalues_match_the_analytic_spectrum(self, n, lengths, c):
        # constant c_l: -A_l^2 = -c_l^2 D_l^2 has the eigenvalues
        # c_l^2 cos^2(k pi/(n_l+1)) / h_l^2, k = 1..n_l, and L is the
        # Kronecker sum of those
        g = Grid(BoxDomain(lengths), n)
        ops = Operators(g, tuple(constant_profile(ax + 1, v, L) for ax, (v, L)
                                 in enumerate(zip(c, lengths))))
        want = 0.0
        for ax, (m, h, v) in enumerate(zip(g.n, g.h, c)):
            k = np.arange(1, m + 1)
            shape = [1] * g.dims
            shape[ax] = m
            want = want + (v * v * np.cos(k * np.pi / (m + 1)) ** 2
                           / h ** 2).reshape(shape)
        lam = ops.spectral.eigenvalues()
        want = np.sort(want, axis=None)
        assert np.max(np.abs(np.sort(lam, axis=None) - want)) \
            <= 1e-14 * want[-1]
        # exactly one exact 0, the parity null mode, on all-odd grids
        assert np.count_nonzero(lam == 0.0) == int(g.has_parity_null)
        assert np.all(lam >= 0.0)

    def test_dense_cap(self):
        g = Grid(BoxDomain((1.0, 1.0)), (80, 80))
        with pytest.raises(ValueError):
            constant_operators(g).dense_L()


class TestLinearSystem:
    """Q_s = |s|^2 I + L with L = dense_L(): the matrix of T^2 + |s|^2 on
    each component, which `ResolventWorkspace` solves."""

    def test_constant_1d_is_t2_plus_DtD(self):
        g = grid1d(15)
        ops = constant_operators(g)
        t = 0.7
        d = ops.dense_D(0)
        expect = t * t * np.eye(g.N) + d.T @ d
        assert np.allclose(t * t * np.eye(g.N) + ops.dense_L(), expect,
                           atol=1e-13)

    def test_zero_field(self):
        g = grid1d(8)
        ws = ResolventWorkspace(constant_operators(g), np.array([1.0]))
        zero = np.zeros(g.n)
        assert np.array_equal(ws._t2[0] * zero + ws.ops.apply_L(zero), zero)

    def test_commutative_polynomial_is_negation(self, dense_route):
        # s^2 I + sum A_l^2  ==  -(|s|^2 I - sum A_l^2) for Re s = 0, exactly
        g = grid1d(14, 1.0)
        ops = Operators(g, (make_profile(1, "1+0.1*x", 1.0),))
        t = 1.3
        ws = ResolventWorkspace(dense_route(ops), np.array([t]))
        q = dense_route.Q(ws.ops, ws._t2[0])
        assert np.array_equal(q, t * t * np.eye(g.N) + ops.dense_L())
        a = ops.dense_A(0)
        q_c = (-t * t) * np.eye(g.N) + a @ a
        assert np.array_equal(q_c, -q)

    def test_assembly_rejects_bad_t(self):
        # node magnitudes: a 1-D array of finite values > 0
        ops = constant_operators(grid1d(4))
        for t in ([0.0], [1.0, -1.0], [math.inf], [1.0, math.nan], 1.0,
                  [[1.0]]):
            with pytest.raises(ValueError, match="finite values > 0"):
                ResolventWorkspace(ops, np.array(t))
        ResolventWorkspace(ops, np.array([1e-3, 1e3]))


def staggered_ops_2d():
    g = Grid(BoxDomain((1.0, 1.3)), (12, 15))
    return StaggeredOperators(g, (make_profile(1, "1+0.2*sin(x)", 1.0),
                                  make_profile(2, "exp(0.1*x)", 1.3)))


class TestAxisFactorization:
    def test_staggered_node_eigenvalues_computed_once_read_only(self):
        ops = staggered_ops_2d()
        lam = ops.spectral.eigenvalues()
        assert ops.spectral is ops.spectral
        assert ops.spectral.eigenvalues() is lam
        assert lam.shape == ops.grid.n and not lam.flags.writeable
        with pytest.raises(ValueError):
            lam[0, 0] = 1.0
        assert np.all(lam > 0.0)  # compact L_D: no parity null mode

    def test_face_family_reproduces_apply_L(self):
        # both operator families, and the flux intertwines them:
        # A_l L_D = L_l A_l
        ops = staggered_ops_2d()
        g = ops.grid
        u = np.random.default_rng(3).standard_normal(g.n)
        lu = ops.apply_L(u)
        sp = ops.spectral
        assert rel_gap(sp.apply_symbol(sp.eigenvalues(), u), lu) <= 1e-13
        for ax in range(2):
            face = ops.face_spectral(ax)
            au = ops.apply_A(ax, u)
            assert face.eigenvalues().shape == au.shape
            la = ops.apply_L(au, face_axis=ax)
            assert rel_gap(face.apply_symbol(face.eigenvalues(), au),
                           la) <= 1e-13
            assert rel_gap(ops.apply_A(ax, lu), la) <= 1e-14

    def test_non_positive_set_raises_from_spectral(self):
        # the staggered scheme's SVD needs positive samples; the collocated
        # L of the same set is factored by a general eig per parity block
        g, profiles = grid1d(9, 1.0), (make_profile(1, "x-0.45", 1.0),)
        ops = Operators(g, profiles)
        stag = StaggeredOperators(g, profiles)
        assert not ops.is_positive
        for _ in range(2):  # a failed build is not cached
            for build in (lambda: stag.spectral,
                          lambda: stag.face_spectral(0)):
                with pytest.raises(ValueError, match="positive"):
                    build()
        u = np.random.default_rng(2).standard_normal(g.n)
        sp = ops.spectral
        assert rel_gap(sp.apply_symbol(sp.eigenvalues(), u).real,
                       ops.apply_L(u)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_jordan_block_raises(self, n):
        # eig returns parallel eigenvectors: V is singular to rounding at
        # n = 2 (cond 1e292) and exactly singular at n = 3
        with pytest.raises(ValueError, match="condition number .* above "
                                             "the bound 1e\\+06"):
            _eig(np.diag(np.ones(n - 1), 1))

    def test_defective_axis_block_raises(self):
        # samples -1, 1, 1 on n = 3: the even parity block of L_l is
        # proportional to [[-1, 1], [-1, 1]], a Jordan block
        d = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError, match="condition number"):
            _axis_eig(np.array([-1.0, 1.0]), d, np.array([1.0]))
        # a diagonalizable block passes, its factors inverse to each other
        for lam, fwd, inv in _axis_eig(np.array([-1.0, 0.5]), d,
                                       np.array([1.0])):
            assert np.allclose(inv @ fwd, np.eye(len(lam)), atol=1e-14)

    @pytest.mark.parametrize("n", [(9,), (63,), (10,), (9, 5), (9, 4)])
    def test_eig_pins_the_parity_zero(self, n):
        # a sample <= 0: each odd axis has its structural 0 exactly 0 and
        # last, with the constant as its eigenvector on the out-points, as
        # the SVD of a positive set has; Lambda is 0 there and only there
        lengths = (1.0, 1.3)[:len(n)]
        texts = ("x-0.45", "1+0.1*x")
        ops = Operators(Grid(BoxDomain(lengths), n), tuple(
            make_profile(ax + 1, texts[ax], length)
            for ax, length in enumerate(lengths)))
        assert not ops.is_positive
        for (lam, fwd, inv), v in zip(ops.spectral.factors, n):
            if v % 2:
                assert lam[-1] == 0.0 and np.all(lam[:-1] != 0.0)
                assert np.all(inv[0::2, -1] == (v // 2 + 1) ** -0.5)
                assert not inv[1::2, -1].any()
            assert np.allclose(fwd @ inv, np.eye(v), atol=1e-12)
        sp = ops.spectral
        odd = all(v % 2 for v in n)
        assert np.array_equal(sp.null_mask, sp.eigenvalues() == 0.0)
        assert np.count_nonzero(sp.null_mask) == odd
        assert sp.null_mask.reshape(-1)[-1] == odd

    @pytest.mark.parametrize("n", [(7,), (8,), (31,), (64,), (255,), (1,),
                                   (2,), (9, 10), (5, 6, 7)])
    def test_collocated_eigenvalues_pair_exactly(self, n):
        # one SVD per axis, of the even-odd block B of K_l = r D_l r: each
        # positive lambda comes once per parity sublattice, bit for bit, and
        # an odd axis has exactly one exact 0 (the null space of B^T)
        lengths = (1.0, 1.3, 0.8)[:len(n)]
        texts = ("1+0.1*sin(x)", "exp(0.2*x)", "1.3")
        ops = Operators(Grid(BoxDomain(lengths), n), tuple(
            make_profile(ax + 1, texts[ax], length)
            for ax, length in enumerate(lengths)))
        for (lam, _, _), v in zip(ops.spectral.factors, n):
            assert lam.shape == (v,) and np.all(lam >= 0.0)
            values, counts = np.unique(lam, return_counts=True)
            assert np.all(counts[values > 0.0] == 2)
            assert np.count_nonzero(lam == 0.0) == v % 2
        # the mask of the structural 0 is the exact 0 of Lambda
        sp = ops.spectral
        assert np.array_equal(sp.null_mask, sp.eigenvalues() == 0.0)


class TestNorms:
    def test_zero(self):
        g = grid1d(6)
        n = norms(QuatField.zeros(g))
        assert n["l2"] == 0.0 and n["d_norm"] == 0.0 and n["h1"] == 0.0

    def test_sine_l2(self):
        g = grid1d(400)
        u = QuatField.from_real(RealField.from_function(g, np.sin))
        assert math.isclose(norms(u)["l2"], math.sqrt(math.pi / 2),
                            rel_tol=1e-12)

    def test_h1_pythagoras(self):
        g = grid1d(50)
        u = QuatField.from_real(RealField.from_function(g, np.sin))
        n = norms(u)
        assert math.isclose(n["h1"] ** 2, n["l2"] ** 2 + n["d_norm"] ** 2,
                            rel_tol=1e-14)

    def test_discrete_poincare(self):
        c_omega = 1.0  # (0, pi)
        for n in (64, 128, 256):
            g = grid1d(n)
            u = QuatField.from_real(
                RealField.from_function(g, lambda x: np.sin(x) + 0.3 * np.sin(2 * x)))
            m = norms(u)
            assert m["l2"] <= c_omega * 1.01 * m["d_norm"]
