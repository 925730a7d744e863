import math

import numpy as np
import pytest

from sfrac.coeff import make_profile
from sfrac.errors import SolverDiverged
from sfrac.grid import (BoxDomain, Grid, Operators, QuatField, RealField,
                        constant_operators)
from sfrac.quat import Quaternion
from sfrac.resolvent import (ResolventWorkspace,
                             s_resolvent_equation_residual, splitting_residual)

S_E1 = Quaternion(0, 1.0, 0, 0)


def grid1d(n, length=math.pi):
    return Grid(BoxDomain((length,)), (n,))


def q_residual(ws, w, f):
    """Q_s w - f, with Q_s = |s|^2 I + L."""
    return ws.t2 * w.components + ws.ops.apply_L(w.components) - f.components


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return QuatField(grid, rng.standard_normal((4, *grid.n)))


def variable_ops_2d(n1=7, n2=9):
    g = Grid(BoxDomain((1.0, 1.3)), (n1, n2))
    return Operators(g, (make_profile(1, "1+0.1*x", 1.0),
                         make_profile(2, "1+0.2*x", 1.3)))


class TestSolveQ:
    def test_zero_rhs(self):
        ws = ResolventWorkspace(constant_operators(grid1d(12)), S_E1)
        w = ws.solve_Q(QuatField.zeros(ws.grid))
        assert np.array_equal(w.components, np.zeros((4, 12)))

    @pytest.mark.parametrize("n", [14, 15])  # even and odd (deflated) grids
    def test_residual(self, n):
        ws = ResolventWorkspace(constant_operators(grid1d(n)), S_E1)
        f = random_field(ws.grid, seed=n)
        r = q_residual(ws, ws.solve_Q(f), f)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(f.components)

    def test_variable_coefficients_residual(self):
        ops = variable_ops_2d()
        ws = ResolventWorkspace(ops, Quaternion(0, 0, 0.8, 0))
        f = random_field(ws.grid, seed=3)
        r = q_residual(ws, ws.solve_Q(f), f)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(f.components)

    def test_eigenvector_closed_form(self):
        # dense eigendecomposition oracle: Q phi = (t^2 + lam) phi
        g = grid1d(16)
        ops = constant_operators(g)
        lam, vecs = np.linalg.eigh(ops.dense_L())
        k = 7
        phi = vecs[:, k]
        t = 0.9
        ws = ResolventWorkspace(ops, Quaternion(0, 0, t, 0))
        w = ws.solve_Q(QuatField.from_real(RealField(g, phi)))
        expect = phi / (t * t + lam[k])
        assert np.max(np.abs(w.components[0].reshape(-1) - expect)) <= 1e-12

    def test_odd_grid_parity_mode_coefficient(self):
        # generic rhs keeps the analytically-known mode amplitude; a rhs
        # declared to lie in range(A) gets exactly zero
        g = grid1d(15)
        ops = constant_operators(g)
        t = 1e-3
        ws = ResolventWorkspace(ops, Quaternion(0, t, 0, 0))
        zeta, eta = ops.null_pair
        denom = float(eta.reshape(-1) @ zeta.reshape(-1))

        rng = np.random.default_rng(7)
        f = rng.standard_normal(15)
        u = ws._solve_stack(f)
        coeff = float(eta.reshape(-1) @ u) / denom
        beta = float(eta.reshape(-1) @ f) / denom
        assert math.isclose(coeff, beta / t ** 2, rel_tol=1e-12)

        in_range = ops.apply_A(0, rng.standard_normal(15)).reshape(-1)
        u2 = ws._solve_stack(in_range, null_free_rhs=True)
        coeff2 = float(eta.reshape(-1) @ u2) / denom
        assert abs(coeff2) <= 1e-12 * np.max(np.abs(u2))

    def test_solve_Q_real_shapes(self):
        ops = variable_ops_2d()
        ws = ResolventWorkspace(ops, S_E1)
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((2, 3, *ws.grid.n))
        out = ws.solve_Q_real(stack)
        assert out.shape == stack.shape
        single = ws.solve_Q_real(stack[1, 2])
        assert np.allclose(out[1, 2], single, atol=1e-13)

    def test_requires_imaginary_s(self):
        ops = constant_operators(grid1d(8))
        with pytest.raises(ValueError):
            ResolventWorkspace(ops, Quaternion(1.0, 1.0, 0, 0))

    def test_residual_guard_raises(self):
        # x - 0.3 gives L a negative eigenvalue mu on this grid, so Q_t is
        # singular at t^2 = -mu and its LU misses the residual guard
        g = grid1d(10, length=1.0)
        ops = Operators(g, (make_profile(1, "x-0.3", 1.0),))
        mu = np.min(np.linalg.eigvals(ops.dense_L()).real)
        assert mu < 0.0
        ws = ResolventWorkspace(ops, Quaternion(0, math.sqrt(-mu), 0, 0))
        with pytest.raises(SolverDiverged):
            ws.solve_Q(random_field(g, seed=6))


def rel_max(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def variable_ops(n):
    lengths = (1.0, 1.3, 1.1)[:len(n)]
    texts = ("1+0.1*sin(x)", "exp(0.2*x)", "1+0.15*cos(x)")
    return Operators(Grid(BoxDomain(lengths), n),
                     tuple(make_profile(ax + 1, texts[ax], L)
                           for ax, L in enumerate(lengths)))


class TestSpectral:
    """The spectral path against dense LU, the independent reference that
    non-positive coefficient sets take."""

    @pytest.mark.parametrize("n", [(31,), (32,), (9, 11), (10, 8),
                                   (7, 9, 5), (6, 8, 4)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_dense(self, n, transpose, dense_route):
        ops = variable_ops(n)
        assert ops.grid.has_parity_null == all(v % 2 for v in n)
        rng = np.random.default_rng(len(n))
        generic = rng.standard_normal((3, ops.grid.N))
        # null-free: in the range of A_0 (of A_0^T when transposed), which
        # the left null vector of that orientation annihilates
        to_range = ops.apply_A_transpose if transpose else ops.apply_A
        in_range = to_range(0, rng.standard_normal((3, *n))).reshape(3, -1)
        for t in (1e-3, 0.7, 40.0):
            s = Quaternion(0, 0, t, 0)
            ws = ResolventWorkspace(ops, s)
            ref = ResolventWorkspace(dense_route(ops), s)
            for rhs, null_free in ((generic, False), (in_range, True)):
                got = ws._solve_stack(rhs, transpose, null_free)
                want = ref._solve_stack(rhs, transpose, null_free)
                assert rel_max(got, want) <= 1e-12, (t, null_free)
            # the reference built the dense L, the production route did not
            assert "_dense_L_cache" in vars(ref.ops)
            assert "_dense_L_cache" not in vars(ops)

    def test_zero_rows_stay_exact_zeros(self):
        ops = variable_ops((9, 11))
        ws = ResolventWorkspace(ops, S_E1)
        rhs = np.zeros((3, ops.grid.N))
        rhs[1] = np.random.default_rng(4).standard_normal(ops.grid.N)
        sol = ws._solve_stack(rhs)
        assert not sol[0].any() and not sol[2].any()
        assert rel_max(sol[1], ws._solve_stack(rhs[1])) <= 1e-14

    def test_needs_positive_coefficients(self):
        g = grid1d(9, length=1.0)
        ops = Operators(g, (make_profile(1, "x-0.45", 1.0),))
        assert not ops.is_positive
        # L of such a set has a general eig per parity block in place of
        # the SVD, and the workspace applies the same symbol 1/(t^2 +
        # lambda) through it, masked only at the structural 0 of the odd
        # axis, which the deflation owns
        ws = ResolventWorkspace(ops, S_E1)
        lam = ops.spectral.eigenvalues()
        assert lam[-1] == 0.0
        assert np.array_equal(ws._symbol[0][:-1], 1.0 / (1.0 + lam[:-1]))
        assert ws._symbol[0][-1] == 0.0
        f = random_field(g, seed=2)
        r = q_residual(ws, ws.solve_Q(f), f)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(f.components)

    @pytest.mark.parametrize("n", [(7, 8), (9, 15), (1,), (2,), (1, 2, 3)])
    def test_eigenvalues_are_those_of_L(self, n):
        ops = variable_ops(n)
        lam = np.sort(ops.spectral.eigenvalues().reshape(-1))
        ref = np.sort(np.linalg.eigvals(ops.dense_L()).real)
        assert rel_max(lam, ref) <= 1e-12
        # exactly one exact zero, the parity null mode, on all-odd grids only
        assert np.count_nonzero(lam == 0.0) == ops.grid.has_parity_null
        u = np.random.default_rng(5).standard_normal(ops.grid.n)
        sp = ops.spectral
        assert rel_max(sp.apply_symbol(sp.eigenvalues(), u),
                       ops.apply_L(u)) <= 1e-13


class TestSResolvents:
    def test_zero_field(self):
        ws = ResolventWorkspace(constant_operators(grid1d(9)), S_E1)
        assert np.array_equal(ws.apply_SR(QuatField.zeros(ws.grid)).components,
                              np.zeros((4, 9)))
        assert np.array_equal(ws.apply_SL(QuatField.zeros(ws.grid)).components,
                              np.zeros((4, 9)))

    @pytest.mark.parametrize("n", [14, 15])
    def test_commuting_subalgebra_matches_classical_resolvent(self, n):
        # s = -e1 t and T = e1 D commute; the S-resolvent must reduce to the
        # classical (s I - T)^{-1} inside the complex slice of e1
        g = grid1d(n)
        ops = constant_operators(g)
        t = 0.8
        s = Quaternion(0, -t, 0, 0)
        ws = ResolventWorkspace(ops, s)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        w = ws.apply_SR(QuatField.from_real(RealField(g, v)))

        d = ops.dense_D(0)
        m = (-1j * t) * np.eye(n) - 1j * d
        wc = np.linalg.solve(m, v.astype(complex))
        assert np.max(np.abs(w.components[0].reshape(-1) - wc.real)) <= 1e-11
        assert np.max(np.abs(w.components[1].reshape(-1) - wc.imag)) <= 1e-11
        assert np.max(np.abs(w.components[2:])) <= 1e-13

    def test_left_equals_right_on_real_slice(self):
        ops = variable_ops_2d()
        ws = ResolventWorkspace(ops, Quaternion(0, 0.6, 0, 0))
        v = random_field(ops.grid, seed=9)
        wl = ws.apply_SL(v)
        wr = ws.apply_SR(v)
        assert np.array_equal(wl.components, wr.components)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_splitting_identity(self, seed):
        ops = variable_ops_2d()
        tol = 1e-10
        ws = ResolventWorkspace(ops, Quaternion(0, 0.4, 0.3, 0))
        assert splitting_residual(ws, random_field(ops.grid, seed)) <= 10 * tol

    def test_s_resolvent_equation(self):
        ops = constant_operators(grid1d(15))
        tol = 1e-10
        rng = np.random.default_rng(12)
        for _ in range(3):
            xs = rng.standard_normal(6)
            s = Quaternion(0, *(0.7 * xs[:3]))
            p = Quaternion(0, *(1.9 * xs[3:]))
            v = QuatField(ops.grid, rng.standard_normal((4, 15)))
            assert s_resolvent_equation_residual(ops, s, p, v) <= 100 * tol


class TestNormEstimate:
    def test_theta_bound_constant(self):
        ops = constant_operators(grid1d(31))
        theta = 2.0 * math.sqrt(2.0)
        for t in (0.1, 1.0, 10.0):
            ws = ResolventWorkspace(ops, Quaternion(0, t, 0, 0))
            assert ws.estimate_norm() * t <= theta * 1.0001

    def test_large_s_asymptote(self):
        ops = constant_operators(grid1d(31))
        t = 1e4
        ws = ResolventWorkspace(ops, Quaternion(0, 0, t, 0))
        assert abs(ws.estimate_norm() * t - 1.0) <= 0.05

    def test_axial_symmetry(self):
        ops = variable_ops_2d()
        t = 0.7
        up, dn = (ResolventWorkspace(ops, Quaternion(0, 0, y, 0))
                  .estimate_norm() for y in (t, -t))
        assert abs(up - dn) <= 1e-6 * up
