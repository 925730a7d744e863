import math

import numpy as np
import pytest
import scipy.linalg

from sfrac.coeff import constant_profile, make_profile
from sfrac.frac import QuadratureSpec, apply_P_alpha
from sfrac.grid import (BoxDomain, Grid, Operators, QuatField, RealField,
                        StaggeredOperators, constant_operators)
from sfrac.oracle import (closed_form_P_alpha, fractional_laplacian_spectral,
                          s_spectrum_probe, sine_basis)
from helpers import grid1d, null_pair, rel_gap


class TestSineBasis:
    @pytest.mark.parametrize("shape,lengths", [
        ((17,), (math.pi,)),
        ((6, 9), (1.0, 2.0)),
    ])
    def test_round_trip(self, shape, lengths):
        g = Grid(BoxDomain(lengths), shape)
        basis = sine_basis(g)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.n)
        back = basis.apply_symbol(np.ones(g.n), v)
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_eigenvalues_2d(self):
        g = Grid(BoxDomain((math.pi, 2 * math.pi)), (3, 4))
        lam = sine_basis(g).eigenvalues()
        assert lam.shape == (3, 4)
        assert math.isclose(lam[0, 0], 1.0 + 0.25, rel_tol=1e-14)
        assert math.isclose(lam[2, 1], 9.0 + 1.0, rel_tol=1e-14)

    def test_single_mode_isolated(self):
        g = grid1d(31)
        c = sine_basis(g).forward(np.sin(2 * g.axes[0]))
        expect = np.zeros(31)
        expect[1] = 1.0
        assert np.max(np.abs(c - expect)) <= 1e-13


class TestSpectralLaplacian:
    def test_beta_zero_identity(self):
        g = grid1d(40)
        v = RealField.from_function(g, lambda x: np.sin(x) + 0.2 * np.sin(3 * x))
        out = fractional_laplacian_spectral(0.0, v)
        assert rel_gap(out.values, v.values) <= 1e-12

    def test_eigenfunction_beta_one(self):
        g = grid1d(50)
        v = RealField.from_function(g, lambda x: np.sin(2 * x))
        out = fractional_laplacian_spectral(1.0, v)
        assert rel_gap(out.values, 4.0 * v.values) <= 1e-11

    def test_eigenfunction_beta_half(self):
        g = grid1d(50)
        v = RealField.from_function(g, lambda x: np.sin(2 * x))
        out = fractional_laplacian_spectral(0.5, v)
        assert rel_gap(out.values, 2.0 * v.values) <= 1e-11


class TestClosedForm:
    def test_eigenvector(self):
        g = grid1d(32)
        ops = constant_operators(g)
        lam, vecs = np.linalg.eigh(ops.dense_L())
        k = 20
        phi = vecs[:, k]
        alpha = 0.6
        out = closed_form_P_alpha(alpha, RealField(g, phi), ops)
        assert rel_gap(out.scal.values.reshape(-1),
                       0.5 * lam[k] ** (alpha / 2) * phi) <= 1e-12
        vec_expect = 0.5 * lam[k] ** ((alpha - 1) / 2) \
            * ops.apply_A(0, phi.reshape(g.n)).reshape(-1)
        assert rel_gap(out.vec[0].values.reshape(-1), vec_expect) <= 1e-12
        assert out.j_leak == 0.0

    def test_divergence_of_vec_channel_exponent(self):
        # D applied to the vec channel of an eigenvector realizes
        # -(1/2) lam^{(alpha+1)/2} phi: the (alpha-1)/2 exponent composed
        # with one more factor of the operator
        g = grid1d(32)
        ops = constant_operators(g)
        lam, vecs = np.linalg.eigh(ops.dense_L())
        k = 20
        phi = vecs[:, k]
        alpha = 0.75
        out = closed_form_P_alpha(alpha, RealField(g, phi), ops)
        dv = ops.apply_D(0, out.vec[0].values).reshape(-1)
        assert rel_gap(dv, -0.5 * lam[k] ** ((alpha + 1) / 2) * phi) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_variable_coefficients_match_fractional_matrix_powers(self,
                                                                  alpha):
        # L is not symmetric here; the independent reference is the
        # Schur-Pade fractional power of the dense L itself
        g = Grid(BoxDomain((1.0, 1.3)), (6, 7))
        ops = Operators(g, (make_profile(1, "1+0.2*sin(2*x)", 1.0),
                            make_profile(2, "exp(0.3*x)", 1.3)))
        v = np.random.default_rng(2).standard_normal(g.n)
        out = closed_form_P_alpha(alpha, RealField(g, v), ops)
        dense = ops.dense_L()
        scal = 0.5 * scipy.linalg.fractional_matrix_power(dense, alpha / 2)
        vec = 0.5 * scipy.linalg.fractional_matrix_power(dense,
                                                         (alpha - 1) / 2)
        assert rel_gap(out.scal.flat(), np.real(scal) @ v.reshape(-1)) \
            <= 1e-13
        for ax in range(2):
            want = np.real(vec) @ ops.apply_A(ax, v).reshape(-1)
            assert rel_gap(out.vec[ax].flat(), want) <= 1e-13
        assert not np.any(out.vec[2].values)

    def test_non_positive_coefficient_matches_fractional_matrix_powers(
            self):
        # a sample <= 0: the per-axis eig of L, complex on 1D 18 (its
        # eigenvalues reach 6.3e-2 off the real axis), with the powers on
        # the principal branch; the reference is that of the Schur-Pade
        # fractional power of the dense L
        for n, texts in (((18,), ("x-0.45",)), ((6, 8), ("x-0.45",
                                                        "1+0.1*x"))):
            lengths = (1.0, 1.3)[:len(n)]
            g = Grid(BoxDomain(lengths), n)
            ops = Operators(g, tuple(make_profile(ax + 1, text, length)
                                     for ax, (text, length)
                                     in enumerate(zip(texts, lengths))))
            assert not ops.is_positive
            v = np.random.default_rng(3).standard_normal(g.n)
            out = closed_form_P_alpha(0.3, RealField(g, v), ops)
            dense = ops.dense_L()
            scal = 0.5 * scipy.linalg.fractional_matrix_power(dense, 0.15)
            vec = 0.5 * scipy.linalg.fractional_matrix_power(dense, -0.35)
            assert rel_gap(out.scal.flat(),
                           np.real(scal) @ v.reshape(-1)) <= 1e-12
            for ax in range(len(n)):
                want = np.real(vec) @ ops.apply_A(ax, v).reshape(-1)
                assert rel_gap(out.vec[ax].flat(), want) <= 1e-12

    def test_alpha_domain(self):
        ops = constant_operators(grid1d(8))
        v = RealField.from_function(ops.grid, np.sin)
        with pytest.raises(ValueError):
            closed_form_P_alpha(1.0, v, ops)

    def test_parity_mode_sent_to_zero_by_both_routes(self):
        g = grid1d(15)
        ops = constant_operators(g)
        zeta, _ = null_pair(ops)
        cf = closed_form_P_alpha(0.5, RealField(g, zeta), ops)
        assert np.max(np.abs(cf.full.components)) <= 1e-12
        quad = apply_P_alpha(QuadratureSpec(0.5), ops,
                             QuatField.from_real(RealField(g, zeta)))
        assert np.max(np.abs(quad.full.components)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    def test_agrees_with_quadrature(self, alpha):
        g = grid1d(64)
        ops = constant_operators(g)
        v = RealField.from_function(g, lambda x: x * (math.pi - x) ** 2)
        cf = closed_form_P_alpha(alpha, v, ops)
        quad = apply_P_alpha(QuadratureSpec(alpha), ops,
                             QuatField.from_real(v))
        assert rel_gap(cf.full.components, quad.full.components) <= 1e-6

    def test_spectral_vs_closed_form_sin2x(self):
        # continuous-eigenvalue route vs discrete eigendecomposition on the
        # sampled second sine mode; on the staggered scheme that mode is an
        # exact eigenvector of the compact L_D, whose eigenvalue is
        # (k pi / L)^2 up to O(h^2)
        alpha = 0.5
        g = grid1d(255)
        ops = StaggeredOperators(g, (constant_profile(1, 1.0, math.pi),))
        v = RealField.from_function(g, lambda x: np.sin(2 * x))
        cf = closed_form_P_alpha(alpha, v, ops)
        spectral = fractional_laplacian_spectral(alpha / 2, v)
        gap = rel_gap(2.0 * cf.scal.values, spectral.values)
        assert gap <= 3e-4


class TestProbe:
    def test_hand_oracle_n3(self):
        # composed stencil at n=3: mu = {0, 1/(2h^2), 1/(2h^2)}
        g = grid1d(3)
        h = g.h[0]
        probe = s_spectrum_probe(constant_operators(g))
        r = math.sqrt(0.5) / h
        expect = sorted([-r, -r, 0.0, 0.0, r, r])
        assert len(probe.points) == 6
        assert np.allclose(sorted(probe.points), expect, atol=1e-12)
        assert probe.sphere_radii == ()
        assert probe.max_imag == 0.0

    def test_axial_symmetry_variable(self):
        g = Grid(BoxDomain((1.0, 1.3)), (5, 6))
        profiles = (make_profile(1, "1+0.1*x", 1.0),
                    make_profile(2, "1+0.2*x", 1.3))
        probe = s_spectrum_probe(Operators(g, profiles))
        pts = np.asarray(probe.points)
        assert np.allclose(np.sort(pts), np.sort(-pts), atol=1e-12)
        assert probe.max_imag <= 1e-10 * max(abs(pts).max(), 1.0)

    def test_accounts_for_every_eigenvalue(self):
        g = Grid(BoxDomain((1.0,)), (12,))
        profiles = (make_profile(1, "1+0.5*sin(3*x)", 1.0),)
        probe = s_spectrum_probe(Operators(g, profiles))
        assert len(probe.points) // 2 + len(probe.sphere_radii) == g.N

    def test_refinement_toward_continuous_ground_state(self):
        # smallest genuine point approaches pi/L = 1 on (0, pi); the spurious
        # near-null parity points are excluded by a fixed q > 1e-3 filter
        errors = []
        for n in (31, 63, 127):
            g = grid1d(n)
            probe = s_spectrum_probe(constant_operators(g))
            q = min(p for p in probe.points if p > 1e-3)
            errors.append(abs(q - 1.0))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 1e-3

    @pytest.mark.parametrize("n", [(201,), (7, 9), (5, 6, 7)])
    def test_values_only_whatever_was_cached(self, n):
        # positive sets read mu from the one factorization of L: the points
        # are bitwise the same whether or not it was built first, they are
        # +-sqrt of its eigenvalues, and the parity null stays exactly 0
        lengths = (1.0, 1.3, 0.8)[:len(n)]
        texts = ("1+0.1*sin(x)", "exp(0.2*x)", "1.3")
        make = lambda: Operators(Grid(BoxDomain(lengths), n), tuple(
            make_profile(ax + 1, texts[ax], length)
            for ax, length in enumerate(lengths)))
        first = s_spectrum_probe(make())
        ops = make()
        lam = np.sort(ops.spectral.eigenvalues(), axis=None)
        again = s_spectrum_probe(ops)
        assert again.points == first.points
        assert np.array_equal(np.sort(np.abs(again.points)),
                              np.repeat(np.sqrt(lam), 2))
        zeros = np.count_nonzero(np.asarray(again.points) == 0.0)
        assert zeros == 2 * np.count_nonzero(lam == 0.0)
        assert np.count_nonzero(lam == 0.0) == all(v % 2 for v in n)

    def test_spheres_do_not_depend_on_the_unit_of_length(self):
        # the same law on boxes of side 1e-6, 1 and 1e6: mu scales as 1/L^2,
        # so an absolute floor in the zero tolerance hid both spheres at 1e6
        radii = []
        for length in (1e-6, 1.0, 1e6):
            g = Grid(BoxDomain((length,)), (16,))
            ops = Operators(g, (make_profile(1, f"x/{length!r}-0.45",
                                             length),))
            probe = s_spectrum_probe(ops)
            assert len(probe.points) == 28
            radii.append(np.multiply(probe.sphere_radii, length))
        for r in radii:
            assert r.shape == (2,)
            assert np.max(np.abs(r - radii[1])) <= 1e-12 * radii[1][0]

    def test_non_positive_set_takes_the_dense_eigenvalues(self):
        # a sample <= 0: the per-axis eig gives the general eigenvalues of
        # L, which include mu < 0, each one a spectral sphere
        g = Grid(BoxDomain((1.0,)), (10,))
        ops = Operators(g, (make_profile(1, "x-0.3", 1.0),))
        probe = s_spectrum_probe(ops)
        # reference: the eigenvalues of the dense L, one at a time
        mu = np.sort(scipy.linalg.eigvals(ops.dense_L()).real)
        zero_tol = 1e-12 * float(np.max(np.abs(mu)))
        points, spheres = [], []
        for m in mu:
            if m >= -zero_tol:
                r = float(np.sqrt(max(m, 0.0)))
                points.extend((-r, r))
            else:
                spheres.append(float(np.sqrt(-m)))
        assert len(points) == 2 * 8 and len(spheres) == 2
        assert len(probe.points) == 2 * 8 and len(probe.sphere_radii) == 2
        scale = max(points)
        assert np.max(np.abs(np.subtract(probe.points, sorted(points)))) \
            <= 1e-14 * scale
        assert np.max(np.abs(np.subtract(probe.sphere_radii,
                                         sorted(spheres)))) <= 1e-14 * scale
