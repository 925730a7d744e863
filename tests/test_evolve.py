import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from sfrac.errors import StabilityError
from sfrac.evolve import EvolutionConfig, divergence, evolve, generator
from sfrac.frac import QuadratureSpec, apply_P_alpha, build_matrix
from sfrac.grid import (BoxDomain, Grid, QuatField, RealField,
                        constant_operators)


def grid1d(n, length=math.pi):
    return Grid(BoxDomain((length,)), (n,))


def rel_gap(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def eig_setup(n=32, alpha=0.6, k=12):
    g = grid1d(n)
    ops = constant_operators(g)
    lam, vecs = np.linalg.eigh(ops.dense_L())
    return g, ops, float(lam[k]), vecs[:, k]


class TestDivergence:
    def test_constant_interior(self):
        g = Grid(BoxDomain((1.0, 1.0)), (9, 9))
        w = (RealField(g, np.ones(g.n)), RealField(g, np.ones(g.n)))
        d = divergence(w)
        assert np.allclose(d.values[1:-1, 1:-1], 0.0, atol=1e-15)

    def test_composition_chain(self):
        g = grid1d(21)
        ops = constant_operators(g)
        v = np.sin(2 * g.axes[0]) + 0.1 * g.axes[0]
        dv = RealField(g, ops.apply_D(0, v))
        d2 = divergence((dv,))
        assert np.array_equal(d2.values, ops.apply_D(0, ops.apply_D(0, v)))

    def test_three_fields_with_zero_extras(self):
        g = grid1d(10)
        w = RealField.from_function(g, np.sin)
        z = RealField.zeros(g)
        d = divergence((w, z, z))
        assert np.array_equal(d.values,
                              constant_operators(g).apply_D(0, w.values))
        with pytest.raises(ValueError):
            divergence((w, w, z))
        with pytest.raises(ValueError):
            divergence((w, z))

    def test_eigenvector_exponent(self):
        # div of the vector channel realizes -(1/2) lam^{(alpha+1)/2}
        g, ops, lam, phi = eig_setup(alpha=0.75)
        out = apply_P_alpha(QuadratureSpec(0.75), ops,
                            QuatField.from_real(RealField(g, phi)))
        d = divergence(out.vec)
        expect = -0.5 * lam ** ((0.75 + 1) / 2) * phi
        assert rel_gap(d.values.reshape(-1), expect) <= 1e-8


class TestGenerator:
    def test_eigen_action(self):
        g, ops, lam, phi = eig_setup(alpha=0.6)
        fp = build_matrix(QuadratureSpec(0.6), ops)
        G = generator(fp)
        expect = -0.5 * lam ** ((0.6 + 1) / 2) * phi
        assert rel_gap(G @ phi, expect) <= 1e-8

    def test_dissipative(self):
        g = grid1d(24)
        ops = constant_operators(g)
        fp = build_matrix(QuadratureSpec(0.5), ops)
        G = generator(fp)
        assert float(np.max(np.linalg.eigvals(G).real)) <= 1e-8

    def test_beta_correspondence(self):
        # alpha = 0.75, beta = 2 alpha - 1: -2 G(beta) acts as lam^alpha
        g, ops, lam, phi = eig_setup(alpha=0.75, k=10)
        beta = 2 * 0.75 - 1.0
        fp = build_matrix(QuadratureSpec(beta), ops)
        G = generator(fp)
        assert rel_gap(-2.0 * (G @ phi), lam ** 0.75 * phi) <= 1e-7


class TestEvolutionConfig:
    def test_validation(self):
        EvolutionConfig(0.5, dt=0.01, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(0.5, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(0.5, dt=1.0, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(0.5, dt=0.01, t_end=1.0, scheme="euler")
        with pytest.raises(ValueError):
            EvolutionConfig(0.5, dt=0.01, t_end=1.0, snapshot_every=-1)


class TestEvolve:
    def test_zero_initial(self):
        g = grid1d(16)
        fp = build_matrix(QuadratureSpec(0.5), constant_operators(g))
        trace = evolve(fp, RealField.zeros(g),
                       EvolutionConfig(0.5, dt=0.1, t_end=0.5))
        assert all(v == 0.0 for v in trace.l2_series)
        assert len(trace.times) == 6

    def test_remainder_step(self):
        g = grid1d(16)
        fp = build_matrix(QuadratureSpec(0.5), constant_operators(g))
        trace = evolve(fp, RealField.from_function(g, np.sin),
                       EvolutionConfig(0.5, dt=0.1, t_end=0.35))
        assert math.isclose(trace.times[-1], 0.35, rel_tol=1e-12)
        assert len(trace.times) == 5

    def test_cn_eigen_decay(self):
        alpha = 0.6
        g, ops, lam, phi = eig_setup(alpha=alpha)
        fp = build_matrix(QuadratureSpec(alpha), ops)
        cfg = EvolutionConfig(alpha, dt=1e-3, t_end=1.0)
        trace = evolve(fp, RealField(g, phi), cfg)
        decay = math.exp(-0.5 * lam ** ((alpha + 1) / 2) * 1.0)
        expect = decay * RealField(g, phi).l2()
        assert abs(trace.l2_series[-1] - expect) <= 1e-4 * expect

    def test_monotone_and_bounded_growth(self):
        g = grid1d(24)
        fp = build_matrix(QuadratureSpec(0.4), constant_operators(g))
        v0 = RealField.from_function(
            g, lambda x: np.sin(x) + 0.4 * np.sin(3 * x))
        trace = evolve(fp, v0, EvolutionConfig(0.4, dt=0.01, t_end=0.5))
        series = trace.l2_series
        for a, b in zip(series, series[1:]):
            assert b <= a * (1.0 + 1e-10)

    def test_snapshots(self):
        g = grid1d(16)
        fp = build_matrix(QuadratureSpec(0.5), constant_operators(g))
        v0 = RealField.from_function(g, np.sin)
        trace = evolve(fp, v0, EvolutionConfig(0.5, dt=0.1, t_end=1.0,
                                               snapshot_every=4))
        times = [t for t, _ in trace.snapshots]
        assert times[0] == 0.0
        assert math.isclose(times[-1], 1.0, rel_tol=1e-12)
        assert any(math.isclose(t, 0.4, rel_tol=1e-12) for t in times)
        assert np.array_equal(trace.snapshots[0][1].values, v0.values)

    def test_cn_propagator_matches_lu_solve_loop(self):
        # a step is one matvec with the precomputed propagator; it must
        # reproduce a plain lu_solve loop, remainder step included, up to
        # the rounding of forming (I - dt/2 G)^{-1} (I + dt/2 G)
        g = grid1d(12)
        fp = build_matrix(QuadratureSpec(0.6), constant_operators(g))
        v0 = RealField.from_function(g, lambda x: x * (math.pi - x))
        cfg = EvolutionConfig(0.6, dt=0.02, t_end=0.25, snapshot_every=3)
        trace = evolve(fp, v0, cfg)
        G = generator(fp)
        x = v0.flat().copy()
        expect = [x.copy()]
        steps = [0.02] * 12 + [0.25 - 12 * 0.02]
        for k, dt in enumerate(steps, start=1):
            lu = scipy.linalg.lu_factor(np.eye(g.N) - 0.5 * dt * G)
            x = scipy.linalg.lu_solve(lu, x + 0.5 * dt * (G @ x))
            if k % 3 == 0 or k == len(steps):
                expect.append(x.copy())
        assert len(trace.snapshots) == len(expect) == 6
        for (_, snap), want in zip(trace.snapshots, expect):
            assert rel_gap(snap.values, want) <= 1e-12

    def test_rk4_matches_fine_cn(self):
        g = grid1d(24)
        fp = build_matrix(QuadratureSpec(0.5), constant_operators(g))
        G = generator(fp)
        rho = float(np.max(np.abs(np.linalg.eigvals(G))))
        dt = 0.5 * 2.785 / rho
        t_end = 16 * dt
        v0 = RealField.from_function(g, np.sin)
        rk = evolve(fp, v0, EvolutionConfig(0.5, dt=dt, t_end=t_end,
                                            scheme="explicit-rk4",
                                            snapshot_every=10 ** 6))
        cn = evolve(fp, v0, EvolutionConfig(0.5, dt=dt / 10, t_end=t_end,
                                            snapshot_every=10 ** 6))
        assert rel_gap(rk.snapshots[-1][1].values,
                       cn.snapshots[-1][1].values) <= 1e-5

    def test_rk4_step_bound(self):
        g = grid1d(24)
        fp = build_matrix(QuadratureSpec(0.5), constant_operators(g))
        G = generator(fp)
        rho = float(np.max(np.abs(np.linalg.eigvals(G))))
        dt = 2.0 * 2.785 / rho
        with pytest.raises(StabilityError):
            evolve(fp, RealField.from_function(g, np.sin),
                   EvolutionConfig(0.5, dt=dt, t_end=10 * dt,
                                   scheme="explicit-rk4"))

    def test_antidissipative_generator_refused(self):
        g = grid1d(16)
        fp = build_matrix(QuadratureSpec(0.5), constant_operators(g))
        bad = dataclasses.replace(fp, m_vec=tuple(-m for m in fp.m_vec))
        with pytest.raises(StabilityError):
            evolve(bad, RealField.from_function(g, np.sin),
                   EvolutionConfig(0.5, dt=0.01, t_end=0.1))
