import math

import numpy as np
import pytest
import scipy.linalg

from sfrac.errors import StabilityError
from sfrac.evolve import (_STEP_MAPS, EvolutionConfig, _bendixson_bound,
                          _rk4_map, divergence, evolve, generator)
from sfrac.frac import QuadratureSpec, apply_P_alpha, build_matrix
from sfrac.grid import (BoxDomain, Grid, QuatField, RealField,
                        constant_operators)
from helpers import box_ops, grid1d, rel_gap


def dense_G(alpha, ops):
    return generator(build_matrix(QuadratureSpec(alpha), ops), ops)


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
        G = dense_G(0.6, ops)
        expect = -0.5 * lam ** ((0.6 + 1) / 2) * phi
        assert rel_gap(G @ phi, expect) <= 1e-8

    @pytest.mark.parametrize("make_ops", [
        lambda: constant_operators(grid1d(15)),
        lambda: constant_operators(grid1d(16)),
        lambda: variable_2d((7, 9)), lambda: variable_2d((8, 6)),
        lambda: box_ops((5, 4, 3))],
        ids=["1d-odd", "1d-even", "2d-odd-var", "2d-even-var", "3d-var"])
    def test_matches_the_dense_products(self, make_ops):
        # G = sum_l D_l A_l F by stencils against the dense products
        # sum_l D_l (F A_l), F = f_1(L): the two agree because A_l
        # commutes with L, hence with F
        ops = make_ops()
        F = build_matrix(QuadratureSpec(0.6), ops)
        want = sum(ops.dense_D(ax) @ (F @ ops.dense_A(ax))
                   for ax in range(ops.grid.dims))
        assert rel_gap(generator(F, ops), want) <= 1e-13

    def test_dissipative(self):
        g = grid1d(24)
        G = dense_G(0.5, constant_operators(g))
        assert float(np.max(np.linalg.eigvals(G).real)) <= 1e-8

    def test_bendixson_bound_is_an_upper_bound(self):
        # evolve checks dissipativity by this bound at every N; on G + 3I
        # the symmetric part's top eigenvalue is 3 + O(1e-14), so a bound
        # below 3 would let an anti-dissipative generator through
        g = grid1d(63)
        G = dense_G(0.95, constant_operators(g))
        top, scale = _bendixson_bound(G + 3.0 * np.eye(g.N))
        assert top >= 3.0 - 1e-9
        assert math.isclose(scale, float(np.max(np.abs(np.linalg.eigvalsh(
            G + G.T + 6.0 * np.eye(g.N))))) / 2, rel_tol=1e-12)

    def test_beta_correspondence(self):
        # alpha = 0.75, beta = 2 alpha - 1: -2 G(beta) acts as lam^alpha
        g, ops, lam, phi = eig_setup(alpha=0.75, k=10)
        beta = 2 * 0.75 - 1.0
        G = dense_G(beta, ops)
        assert rel_gap(-2.0 * (G @ phi), lam ** 0.75 * phi) <= 1e-7


class TestEvolutionConfig:
    def test_validation(self):
        EvolutionConfig(dt=0.01, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=1.0, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.01, t_end=1.0, scheme="euler")
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.01, t_end=1.0, snapshot_every=-1)
        # at most 10^6 steps (both ratios are exact in binary)
        EvolutionConfig(dt=0.5, t_end=5e5)
        with pytest.raises(ValueError, match="above the cap of 1000000"):
            EvolutionConfig(dt=0.5, t_end=500000.5)


class TestEvolve:
    def test_zero_initial(self):
        g = grid1d(16)
        G = dense_G(0.5, constant_operators(g))
        trace = evolve(G, RealField.zeros(g),
                       EvolutionConfig(dt=0.1, t_end=0.5))
        assert all(v == 0.0 for v in trace.l2_series)
        assert len(trace.times) == 6

    def test_remainder_step(self):
        g = grid1d(16)
        G = dense_G(0.5, constant_operators(g))
        trace = evolve(G, RealField.from_function(g, np.sin),
                       EvolutionConfig(dt=0.1, t_end=0.35))
        assert math.isclose(trace.times[-1], 0.35, rel_tol=1e-12)
        assert len(trace.times) == 5

    def test_cn_eigen_decay(self):
        alpha = 0.6
        g, ops, lam, phi = eig_setup(alpha=alpha)
        G = dense_G(alpha, ops)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0)
        trace = evolve(G, RealField(g, phi), cfg)
        decay = math.exp(-0.5 * lam ** ((alpha + 1) / 2) * 1.0)
        expect = decay * RealField(g, phi).l2()
        assert abs(trace.l2_series[-1] - expect) <= 1e-4 * expect

    def test_monotone_and_bounded_growth(self):
        g = grid1d(24)
        G = dense_G(0.4, constant_operators(g))
        v0 = RealField.from_function(
            g, lambda x: np.sin(x) + 0.4 * np.sin(3 * x))
        trace = evolve(G, v0, EvolutionConfig(dt=0.01, t_end=0.5))
        series = trace.l2_series
        for a, b in zip(series, series[1:]):
            assert b <= a * (1.0 + 1e-10)

    def test_snapshots(self):
        g = grid1d(16)
        G = dense_G(0.5, constant_operators(g))
        v0 = RealField.from_function(g, np.sin)
        trace = evolve(G, v0, EvolutionConfig(dt=0.1, t_end=1.0,
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
        G = dense_G(0.6, constant_operators(g))
        v0 = RealField.from_function(g, lambda x: x * (math.pi - x))
        cfg = EvolutionConfig(dt=0.02, t_end=0.25, snapshot_every=3)
        trace = evolve(G, v0, cfg)
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
        G = dense_G(0.5, constant_operators(g))
        rho = float(np.max(np.abs(np.linalg.eigvals(G))))
        dt = 0.5 * 2.785 / rho
        t_end = 16 * dt
        v0 = RealField.from_function(g, np.sin)
        rk = evolve(G, v0, EvolutionConfig(dt=dt, t_end=t_end,
                                           scheme="explicit-rk4",
                                           snapshot_every=10 ** 6))
        cn = evolve(G, v0, EvolutionConfig(dt=dt / 10, t_end=t_end,
                                           snapshot_every=10 ** 6))
        assert rel_gap(rk.snapshots[-1][1].values,
                       cn.snapshots[-1][1].values) <= 1e-5

    def test_rk4_step_bound(self):
        g = grid1d(24)
        G = dense_G(0.5, constant_operators(g))
        rho = float(np.max(np.abs(np.linalg.eigvals(G))))
        dt = 2.0 * 2.785 / rho
        with pytest.raises(StabilityError):
            evolve(G, RealField.from_function(g, np.sin),
                   EvolutionConfig(dt=dt, t_end=10 * dt,
                                   scheme="explicit-rk4"))

    def test_rk4_step_bound_just_past_the_limit(self):
        # dt is checked against the 2-norm of G, an upper bound on the
        # spectral radius; in 1D G is symmetric, so the two are equal and a
        # dt 0.05 % past the RK4 limit must still be refused
        g = grid1d(200)
        G = dense_G(0.6, constant_operators(g))
        rho = float(np.max(np.abs(np.linalg.eigvals(G))))
        dt = 1.0005 * 2.785 / rho
        with pytest.raises(StabilityError, match="RK4"):
            evolve(G, RealField.from_function(g, np.sin),
                   EvolutionConfig(dt=dt, t_end=10 * dt,
                                   scheme="explicit-rk4"))

    def test_antidissipative_generator_refused(self):
        g = grid1d(16)
        G = dense_G(0.5, constant_operators(g))
        with pytest.raises(StabilityError):
            evolve(-G, RealField.from_function(g, np.sin),
                   EvolutionConfig(dt=0.01, t_end=0.1))

    def test_non_normal_generator_refused(self):
        # G = eight blocks [[-1, 10], [0, -2]]: its eigenvalues are -1 and
        # -2, but its symmetric part has top eigenvalue 3.52, so the l2 norm
        # of a Crank-Nicolson run can rise; an eigenvalue test lets it pass
        g = grid1d(16)
        bad_G = np.kron(np.eye(8), np.array([[-1.0, 10.0], [0.0, -2.0]]))
        assert float(np.max(np.linalg.eigvals(bad_G).real)) < -0.99
        assert _bendixson_bound(bad_G)[0] > 3.5
        with pytest.raises(StabilityError, match="symmetric part"):
            evolve(bad_G, RealField.from_function(g, np.sin),
                   EvolutionConfig(dt=0.01, t_end=0.1))


def variable_2d(n, lengths=(1.5, 1.2)):
    return box_ops(n, ("1+0.2*sin(x)", "exp(0.1*x)"), lengths)


def plain_loop(G, v0, dt, n_full, rem, scheme, every):
    """Sequential reference: x = M @ x for each step, the remainder with its
    own map, t += dt; returns (times, l2 series, snapshots) with the
    snapshot rule of evolve."""
    M = _STEP_MAPS[scheme](G, dt)
    steps = [dt] * n_full + ([rem] if rem else [])
    x = v0.flat().copy()
    t = 0.0
    times = [t]
    l2s = [math.sqrt(v0.grid.cell_volume * float(x @ x))]
    snaps = [(t, x.copy())]
    for k, h in enumerate(steps, start=1):
        x = (M if h == dt else _STEP_MAPS[scheme](G, h)) @ x
        t += h
        times.append(t)
        l2s.append(math.sqrt(v0.grid.cell_volume * float(x @ x)))
        if k % every == 0 or k == len(steps):
            snaps.append((t, x.copy()))
    return times, l2s, snaps


def rk4_dt(G):
    return 0.5 * 2.785 / float(np.max(np.abs(np.linalg.eigvals(G))))


class TestStepMaps:
    def test_rk4_map_is_one_classical_rk4_step(self):
        g = grid1d(16)
        G = dense_G(0.5, constant_operators(g))
        h = rk4_dt(G)
        x = np.sin(g.axes[0]) + 0.3 * g.axes[0]
        k1 = G @ x
        k2 = G @ (x + 0.5 * h * k1)
        k3 = G @ (x + 0.5 * h * k2)
        k4 = G @ (x + h * k3)
        want = x + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert rel_gap(_rk4_map(G, h) @ x, want) <= 1e-14


class TestBlockedStepping:
    # runs of at least 2N steps advance in blocks of B = 2^q > 1 states;
    # every run here spans several blocks, ends on a remainder step and
    # snapshots every 7 steps, which is not a multiple of B

    def cases(self):
        g = grid1d(8)
        yield (dense_G(0.5, constant_operators(g)),
               RealField.from_function(g, lambda x: x * (math.pi - x)), 700)
        ops = variable_2d((4, 4))
        yield (dense_G(0.6, ops),
               RealField.from_function(ops.grid, lambda x, y: np.sin(
                   math.pi * x / 1.5) * np.sin(math.pi * y / 1.2) + 0.2 * x),
               600)

    @pytest.mark.parametrize("scheme", ["crank-nicolson", "explicit-rk4"])
    def test_matches_plain_loop(self, scheme):
        for G, v0, n_full in self.cases():
            assert n_full >= 8 * v0.grid.N  # B >= 8, several blocks
            dt = rk4_dt(G) if scheme == "explicit-rk4" else 2e-3
            rem = 0.37 * dt
            cfg = EvolutionConfig(dt=dt, t_end=n_full * dt + rem,
                                  scheme=scheme, snapshot_every=7)
            trace = evolve(G, v0, cfg)
            times, l2s, snaps = plain_loop(G, v0, dt, n_full,
                                           cfg.t_end - n_full * dt, scheme, 7)
            assert trace.times == times
            assert np.allclose(trace.l2_series, l2s, rtol=1e-11, atol=0.0)
            assert [t for t, _ in trace.snapshots] == [t for t, _ in snaps]
            for (_, got), (_, want) in zip(trace.snapshots, snaps):
                assert rel_gap(got.flat(), want) <= 1e-11

    @pytest.mark.parametrize("scheme", ["crank-nicolson", "explicit-rk4"])
    def test_short_run_is_the_plain_loop_bitwise(self, scheme):
        # fewer than 2N steps: B = 1, one matvec per step
        ops = variable_2d((4, 4))
        G = dense_G(0.6, ops)
        v0 = RealField.from_function(ops.grid, lambda x, y: x * y + 0.1)
        dt = rk4_dt(G) if scheme == "explicit-rk4" else 1e-2
        n_full = 2 * ops.grid.N - 1
        rem = 0.5 * dt
        cfg = EvolutionConfig(dt=dt, t_end=n_full * dt + rem,
                              scheme=scheme, snapshot_every=3)
        trace = evolve(G, v0, cfg)
        times, _, snaps = plain_loop(G, v0, dt, n_full,
                                     cfg.t_end - n_full * dt, scheme, 3)
        assert trace.times == times
        assert len(trace.snapshots) == len(snaps)
        for (t, got), (s, want) in zip(trace.snapshots, snaps):
            assert t == s and np.array_equal(got.flat(), want)

    def test_monotone_l2_on_a_benchmark_shaped_run(self):
        # 2D 16^2 (N = 256) with variable coefficients and 4096 equal
        # Crank-Nicolson steps (B = 16): the l2 trace never rises by more
        # than the rounding allowance the benchmark applies
        lengths = (1.5, 1.2)
        ops = variable_2d((16, 16), lengths)
        G = dense_G(0.6, ops)
        v0 = RealField.from_function(ops.grid, lambda x, y: (
            np.sin(math.pi * x / lengths[0]) * np.sin(math.pi * y / lengths[1])
            * (1 + 0.3 * np.cos(2.0 * x) * np.sin(1.5 * y))))
        dt = 20 / 2.0 ** 20
        trace = evolve(G, v0, EvolutionConfig(dt=dt, t_end=4096 * dt))
        l2 = trace.l2_series
        assert len(l2) == 4097
        for a, b in zip(l2, l2[1:]):
            assert b <= a * (1.0 + 1e-12)
