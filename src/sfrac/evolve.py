"""Divergence of the vector channel and time integration of the evolution
equation dv/dt = G v with G = sum_l D_l M_vec[l] (divergence form).

The generator is materialized once as a dense matrix at desk scale; a step
then costs four matvecs (RK4) or one matvec with the precomputed
Crank-Nicolson propagator instead of a full quadrature pass.  Dissipativity
of G is *checked* at integration start, not assumed — the resolvent bounds
guarantee it only for the continuous operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import StabilityError
from .frac import FracPowerOperator
from .grid import FaceField, Grid, Operators, RealField, constant_operators

# classical RK4 stability interval on the negative real axis
_RK4_REAL_LIMIT = 2.785
_DISSIPATIVITY_TOL = 1e-8


@dataclass(frozen=True)
class EvolutionConfig:
    alpha: float
    dt: float
    t_end: float
    scheme: str = "crank-nicolson"
    snapshot_every: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.dt >= self.t_end:
            raise ValueError("dt must be smaller than t_end")
        if self.scheme not in ("explicit-rk4", "crank-nicolson"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")


@dataclass
class EvolutionTrace:
    times: list
    l2_series: list
    snapshots: list  # (time, RealField) pairs


def divergence(fields, grid: Grid | None = None) -> RealField:
    """sum_l D_l w_l with the same central difference and ghost zeros.

    Accepts one field per axis, or a 3-tuple (e.g. a FracApplyResult.vec)
    whose entries beyond the grid dimension must be identically zero.

    Face fields (the vec channel of the staggered scheme, one per axis) get
    the mimetic divergence sum_l G_l w_l, G_l = -D_l^T, which reads the face
    values directly: a collocated difference of the flux averaged to the
    nodes does not converge to the continuum divergence.
    """
    fields = tuple(fields)
    grid = grid or fields[0].grid
    if isinstance(fields[0], FaceField):
        if [f.axis for f in fields] != list(range(grid.dims)):
            raise ValueError("one face field per axis, in axis order")
        acc = np.zeros(grid.n)
        for ax, f in enumerate(fields):
            acc += np.diff(f.values, axis=ax) / grid.h[ax]
        return RealField(grid, acc)
    if len(fields) not in (grid.dims, 3):
        raise ValueError("one field per axis required")
    for extra in fields[grid.dims:]:
        if np.any(extra.values):
            raise ValueError("components beyond the grid dimension must be 0")
    ops = constant_operators(grid)
    acc = np.zeros(grid.n)
    for ax in range(grid.dims):
        acc += ops.apply_D(ax, fields[ax].values)
    return RealField(grid, acc)


def generator(fp: FracPowerOperator) -> np.ndarray:
    """Dense G = sum_l D_l M_vec[l]."""
    ops = constant_operators(fp.grid)
    G = np.zeros((fp.grid.N, fp.grid.N))
    for ax in range(fp.grid.dims):
        G += ops.dense_D(ax) @ fp.m_vec[ax]
    return G


def _max_real_eig(G: np.ndarray) -> float:
    """max Re lambda(G); direct for small N, Bendixson bound (largest
    eigenvalue of the symmetric part, by shifted power iteration) above."""
    n = G.shape[0]
    if n <= 1500:
        return float(np.max(np.linalg.eigvals(G).real))
    S = 0.5 * (G + G.T)
    shift = float(np.max(np.sum(np.abs(S), axis=1)))  # >= rho(S)
    rng = np.random.default_rng(0x51A7)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    val = 0.0
    for _ in range(300):
        y = S @ x + shift * x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return -shift
        new = float(x @ y) - shift
        x = y / ny
        if abs(new - val) <= 1e-8 * max(abs(new), 1.0):
            return new
        val = new
    return val


def _spectral_radius(G: np.ndarray) -> float:
    n = G.shape[0]
    if n <= 1500:
        return float(np.max(np.abs(np.linalg.eigvals(G))))
    rng = np.random.default_rng(0x51A8)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(300):
        y = G @ x
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0
        x = y / ny
        if abs(ny - rho) <= 1e-6 * max(ny, 1.0):
            return ny
        rho = ny
    return rho


def _cn_propagator(G: np.ndarray, dt: float) -> np.ndarray:
    """P = (I - dt/2 G)^{-1} (I + dt/2 G), so that a Crank-Nicolson step is
    x -> P x."""
    half = 0.5 * dt * G
    eye = np.eye(G.shape[0])
    lu = scipy.linalg.lu_factor(eye - half)
    return scipy.linalg.lu_solve(lu, eye + half)


def evolve(fp: FracPowerOperator, v0: RealField,
           cfg: EvolutionConfig) -> EvolutionTrace:
    """Integrate dv/dt = G v from v0 to t_end.

    Crank-Nicolson builds its propagator once (again for a shorter final
    step if t_end is not a multiple of dt), so a step is one matvec; RK4
    validates dt against the spectral-radius bound first.
    """
    G = generator(fp)
    max_re = _max_real_eig(G)
    if max_re > _DISSIPATIVITY_TOL:
        raise StabilityError(
            f"generator is not dissipative (max Re eig = {max_re:g})")
    if cfg.scheme == "explicit-rk4":
        rho = _spectral_radius(G)
        if cfg.dt * rho > _RK4_REAL_LIMIT:
            raise StabilityError(
                f"dt={cfg.dt:g} exceeds the RK4 bound "
                f"{_RK4_REAL_LIMIT / max(rho, 1e-300):g}")

    grid = v0.grid
    x = v0.flat().copy()
    times = [0.0]
    l2s = [math.sqrt(grid.cell_volume * float(x @ x))]
    snaps = []
    if cfg.snapshot_every > 0:
        snaps.append((0.0, RealField(grid, x.copy())))

    n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-12))
    rem = cfg.t_end - n_full * cfg.dt
    if rem < 1e-12 * cfg.dt:
        rem = 0.0
    steps = [cfg.dt] * n_full + ([rem] if rem else [])

    prop = None
    prop_dt = None
    t = 0.0
    for k, dt in enumerate(steps, start=1):
        if cfg.scheme == "crank-nicolson":
            if prop is None or dt != prop_dt:
                prop = _cn_propagator(G, dt)
                prop_dt = dt
            x = prop @ x
        else:
            k1 = G @ x
            k2 = G @ (x + 0.5 * dt * k1)
            k3 = G @ (x + 0.5 * dt * k2)
            k4 = G @ (x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        times.append(t)
        l2s.append(math.sqrt(grid.cell_volume * float(x @ x)))
        if cfg.snapshot_every > 0 and (
                k % cfg.snapshot_every == 0 or k == len(steps)):
            snaps.append((t, RealField(grid, x.copy())))
    return EvolutionTrace(times=times, l2_series=l2s, snapshots=snaps)
