"""Divergence of the vector channel and time integration of the evolution
equation dv/dt = G v with G = sum_l D_l F A_l (divergence form), F = f_1(L)
the dense matrix of `frac.build_matrix`.

With separable coefficients A_l commutes with L, hence with F, so G = sum_l
D_l A_l F: `generator` applies those stencils to the columns of the one
dense F, with no dense D_l and no matrix product.  The generator is
materialized once as a dense matrix at desk scale, and `evolve` takes it;
each scheme becomes one step map x -> M x: Crank-Nicolson's propagator
(I - dt/2 G)^{-1} (I + dt/2 G), or for RK4 the degree-4 Taylor polynomial
of exp(dt G), which is exactly the RK4 step of a linear autonomous system.
A shorter final step gets its own map.  Dissipativity of G is *checked* at
integration start, not assumed — the resolvent bounds guarantee it only
for the continuous operator.  The check is Bendixson's bound
max Re lambda(G) <= max lambda((G + G^T)/2): the top eigenvalue of the
symmetric part, from one symmetric eigensolve, must not exceed
_DISSIPATIVITY_TOL times the largest magnitude of those eigenvalues.  A
non-positive top is the Lumer-Phillips condition on the numerical range,
so every Crank-Nicolson step is a 2-norm contraction; the tolerance is
relative, so the verdict does not depend on the unit of length.  RK4
checks dt against the 2-norm of G, an upper bound on its spectral radius.

States advance in blocks of B: the first B come from B - 1 matvecs, and
each next block is one GEMM of the previous block with (M^B)^T, formed by
q = log2 B squarings.  B = 2^q with q = min(6, floor(log2(n_steps / N))),
clamped at 0, so the squarings cost at most q/B of the stepping flops; a
run with fewer than 2N steps has B = 1, which is the plain x -> M x loop.
Only the current block is held.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import StabilityError
from .grid import FaceField, Grid, Operators, RealField, diff_axis

log = logging.getLogger(__name__)

# classical RK4 stability interval on the negative real axis
_RK4_REAL_LIMIT = 2.785
# top eigenvalue of the symmetric part allowed, relative to its largest
# magnitude: ~1000x the rounding of the parity null mode (<= 1.3e-15)
_DISSIPATIVITY_TOL = 1e-12
_MAX_BLOCK_LOG2 = 6
# the trace holds ~115 bytes per step, so 10^6 steps take ~115 MB
_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    t_end: float
    scheme: str = "crank-nicolson"
    snapshot_every: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.dt >= self.t_end:
            raise ValueError("dt must be smaller than t_end")
        if self.t_end / self.dt > _MAX_STEPS:
            raise ValueError(f"t_end / dt = {self.t_end / self.dt:.6g} "
                             f"steps, above the cap of {_MAX_STEPS}")
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
    acc = np.zeros(grid.n)
    for ax in range(grid.dims):
        acc += diff_axis(fields[ax].values, ax, grid.h[ax], grid.dims)
    return RealField(grid, acc)


def generator(F: np.ndarray, ops: Operators) -> np.ndarray:
    """Dense G = sum_l D_l A_l F, F = f_1(L) from `build_matrix`: the
    stencils of ops applied to the columns of F as one (N, *n) stack."""
    g = ops.grid
    cols = F.T.reshape(g.N, *g.n)
    acc = ops.apply_D(0, ops.apply_A(0, cols))
    for ax in range(1, g.dims):
        acc += ops.apply_D(ax, ops.apply_A(ax, cols))
    return acc.reshape(g.N, g.N).T


def _bendixson_bound(G: np.ndarray) -> tuple[float, float]:
    """(top, scale) of the symmetric part S = (G + G^T)/2 from one symmetric
    eigensolve: top = max lambda(S), an upper bound on max Re lambda(G)
    (Bendixson), and scale = max |lambda(S)|, the unit of the tolerance."""
    lam = np.linalg.eigvalsh(0.5 * (G + G.T))
    return float(lam[-1]), float(max(-lam[0], lam[-1]))


def _cn_propagator(G: np.ndarray, dt: float) -> np.ndarray:
    """P = (I - dt/2 G)^{-1} (I + dt/2 G), so that a Crank-Nicolson step is
    x -> P x."""
    half = 0.5 * dt * G
    eye = np.eye(G.shape[0])
    return np.linalg.solve(eye - half, eye + half)


def _rk4_map(G: np.ndarray, h: float) -> np.ndarray:
    """M = I + hG (I + hG/2 (I + hG/3 (I + hG/4))): for the linear
    autonomous dv/dt = G v, a classical RK4 step of length h is x -> M x."""
    eye = np.eye(G.shape[0])
    hg = h * G
    M = eye + hg / 4
    for k in (3, 2, 1):
        M = eye + (hg / k) @ M
    return M


_STEP_MAPS = {"crank-nicolson": _cn_propagator, "explicit-rk4": _rk4_map}


def _block_log2(n_steps: int, N: int) -> int:
    """q with B = 2^q states per block: q = min(6, floor(log2(n_steps / N))),
    clamped at 0.  The GEMMs do the flops of the matvec loop, only faster;
    the q squarings that form M^B add 2 q N^3, at most q/B of them."""
    return min(_MAX_BLOCK_LOG2, max(0, (n_steps // N).bit_length() - 1))


def evolve(G: np.ndarray, v0: RealField,
           cfg: EvolutionConfig) -> EvolutionTrace:
    """Integrate dv/dt = G v from v0 to t_end, G the dense generator
    (`generator`).

    Raises StabilityError when G is not dissipative: the top eigenvalue of
    its symmetric part exceeds _DISSIPATIVITY_TOL times the largest
    magnitude (see the module docstring).  Both schemes step with one
    matrix M (a shorter final step gets its own); RK4 validates dt against
    the 2-norm of G first.  States advance in blocks of B (see the module
    docstring); only the current block is held, and each is reduced to its
    l2 values and snapshots.
    """
    N = G.shape[0]
    top, scale = _bendixson_bound(G)
    if top > _DISSIPATIVITY_TOL * scale:
        raise StabilityError(
            f"generator is not dissipative (top eigenvalue of the symmetric "
            f"part (G + G^T)/2 = {top:g}, {top / scale:.3g} of its largest "
            f"magnitude)")
    if cfg.scheme == "explicit-rk4":
        rho = float(np.linalg.norm(G, 2))
        if cfg.dt * rho > _RK4_REAL_LIMIT:
            raise StabilityError(
                f"dt={cfg.dt:g} exceeds the RK4 bound "
                f"{_RK4_REAL_LIMIT / max(rho, 1e-300):g}")

    n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-12))
    rem = cfg.t_end - n_full * cfg.dt
    if rem < 1e-12 * cfg.dt:
        rem = 0.0
    steps = [cfg.dt] * n_full + ([rem] if rem else [])
    # state k lives at times[k]; the sums are those of a running t += dt
    times = np.add.accumulate([0.0] + steps).tolist()
    last = len(steps)  # index of the final state
    sq_norms = np.empty(last + 1)
    grid = v0.grid
    every = cfg.snapshot_every
    snaps = []

    def record(first: int, states: np.ndarray):
        """Squared norms and snapshots of the states first, first + 1, ..."""
        stop = first + len(states)
        sq_norms[first:stop] = np.einsum("ij,ij->i", states, states)
        if every:
            picks = list(range(-(-first // every) * every, stop, every))
            if stop - 1 == last and last % every:
                picks.append(last)
            snaps.extend((times[k], RealField(grid, states[k - first].copy()))
                         for k in picks)

    step_map = _STEP_MAPS[cfg.scheme]
    M = step_map(G, cfg.dt)
    q = _block_log2(n_full, N)
    log.debug("evolve: %d steps, N=%d, B=%d", last, N, 1 << q)
    block = np.empty((1 << q, N))
    block[0] = v0.flat()
    for i in range(1, len(block)):
        block[i] = M @ block[i - 1]
    # (M^B)^T; at B = 1 the view M.T, so that advancing a block of one
    # state is the matvec M @ x
    power = M.T
    for _ in range(q):
        power = power @ power
    first = 0
    while True:
        record(first, block)
        first += len(block)
        if first > n_full:
            break
        block = block[:n_full + 1 - first] @ power
    if rem:
        record(last, (step_map(G, rem) @ block[-1])[None])
    l2s = np.sqrt(grid.cell_volume * sq_norms).tolist()
    return EvolutionTrace(times=times, l2_series=l2s, snapshots=snaps)
