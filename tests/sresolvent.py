"""Test reference: Q_s^{-1}, the S-resolvents, their identity residuals and
the norm estimate at one purely imaginary s, on the node engine's solve.

That solve (`ResolventWorkspace._solve_stack`) takes right-hand sides in
the range of the A_l.  A general f keeps its parity-mode coefficient beta
(its eta component, on all-odd grids; `helpers.null_pair`): Q_s zeta =
|s|^2 zeta exactly, so Q_s^{-1} f is beta/|s|^2 zeta plus the engine solve
of f - beta zeta.  Q_s^{-T} is the same solve on the operators of L^T
(`transposed`).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from sfrac.grid import AxisFactorization, QuatField
from sfrac.quat import E1, E2, E3, left_mul
from sfrac.resolvent import ResolventWorkspace
from helpers import null_pair

# relative residual above which solve_Q raises SolverDiverged; the SVD
# factors of a positive set meet it by orders of magnitude, while the eig
# factors of a set with a sample <= 0 can miss it at small |s| on large
# grids (1.9e-8 on 1D n = 2048 `x-0.45` for |s| <= 1e-2)
RESIDUAL_GUARD = 1e-8


class SolverDiverged(RuntimeError):
    """A Q_s solve missed its a-posteriori residual guard."""


def transposed(ops):
    """A shallow copy of ops whose L is L^T: (inv S fwd)^T = fwd^T S inv^T
    per axis, Q^T eta = t^2 eta (zeta and eta swap) and the dense L^T."""
    ref = copy.copy(ops)
    ref.dense_L = lambda: ops.dense_L().T
    sp = ops.spectral
    ref.spectral = AxisFactorization(
        [(lam, inv.T, fwd.T) for lam, fwd, inv in sp.factors],
        bool(sp.null_mask.reshape(-1)[-1]))
    ref.is_transposed = True
    return ref


def solve(ops, t: float, values: np.ndarray):
    """Q_t^{-1} values on a stack of real fields shaped (..., *grid.n), any
    right-hand side."""
    flat = values.reshape(-1, ops.grid.N)
    ws = ResolventWorkspace(ops, np.array([t]))
    pair = null_pair(ops)
    if pair is None:
        return ws._solve_stack(flat)[0].reshape(values.shape)
    zeta, eta = (v.reshape(-1) for v in pair)
    beta = flat @ eta / float(eta @ zeta)
    sol = (ws._solve_stack(flat - np.outer(beta, zeta))[0]
           + np.outer(beta / (t * t), zeta))
    return sol.reshape(values.shape)


def solve_Q(ops, s, f: QuatField) -> QuatField:
    """w with Q_s w = f at a purely imaginary, nonzero s (ValueError for any
    other); SolverDiverged when the relative residual exceeds
    RESIDUAL_GUARD (a cheap a-posteriori check)."""
    if s.w != 0.0 or s.modulus == 0.0:
        raise ValueError("s must be purely imaginary and nonzero")
    t = s.modulus
    w = QuatField(f.grid, solve(ops, t, f.components))
    r = t * t * w.components + ops.apply_L(w.components) - f.components
    nf = float(np.sqrt(np.sum(f.components ** 2)))
    if nf > 0 and float(np.sqrt(np.sum(r ** 2))) > RESIDUAL_GUARD * nf:
        raise SolverDiverged(f"solve residual above tolerance at |s|={t:g}")
    return w


def apply_SR(ops, s, v: QuatField) -> QuatField:
    """Right S-resolvent: w = conj(s)*(Q^{-1}v) - T(Q^{-1}v).  It is also
    the left one (`apply_SL`), taken through the commutative form (s -
    conj(T)) Q_c^{-1}: with Re(s) = 0 and the real componentwise Q, conj(T)
    = -T and Q_c = -Q collapse the two formulas onto this one."""
    u = solve_Q(ops, s, v)
    return u.left_mul(s.conj) - ops.apply_T(u)


apply_SL = apply_SR


def estimate_norm(ops, s, rel_tol: float = 1e-6,
                  max_steps: int = 500) -> float:
    """Largest singular value of the real 4N x 4N representation M of
    S_R^{-1}(s), by power iteration on M^T M.  Deterministic start; the
    Rayleigh quotient makes it a lower-bound estimate."""
    g, ops_t = ops.grid, transposed(ops)
    x = np.random.default_rng(0x5F3C).standard_normal(4 * g.N)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(max_steps):
        y = apply_SR(ops, s, QuatField(g, x.reshape(4, *g.n))).components
        # M = [lmult(conj s) ox I - sum_l lmult(e_l) ox A_l] (I4 ox Q^{-1})
        # M^T = (I4 ox Q^{-T}) [lmult(s) ox I + sum_l lmult(e_l) ox A_l^T]
        # using lmult(q)^T = lmult(conj q) and lmult(e_l)^T = -lmult(e_l).
        z = left_mul(s, y)
        for ax, e in enumerate((E1, E2, E3)[:g.dims]):
            z += left_mul(e, ops.apply_A_transpose(ax, y))
        z = solve(ops_t, s.modulus, z).reshape(-1)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        new_sigma = math.sqrt(float(x @ z))
        x = z / nz
        if sigma > 0 and abs(new_sigma - sigma) <= rel_tol * new_sigma:
            return new_sigma
        sigma = new_sigma
    return sigma


def _gap(lhs: QuatField, rhs: QuatField) -> float:
    return (lhs - rhs).l2() / max(lhs.l2(), rhs.l2(), 1e-300)


def splitting_residual(ops, s, v: QuatField) -> float:
    """Relative residual of S_R^{-1}(s,T) T v = s * S_R^{-1}(s,T) v - v."""
    return _gap(apply_SR(ops, s, ops.apply_T(v)),
                apply_SR(ops, s, v).left_mul(s) - v)


def s_resolvent_equation_residual(ops, s, p, v: QuatField) -> float:
    """Relative residual of the S-resolvent equation linking S_R^{-1}(s,T)
    and S_L^{-1}(p,T) at two purely imaginary points with |s| != |p|:

        S_R(s) S_L(p) v = [ (S_R(s) - S_L(p)) (p v)
                            - conj(s) (S_R(s) - S_L(p)) v ] / (|s|^2 - |p|^2)

    (for Re s = Re p = 0 the quadratic p^2 - 2 Re(s) p + |s|^2 collapses to
    the real scalar |s|^2 - |p|^2)."""
    pv = v.left_mul(p)
    diff_pv = apply_SR(ops, s, pv) - apply_SL(ops, p, pv)
    diff_v = (apply_SR(ops, s, v) - apply_SL(ops, p, v)).left_mul(s.conj)
    rhs = (diff_pv - diff_v) * (1.0 / (s.modulus ** 2 - p.modulus ** 2))
    return _gap(apply_SR(ops, s, apply_SL(ops, p, v)), rhs)
