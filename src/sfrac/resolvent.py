"""Pseudo-resolvent solves Q_s w = f, the left and right S-resolvents, and
norm estimation for the resolvent-bound checks.

Q_s = |s|^2 I + L, L = -sum_l A_l^2, is a real matrix acting componentwise
(the discrete T^2 + |s|^2, exactly; see the grid module), so a quaternion
right-hand side is four independent real solves sharing one factorization.
`ResolventWorkspace` is where Q_s lives: it takes |s|^2 from a purely
imaginary, nonzero s, or from each point of a block of them, and rejects any
other.  Its one factorization is the per-axis factorization of L,
`Operators.spectral` (fast diagonalization, Lynch, Rice and Thomas, Numer.
Math. 6, 1964), which every coefficient set has: Q_s^{-1} is the diagonal
scaling 1/(|s|^2 + Lambda) between two per-axis tensor transforms, so every
quadrature node shares one factorization of L and a workspace costs no
factorization of its own; a block of M points transforms the right-hand
sides forward once, scales them by the M stacked symbols and transforms the
M products back in one pass (a GEMM).  On a set with a sample <= 0 the
factors can be complex (a general `eig` per axis); the solution of the real
system is then the real part of the product.

On a positive set the production P_alpha and its matrix do not come
through here: summed over the nodes, the resolvents collapse onto two scalar
symbols of L (see the frac module).  The workspaces serve the quaternionic
node engine (`frac._node_engine`: one workspace per block of nodes, applied
once, to the stacked components of T v), whose reduced sum is P_alpha on a
set with a sample <= 0 and whose left form is the reference that `verify`
and the tests use, and the resolvent identity and norm checks.

On all-odd grids the composed difference operator has the exact parity null
mode zeta (see grid module); Q_s is then nonsingular but has the isolated
eigenvalue |s|^2, which for the smallest quadrature nodes sits ~1e7 below
the rest of the spectrum and would let factorization rounding deposit
O(eps * cond) garbage in that direction.  Since Q_s zeta =
|s|^2 zeta and eta^T Q_s = |s|^2 eta^T are exact identities, the solver
splits that mode off analytically (deflation below) instead of asking the
factorization to resolve it.  One `_solve_stack` does this for one s and for
a block alike.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import SolverDiverged
from .grid import Operators, QuatField
from .quat import E1, E2, E3, Quaternion, left_mul

# relative residual above which solve_Q raises SolverDiverged; the SVD
# factors of a positive set meet it by orders of magnitude, while the eig
# factors of a set with a sample <= 0 can miss it at small |s| on large
# grids (1.9e-8 on 1D n = 2048 `x-0.45` for |s| <= 1e-2)
RESIDUAL_GUARD = 1e-8


class ResolventWorkspace:
    """Everything needed to apply Q_s^{-1}, S_L^{-1} and S_R^{-1} at one s,
    or Q_s^{-1} at a block of points s (the quadrature nodes of one block).

    Immutable after construction; applications only read shared state (the
    factorization of L) and allocate private scratch.  The
    field-level API and the norm estimate need one s.
    """

    def __init__(self, ops: Operators, s: Quaternion | Sequence[Quaternion]):
        points = (s,) if isinstance(s, Quaternion) else tuple(s)
        t2 = []
        for p in points:
            if p.w != 0.0:
                raise ValueError("workspace requires purely imaginary s")
            t2.append(p.x * p.x + p.y * p.y + p.z * p.z)  # |s|^2
            if t2[-1] == 0.0:
                raise ValueError("s must be nonzero")
        self._t2 = np.array(t2)
        self._single = isinstance(s, Quaternion)
        # |s|^2: a float at one s, the array of them at a block
        self.t2 = float(self._t2[0]) if self._single else self._t2
        self.ops = ops
        self.grid = ops.grid
        self.s = s
        # one symbol 1/(|s|^2 + Lambda) per point, shaped (M, *n); on a
        # positive set the parity-null coefficient is exactly 0 and _deflate
        # owns that mode, while on any other set an exact 0 can be a real
        # kernel mode of L, whose resolvent 1/|s|^2 stays
        lam = ops.spectral.eigenvalues()
        t2 = self._t2.reshape(-1, *[1] * lam.ndim)
        self._symbol = np.where((lam == 0.0) & ops.is_positive, 0.0,
                                1.0 / (t2 + lam))
        self._null = ops.null_pair  # (zeta, eta) or None

    # -- low level solves --------------------------------------------------
    def _deflate(self, rhs: np.ndarray, transpose: bool):
        """Split off the exact parity mode.  rhs shape (K, N)."""
        zeta, eta = self._null
        right = (eta if transpose else zeta).reshape(-1)   # Q right-eigvec
        left = (zeta if transpose else eta).reshape(-1)    # Q left-eigvec
        denom = float(left @ right)
        beta = rhs @ left / denom
        return rhs - np.outer(beta, right), beta, right, left, denom

    def _solve_stack(self, rhs: np.ndarray, transpose: bool = False,
                     null_free_rhs: bool = False) -> np.ndarray:
        """Solve Q w = f (or Q^T w = f) for K stacked right-hand sides;
        rhs shape (K, N) flat (or (N,)).  Returns the same shape at one s,
        and at a block of M points one such solution per point, shaped
        (M, K, N) (or (M, N)).

        null_free_rhs: caller asserts f lies in the range of the A_l
        operators, which the left null vector annihilates exactly; the
        parity-mode coefficient is then zero by identity and its measured
        value is pure rounding, which 1/|s|^2 would amplify — so it is
        dropped rather than added back.
        """
        rhs = np.asarray(rhs, dtype=float)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[None, :]
        if self._null is not None:
            work, beta, right, left, denom = self._deflate(rhs, transpose)
            if null_free_rhs:
                beta = np.zeros_like(beta)
        else:
            work, beta, right, left, denom = rhs, None, None, None, None

        sol = self._solve_spectral(work, transpose)
        if beta is not None:
            # remove factorization garbage along the deflated direction (the
            # true component is exactly zero), then add the mode back
            sol = sol - (sol @ left / denom)[..., None] * right
            sol = sol + (beta / self._t2[:, None])[..., None] * right
        if self._single:
            sol = sol[0]
        return sol[..., 0, :] if squeeze else sol

    def _solve_spectral(self, rhs: np.ndarray, transpose: bool) -> np.ndarray:
        # one forward transform of the K rows, the M symbols, one inverse
        # transform of the M K products, whose real part solves the real
        # system; an all-zero row maps to exact zeros, so only the others
        # are transformed (the zero components of T v for a real v)
        live = rhs.any(axis=1)
        m = len(self._t2)
        out = np.zeros((m, *rhs.shape))
        vals = rhs[live].reshape(-1, *self.grid.n)
        symbol = self._symbol[:, None]  # (M, 1, *n) against (K, *n)
        sol = self.ops.spectral.apply_symbol(symbol, vals, transpose)
        out[:, live] = sol.real.reshape(m, vals.shape[0], self.grid.N)
        return out

    # -- field-level API -----------------------------------------------------
    def solve_Q(self, f: QuatField) -> QuatField:
        """w with Q_s w = f; raises SolverDiverged when the relative residual
        exceeds RESIDUAL_GUARD (a cheap a-posteriori check)."""
        comps = f.components.reshape(4, -1)
        sol = self._solve_stack(comps)
        w = QuatField(f.grid, sol.reshape(4, *self.grid.n))
        r = self.t2 * w.components + self.ops.apply_L(w.components) \
            - f.components
        nf = float(np.sqrt(np.sum(f.components ** 2)))
        if nf > 0 and float(np.sqrt(np.sum(r ** 2))) > RESIDUAL_GUARD * nf:
            raise SolverDiverged(
                f"solve residual above tolerance at |s|^2={self.t2:g}")
        return w

    def solve_Q_real(self, values: np.ndarray) -> np.ndarray:
        """Q^{-1} on a stack of real fields, shape (..., *grid.n)."""
        lead = values.shape[:-self.grid.dims]
        flat = values.reshape(int(np.prod(lead)) if lead else 1, -1)
        return self._solve_stack(flat).reshape(values.shape)

    def apply_SR(self, v: QuatField) -> QuatField:
        """Right S-resolvent: w = conj(s)*(Q^{-1}v) - T(Q^{-1}v).

        It is also the left S-resolvent (`apply_SL`), taken through the
        commutative form (s - conj(T)) Q_c^{-1}: with Re(s) = 0 and the real
        componentwise Q, conj(T) = -T and Q_c = -Q collapse the two formulas
        onto conj(s)*(Q^{-1}v) - T(Q^{-1}v).  The left/right distinction that
        survives discretization is the placement of the quaternionic
        integrand factor, which lives in the frac module.
        """
        u = self.solve_Q(v)
        return u.left_mul(self.s.conj) - self.ops.apply_T(u)

    apply_SL = apply_SR

    # -- norm estimation ----------------------------------------------------
    def _apply_SR_flat(self, x: np.ndarray) -> np.ndarray:
        v = QuatField(self.grid, x.reshape(4, *self.grid.n))
        return self.apply_SR(v).components.reshape(-1)

    def _apply_SR_transpose_flat(self, x: np.ndarray) -> np.ndarray:
        # M = [lmult(conj s) ox I - sum_l lmult(e_l) ox A_l] (I4 ox Q^{-1})
        # M^T = (I4 ox Q^{-T}) [lmult(s) ox I + sum_l lmult(e_l) ox A_l^T]
        # using lmult(q)^T = lmult(conj q) and lmult(e_l)^T = -lmult(e_l).
        y = x.reshape(4, *self.grid.n)
        acc = left_mul(self.s, y)
        for ax, e in enumerate((E1, E2, E3)[:self.grid.dims]):
            acc += left_mul(e, self.ops.apply_A_transpose(ax, y))
        flat = acc.reshape(4, -1)
        sol = self._solve_stack(flat, transpose=True)
        return sol.reshape(-1)

    def estimate_norm(self, rel_tol: float = 1e-6,
                      max_steps: int = 500) -> float:
        """Largest singular value of the real 4N x 4N representation of
        S_R^{-1}, by power iteration on M^T M.  Deterministic start; the
        Rayleigh quotient makes it a lower-bound estimate."""
        rng = np.random.default_rng(0x5F3C)
        x = rng.standard_normal(4 * self.grid.N)
        x /= np.linalg.norm(x)
        sigma = 0.0
        for _ in range(max_steps):
            y = self._apply_SR_flat(x)
            z = self._apply_SR_transpose_flat(y)
            nz = np.linalg.norm(z)
            if nz == 0.0:
                return 0.0
            new_sigma = math.sqrt(float(x @ z))
            x = z / nz
            if sigma > 0 and abs(new_sigma - sigma) <= rel_tol * new_sigma:
                return new_sigma
            sigma = new_sigma
        return sigma


# ---------------------------------------------------------------------------
# Identity residuals (dual-route checks used by the verification suite)


def splitting_residual(ws: ResolventWorkspace, v: QuatField) -> float:
    """Relative residual of S_R^{-1}(s,T) T v = s * S_R^{-1}(s,T) v - v."""
    lhs = ws.apply_SR(ws.ops.apply_T(v))
    rhs = ws.apply_SR(v).left_mul(ws.s) - v
    denom = max(lhs.l2(), rhs.l2(), 1e-300)
    return (lhs - rhs).l2() / denom


def s_resolvent_equation_residual(ops: Operators, s: Quaternion, p: Quaternion,
                                  v: QuatField) -> float:
    """Relative residual of the S-resolvent equation linking S_R^{-1}(s,T)
    and S_L^{-1}(p,T) at two purely imaginary points with |s| != |p|:

        S_R(s) S_L(p) v = [ (S_R(s) - S_L(p)) (p v)
                            - conj(s) (S_R(s) - S_L(p)) v ] / (|s|^2 - |p|^2)

    (for Re s = Re p = 0 the quadratic p^2 - 2 Re(s) p + |s|^2 collapses to
    the real scalar |s|^2 - |p|^2)."""
    ws_s = ResolventWorkspace(ops, s)
    ws_p = ResolventWorkspace(ops, p)
    lhs = ws_s.apply_SR(ws_p.apply_SL(v))
    pv = v.left_mul(p)
    diff_pv = ws_s.apply_SR(pv) - ws_p.apply_SL(pv)
    diff_v = (ws_s.apply_SR(v) - ws_p.apply_SL(v)).left_mul(s.conj)
    denom_scalar = (s.modulus ** 2 - p.modulus ** 2)
    rhs = (diff_pv - diff_v) * (1.0 / denom_scalar)
    denom = max(lhs.l2(), rhs.l2(), 1e-300)
    return (lhs - rhs).l2() / denom
