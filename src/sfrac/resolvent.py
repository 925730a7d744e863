"""Pseudo-resolvent solves Q_t w = f at a block of quadrature nodes: the
per-node solve of the tests' node engine (`tests/engine.py`) and of their
S-resolvent reference (`tests/sresolvent.py`).  No task of the package
solves here: `P_alpha` and its left-form reference apply symbols of L.

Q_t = t^2 I + L, L = -sum_l A_l^2, is a real matrix acting componentwise
(the discrete T^2 + |s|^2 at s = -jt, exactly; see the grid module), so the
four components of a quaternionic right-hand side share one factorization:
the per-axis factorization of L, `Operators.spectral` (fast
diagonalization, Lynch, Rice and Thomas, Numer. Math. 6, 1964), which every
coefficient set has.  Q_t^{-1} is the diagonal scaling 1/(t^2 + Lambda)
between two per-axis transforms, so a block of M nodes costs one forward
transform of the right-hand sides, the M stacked scalings and one inverse
transform of the M products (a GEMM), and no factorization of its own.  On
a set with a sample <= 0 the factors can be complex (a general `eig` per
axis); the solution of the real system is then the real part.

The engine solves for the components of T v, which lie in the range of the
A_l and so have no component along the parity null mode of L on all-odd
grids.  The symbol is 0 there (`AxisFactorization.null_mask`), so whatever
rounding the forward transform leaves along that mode is dropped rather
than amplified by 1/t^2.
"""

from __future__ import annotations

import numpy as np

from .grid import Operators


class ResolventWorkspace:
    """Everything needed to apply Q_t^{-1} at a block of node magnitudes t,
    a 1-D array whose entries are finite and > 0.

    Immutable after construction; a solve only reads shared state (the
    factorization of L) and allocates private scratch.
    """

    def __init__(self, ops: Operators, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t) & (t > 0.0)):
            raise ValueError("node magnitudes t must form a 1-D array of "
                             "finite values > 0")
        self._t2 = t * t
        self.ops = ops
        self.grid = ops.grid
        # one symbol 1/(t^2 + Lambda) per node, shaped (M, *n), 0 at the
        # structural 0 of L: the parity null mode, off the range of the A_l
        lam = ops.spectral.eigenvalues()
        t2 = self._t2.reshape(-1, *[1] * lam.ndim)
        self._symbol = np.where(ops.spectral.null_mask, 0.0,
                                1.0 / (t2 + lam))

    def _solve_stack(self, rhs: np.ndarray) -> np.ndarray:
        """Solve Q_t w = f at every node for K stacked right-hand sides in
        the range of the A_l, rhs shaped (K, N) flat; returns (M, K, N).

        One forward transform of the K rows, the M symbols, one inverse
        transform of the M K products, whose real part solves the real
        system.  An all-zero row maps to exact zeros, so only the others
        are transformed (the zero components of T v for a real v)."""
        rhs = np.asarray(rhs, dtype=float)
        live = rhs.any(axis=1)
        m = len(self._t2)
        out = np.zeros((m, *rhs.shape))
        vals = rhs[live].reshape(-1, *self.grid.n)
        symbol = self._symbol[:, None]  # (M, 1, *n) against (K, *n)
        sol = self.ops.spectral.apply_symbol(symbol, vals)
        out[:, live] = sol.real.reshape(m, vals.shape[0], self.grid.N)
        return out
