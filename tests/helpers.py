"""Small constructors and measures shared by the test modules."""

import math

import numpy as np

from sfrac.coeff import make_profile
from sfrac.frac import apply_symbols, symbols
from sfrac.grid import BoxDomain, Grid, Operators


def grid1d(n, length=math.pi):
    return Grid(BoxDomain((length,)), (n,))


def rel_gap(a, b):
    """max |a - b| over the larger max-norm of the two."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def box_ops(n, texts=("1+0.1*x", "exp(0.2*x)", "1+0.2*sin(x)"),
            lengths=(1.0, 1.3, 0.8)):
    """Operators on the grid n of the box of the first len(n) lengths, with
    the coefficient texts[l] on axis l."""
    lengths = lengths[:len(n)]
    return Operators(Grid(BoxDomain(lengths), n), tuple(
        make_profile(ax + 1, text, length)
        for ax, (text, length) in enumerate(zip(texts, lengths))))


def quadrature_P_alpha(spec, ops, v):
    """The quadrature's right form of P_alpha(T) v, as `verify` computes
    it: the node-summed symbols of spec (`frac.symbols`) applied by
    `frac.apply_symbols`, where `apply_P_alpha` applies the exact powers."""
    sp = ops.spectral
    return apply_symbols(ops, v, symbols(spec, sp.eigenvalues(),
                                         sp.null_mask))


def variable_ops_2d(n1=7, n2=9):
    return box_ops((n1, n2), ("1+0.1*x", "1+0.2*x"))


def null_pair(ops):
    """(zeta, eta), the exact right and left null vectors of every A_l on
    all-odd grids, or None: zeta the pattern (1, 0, 1, ...) per axis,
    eta = zeta / prod_l a_l (0 off the support of zeta).  Q_t zeta = t^2
    zeta.  ValueError on a 0 sample on the pattern; swapped on the
    operators of L^T (`sresolvent.transposed` sets `is_transposed`)."""
    if not ops.grid.has_parity_null:
        return None
    zeta = np.zeros(ops.grid.n)
    zeta[(slice(None, None, 2),) * ops.grid.dims] = 1.0
    denom = np.broadcast_to(math.prod(ops.a_samples), zeta.shape)
    if np.any((denom == 0.0) & (zeta != 0.0)):
        raise ValueError("a coefficient sample is 0 on the parity null "
                         "mode, where its left null vector divides by it")
    eta = np.divide(zeta, denom, out=np.zeros_like(zeta), where=denom != 0)
    return (eta, zeta) if getattr(ops, "is_transposed", False) else (zeta, eta)
