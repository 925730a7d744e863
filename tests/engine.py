"""Test reference: the quaternionic left form of P_alpha(T) v node by node.

`node_engine` solves u1 = Q_t^{-1} T v at every node of the rule through
`ResolventWorkspace._solve_stack`, so `conftest.dense_route` swaps in a
dense LU per node, and forms the left pairs there: j enters every node.
`frac.reference_P_alpha` sums the same pairs over the nodes first, onto
two symbols of L; the tests hold the two against each other.

Fields travel as arrays shaped (4, *grid.n), a block of nodes as stacks
shaped (nodes, 4, N), the rows of its tables' matmul component first.
"""

import math

import numpy as np

from sfrac import frac
from sfrac.grid import sum_T
from sfrac.quat import E1, E2, E3, Quaternion, left_mult_table, qmul
from sfrac.resolvent import ResolventWorkspace

# elements of one (nodes, 4, N) stack: a block holds max(1, BLOCK_ELEMS //
# (4 N)) nodes, which bounds the engine's memory on the largest grids
BLOCK_ELEMS = 2 ** 16


def node_engine(spec, ops, comps, units):
    """Per-node quaternionic quadrature of comps (4,*n) in the left form.
    Returns [(left (4,*n), j_leak float) per imaginary unit j of units].

    Each node solves u1 = Q_t^{-1} T v once (T v lies in the range of the
    A_l, so its parity-mode coefficient is exactly zero; Q_t depends on
    |s| = t alone, so the solve serves every unit) and forms the A_l u1,
    T u1 and the j-free reduction 2 sin(theta) t u1 - 2 cos(theta) T u1,
    the pair that `symbols` sums.  With s_+- = -+ j t and
    s_+-^{alpha-1} = t^{alpha-1} e_+-, e_+- = cos(theta) -+ j sin(theta),
    the naive left pair sum of each unit (t^{alpha-1} left to the node
    weight c) is
      sum_{+-} conj(s_+-) e_+- u1 - T(e_+- u1),
    evaluated quaternionically at every node; it reduces to the j-free form
    and j_leak is the gap between the two, summed over the nodes.  A half
    line is one matmul of the left tables of +-j e_+- and -e_l e_+- with the
    rows c [t u1; A_1 u1; ...], on the `live` components only (those where
    T v is nonzero; u1 and the A_l u1 vanish on the others).

    The nodes of `symbols` on L go in ascending t, in blocks (see
    BLOCK_ELEMS): one resolvent solve and one stencil per grid axis for all
    nodes of a block, then the reduction and per unit the two half lines,
    added and summed node by node (np.add.reduce over the node axis).
    Blocks are added in order, so the result is bitwise reproducible."""
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    shape, dims, n = comps.shape, ops.grid.dims, ops.grid.N
    tv = ops.apply_T(comps).reshape(4, n)
    live = np.flatnonzero(tv.any(axis=1))
    ts, cs = frac._nodes(spec, ops.spectral.eigenvalues(),
                         ops.spectral.null_mask)
    per_block = max(1, BLOCK_ELEMS // (4 * n))

    def table(sign, j, e):
        # conj(s) e u1 - T(e u1) = sign (j e)(t u1) - sum_l (e_l e)(A_l u1)
        mats = [sign * left_mult_table(qmul(j.direction, e))]
        mats += [-left_mult_table(qmul(e_l, e)) for e_l in (E1, E2, E3)]
        return np.concatenate([m[:, live] for m in mats[:1 + dims]], axis=1)

    # per unit the s_+ and s_- half lines, conj(s_+-) = +-t j
    tables = [(table(1.0, j, Quaternion(cos_t) + j.scale(-sin_t)),
               table(-1.0, j, Quaternion(cos_t) + j.scale(sin_t)))
              for j in units]
    acc = np.zeros((len(units), *tv.shape))
    leak = np.zeros_like(acc)

    for lo in range(0, len(ts), per_block):
        t, c = ts[lo:lo + per_block], cs[lo:lo + per_block]
        k = len(t)
        u1 = ResolventWorkspace(ops, t)._solve_stack(tv).reshape(k, *shape)
        a_u1 = [ops.apply_A(ax, u1).reshape(k, 4, n) for ax in range(dims)]
        u1 = u1.reshape(k, 4, n)
        t, c = t[:, None, None], c[:, None, None]
        red = (2.0 * sin_t * t * u1 - 2.0 * cos_t * sum_T(a_u1)) * c
        # x = c [t u1; A_1 u1; ...] on the live components, component first
        x = np.empty((1 + dims, len(live), k, n))
        np.multiply(c * t, u1[:, live], out=x[0].swapaxes(0, 1))
        for ax, a in enumerate(a_u1):
            np.multiply(c, a[:, live], out=x[1 + ax].swapaxes(0, 1))
        x = x.reshape(-1, k * n)
        for i, (plus, minus) in enumerate(tables):
            pairs = (plus @ x + minus @ x).reshape(4, k, n)
            acc[i] += np.add.reduce(pairs, axis=1)
            pairs -= red.swapaxes(0, 1)
            leak[i] += np.add.reduce(pairs, axis=1)
    for a in (acc, leak):
        a *= -1.0 / frac.TWO_PI
    return [(a.reshape(shape), float(np.max(np.abs(g))))
            for a, g in zip(acc, leak)]
