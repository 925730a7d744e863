import copy

import numpy as np
import pytest

from sfrac.resolvent import ResolventWorkspace
from helpers import null_pair


def dense_Q(ops, t2):
    """Q_s = |s|^2 I + dense_L() (N <= DENSE_CAP), the matrix that the
    dense route solves by LU."""
    return t2 * np.eye(ops.grid.N) + ops.dense_L()


@pytest.fixture
def dense_route(monkeypatch):
    """ops -> a shallow copy whose resolvent workspaces solve each
    Q_t = t^2 I + dense_L() by LU (`numpy.linalg.solve`) instead of applying
    the per-axis factorization of L, so the test's node engine
    (`engine.node_engine`) on it solves every node by an independent
    factorization.  The LU would amplify the
    rounding along the parity null mode by 1/t^2, where the spectral
    symbol is 0, so this route deflates that mode (`helpers.null_pair`):
    it subtracts the measured zeta component of the right-hand sides (in
    the range of the A_l) and projects the rounding off zeta again.  Its
    copies (`sresolvent.transposed`) keep the route, on their own
    dense_L() and swapped pair.  `dense_route.Q` is `dense_Q`."""
    spectral_solve = ResolventWorkspace._solve_stack

    def solve(ws, rhs):
        if not getattr(ws.ops, "dense_route", False):
            return spectral_solve(ws, rhs)
        pair = null_pair(ws.ops)

        def deflate(x):  # x less its measured zeta component
            if pair is None:
                return x
            zeta, eta = (v.reshape(-1) for v in pair)
            return x - (x @ eta / float(eta @ zeta))[..., None] * zeta
        rhs = deflate(rhs)
        out = np.empty((len(ws._t2), *rhs.shape))
        for k, t2 in enumerate(ws._t2):
            out[k] = np.linalg.solve(dense_Q(ws.ops, t2), rhs.T).T
        return deflate(out)

    monkeypatch.setattr(ResolventWorkspace, "_solve_stack", solve)

    def make(ops):
        ref = copy.copy(ops)
        # the workspace still forms its symbol, which this route never reads
        ref.spectral = ops.spectral
        ref.dense_route = True
        return ref
    make.Q = dense_Q
    return make
