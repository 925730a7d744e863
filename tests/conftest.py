import copy

import numpy as np
import pytest

from sfrac.resolvent import ResolventWorkspace


def dense_Q(ops, t2):
    """Q_s = |s|^2 I + dense_L() (N <= DENSE_CAP), the matrix that the
    dense route solves by LU."""
    return t2 * np.eye(ops.grid.N) + ops.dense_L()


@pytest.fixture
def dense_route(monkeypatch):
    """ops -> a shallow copy whose resolvent workspaces solve each
    Q_t = t^2 I + dense_L() by LU (`numpy.linalg.solve`) instead of applying
    the per-axis factorization of L, so `reference_P_alpha` on it is the
    node engine on an independent factorization that shares the parity-null
    deflation with the per-axis one.  Its copies (`sresolvent.transposed`)
    keep the route, on their own dense_L().  `dense_route.Q` is `dense_Q`."""
    spectral_solve = ResolventWorkspace._solve_spectral

    def solve(ws, rhs):
        if not getattr(ws.ops, "dense_route", False):
            return spectral_solve(ws, rhs)
        out = np.empty((len(ws._t2), *rhs.shape))
        for k, t2 in enumerate(ws._t2):
            out[k] = np.linalg.solve(dense_Q(ws.ops, t2), rhs.T).T
        return out

    monkeypatch.setattr(ResolventWorkspace, "_solve_spectral", solve)

    def make(ops):
        ref = copy.copy(ops)
        # the workspace still forms its symbol, which this route never reads
        ref.spectral = ops.spectral
        ref.dense_route = True
        return ref
    make.Q = dense_Q
    return make
