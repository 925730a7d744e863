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
    the per-axis factorization of L, and whose P_alpha sums the reduced pairs
    in the node engine: an independent factorization that shares the
    parity-null deflation with the production route.  `dense_route.Q` is
    `dense_Q`."""
    refs = []
    spectral_solve = ResolventWorkspace._solve_spectral

    def solve(ws, rhs, transpose):
        if not any(ws.ops is ref for ref in refs):
            return spectral_solve(ws, rhs, transpose)
        out = np.empty((len(ws._t2), *rhs.shape))
        for k, t2 in enumerate(ws._t2):
            q = dense_Q(ws.ops, t2)
            out[k] = np.linalg.solve(q.T if transpose else q, rhs.T).T
        return out

    monkeypatch.setattr(ResolventWorkspace, "_solve_spectral", solve)

    def make(ops):
        ref = copy.copy(ops)
        # the workspace still forms its symbol, which this route never reads
        ref.spectral = ops.spectral
        ref.is_positive = False
        refs.append(ref)
        return ref
    make.Q = dense_Q
    return make
