import copy

import pytest


@pytest.fixture
def dense_route():
    """ops -> a shallow copy whose resolvent workspaces take the dense LU of
    Q_t instead of the spectral factorization of L, and whose P_alpha sums
    the reduced pairs in the node engine: an independent factorization that
    shares the parity-null deflation with the production route."""
    def make(ops):
        ref = copy.copy(ops)
        ref.is_positive = False
        return ref
    return make
