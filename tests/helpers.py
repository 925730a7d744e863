"""Small constructors and measures shared by the test modules."""

import math

import numpy as np

from sfrac.coeff import make_profile
from sfrac.grid import BoxDomain, Grid, Operators


def grid1d(n, length=math.pi):
    return Grid(BoxDomain((length,)), (n,))


def rel_gap(a, b):
    """max |a - b| over the larger max-norm of the two."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / scale


def variable_ops_2d(n1=7, n2=9):
    g = Grid(BoxDomain((1.0, 1.3)), (n1, n2))
    return Operators(g, (make_profile(1, "1+0.1*x", 1.0),
                         make_profile(2, "1+0.2*x", 1.3)))
