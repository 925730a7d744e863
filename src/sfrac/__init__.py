"""Fractional powers of quaternionic gradient-type operators on boxes.

The package computes P_alpha(T) for T = sum_l e_l a_l(x_l) d/dx_l with
Dirichlet conditions, by quadrature of the S-resolvents along the imaginary
axis, verifies the resolvent bounds that make the construction work, and
runs the induced divergence-form fractional evolution.
"""

import logging

__version__ = "0.1.0"

# progress goes to the "sfrac" logger; the application attaches handlers
logging.getLogger(__name__).addHandler(logging.NullHandler())

from . import coeff, errors, evolve, frac, grid, oracle, quat, resolvent

__all__ = [
    "coeff", "errors", "evolve", "frac", "grid", "oracle", "quat",
    "resolvent", "__version__",
]
