"""Independent reference computations.

`fractional_laplacian_spectral` runs sine modes with the *continuous*
eigenvalues (k pi / L)^2 (`sine_basis`, the same per-axis factorization type
as the discrete spectra, `grid.AxisFactorization`).  Its gap to the discrete
operator is O(h^2) plus the wide-stencil boundary effect, so it validates
the modeling, not the fractional power.  It agrees with P_alpha only on the
staggered scheme.  The collocated default does not converge to the continuum
on real inputs (its wide stencil pairs each smooth mode with a grid-parity
partner, and its vector channel carries a Dirichlet-type operator where the
continuum has the Neumann one), so a sampled sine mode is off by O(1) there;
on the staggered scheme the same mode is an exact eigenvector and the gap
is O(h^2).

`closed_form_P_alpha` is no second route: it is `frac.apply_P_alpha` on a
real field, kept under its name for the benchmark's tracer.

Plus `s_spectrum_probe`: the eigenvalues mu of L, reported as the points
+-sqrt(mu) on the real axis, read from the same per-axis factorization,
`Operators.spectral`.  On positive coefficients mu >= 0, each positive value
of an axis once per parity sublattice and exactly 0 at the parity null mode.
A set with a sample <= 0 takes them from a general `eig` per axis; they can
be complex and fall below 0, each mu < 0 flagging a spectral sphere (which
`apply_P_alpha` refuses: the path -jR crosses it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frac import FracApplyResult, QuadratureSpec, apply_P_alpha, zero_tol
from .grid import (AxisFactorization, Grid, Operators, QuatField, RealField,
                   StaggeredOperators)


def sine_basis(grid: Grid) -> AxisFactorization:
    """Product sine modes on a box with their continuous eigenvalues
    sum_l (k_l pi / L_l)^2, as a factorization: fwd_l = 2/(n_l+1) S_l and
    inv_l = S_l, S_l[k-1, i-1] = sin(k i pi / (n_l+1)) (S_l S_l = (n_l+1)/2 I).

    Modes vanish at the boundary and diagonalize the plain second-difference
    operator exactly; against the composed wide stencil they are orthogonal
    only up to O(h^2).  Transform matrices are naive O(n^2) per axis, which
    keeps them dependency-free and bit-reproducible at desk scale.
    """
    factors = []
    for n, L in zip(grid.n, grid.domain.lengths):
        k = np.arange(1, n + 1)
        s = np.sin(np.outer(k, k) * np.pi / (n + 1))
        factors.append(((k * np.pi / L) ** 2, s * (2.0 / (n + 1)), s))
    return AxisFactorization(factors)


def fractional_laplacian_spectral(beta: float, v: RealField) -> RealField:
    """(-Laplace)^beta v through sine modes with continuous eigenvalues."""
    basis = sine_basis(v.grid)
    return RealField(v.grid, basis.apply_symbol(basis.eigenvalues() ** beta,
                                                v.values))


def closed_form_P_alpha(alpha: float, v: RealField,
                        ops: Operators | StaggeredOperators) -> FracApplyResult:
    """P_alpha(T) v for a real v: `frac.apply_P_alpha` on
    QuatField.from_real(v), the exact powers of L.  Kept under this name
    while the benchmark's tracer (perfbench/tracer.py) wraps it by name,
    until the program reports its own phases (ROADMAP item 18).  ValueError
    for an alpha outside (0, 1) or too close to its ends for the rule of
    `QuadratureSpec`."""
    return apply_P_alpha(QuadratureSpec(alpha), ops, QuatField.from_real(v))


@dataclass(frozen=True)
class SpectrumProbe:
    """Discrete S-spectrum approximation from the eigenvalues mu of L.

    points: sorted +-sqrt(mu) for mu >= 0 (the expected case);
    sphere_radii: sqrt(|mu|) for any mu < 0, each flagging a whole 2-sphere
    |s| = r of spectral points rather than real ones;
    max_imag: largest imaginary part of the eigenvalues of L, which come
    from the per-axis factorization: 0.0 on positive sets, whose spectrum is
    real; on a set with a sample <= 0 it can be real structure, not only
    rounding (5.9e-2 on 2D 24^2 with `x-0.5`, `1`), and the points and
    radii keep the real parts only.
    """

    points: tuple
    sphere_radii: tuple
    max_imag: float


def s_spectrum_probe(ops: Operators) -> SpectrumProbe:
    """Eigenvalues mu of L = -sum A_l^2, mapped to the real axis points
    +-sqrt(mu); axially symmetric by construction (s -> -s).  mu comes from
    `Operators.spectral` on every coefficient set; only a set with a sample
    <= 0 can have mu < 0, and so a spectral sphere.  A mu within
    `zero_tol` of 0 counts as 0, so the verdict does not depend on the unit
    of length."""
    lam = ops.spectral.eigenvalues()
    max_imag = float(np.max(np.abs(lam.imag)))
    mu = np.sort(lam.real, axis=None)
    real = mu >= -zero_tol(lam)
    r = np.sqrt(np.maximum(mu[real], 0.0))
    # pairs (-r, r) in the order of mu, then a stable sort: the order of
    # equal points, -0.0 before 0.0 included, is that of the pairs
    points = np.sort(np.stack([-r, r], axis=1).reshape(-1), kind="stable")
    spheres = np.sort(np.sqrt(-mu[~real]))
    return SpectrumProbe(points=tuple(points.tolist()),
                         sphere_radii=tuple(spheres.tolist()),
                         max_imag=max_imag)
