"""Independent reference computations.

Two oracles with deliberately different error budgets:

* `fractional_laplacian_spectral` — sine modes with the *continuous*
  eigenvalues (k pi / L)^2 (`sine_basis`, the same per-axis factorization
  type as the discrete spectra, `grid.AxisFactorization`).  Gap to the
  discrete operator is O(h^2) plus the wide-stencil boundary effect; it
  validates the modeling, not the quadrature.
* `closed_form_P_alpha` — the exact powers of the *discrete* operator
  L = -sum A_l^2 itself, applied through the per-axis spectral factorization
  of L (`Operators.spectral`) for every separable coefficient set with
  positive samples; on `StaggeredOperators`, through that scheme's node
  (`spectral`) and face (`face_spectral`) families.  It shares the
  operators with the quadrature path, so disagreement there can only come
  from quadrature error, never discretization.

The two oracles agree only on the staggered scheme.  The collocated default
does not converge to the continuum on real inputs (its wide stencil pairs
each smooth mode with a grid-parity partner, and its vector channel carries
a Dirichlet-type operator where the continuum has the Neumann one), so a
sampled sine mode is off by O(1) there; on the staggered scheme the same mode
is an exact eigenvector and the gap is O(h^2).

Plus `s_spectrum_probe`: the eigenvalues mu of L, reported as the points
+-sqrt(mu) on the real axis, read from the same per-axis factorization,
`Operators.spectral`.  On positive coefficients mu >= 0, each positive value
of an axis once per parity sublattice and exactly 0 at the parity null mode.
A set with a sample <= 0 takes them from a general `eig` per axis; they can
be complex and fall below 0, each mu < 0 flagging a spectral sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frac import FracApplyResult, exact_symbols
from .grid import (AxisFactorization, FaceField, Grid, Operators, QuatField,
                   RealField, StaggeredOperators)


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
    """Reference P_alpha: scal = 1/2 L^{alpha/2} v and vec_l = 1/2
    L^{(alpha-1)/2} (A_l v) (T^2 = L as an operator identity), the powers
    `exact_symbols` applied through the per-axis factorization of L; the
    parity null mode goes to zero.  A coefficient sample <= 0 raises
    ValueError.

    With `StaggeredOperators`: scal = 1/2 L_D^{alpha/2} v and vec_l = 1/2
    L_l^{(alpha-1)/2} A_l v on the faces, through the face family of the
    factorization (its null mode, present in 1D only, is orthogonal to the
    range of A_l and sent to zero)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if isinstance(ops, StaggeredOperators):
        return _closed_form_staggered(alpha, v, ops)
    if not ops.is_positive:
        raise ValueError("the closed form needs coefficients positive at "
                         "every node")
    g = ops.grid
    sp = ops.spectral
    e1, e2 = exact_symbols(alpha, sp.eigenvalues())
    comps = np.zeros((4, *g.n))
    comps[0] = sp.apply_symbol(e2, v.values)
    for ax in range(g.dims):
        comps[ax + 1] = sp.apply_symbol(e1, ops.apply_A(ax, v.values))
    return FracApplyResult(full=QuatField(g, comps),
                           scal=RealField(g, comps[0]),
                           vec=tuple(RealField(g, w) for w in comps[1:]),
                           j_leak=0.0)


def _closed_form_staggered(alpha: float, v: RealField,
                           ops: StaggeredOperators) -> FracApplyResult:
    g = ops.grid
    _, e2 = exact_symbols(alpha, ops.spectral.eigenvalues())
    scal = ops.spectral.apply_symbol(e2, v.values)
    vec = []
    for ax in range(g.dims):
        face = ops.face_spectral(ax)
        e1, _ = exact_symbols(alpha, face.eigenvalues())
        w = face.apply_symbol(e1, ops.apply_A(ax, v.values))
        vec.append(FaceField(g, ax, w))
    return FracApplyResult(full=None, scal=RealField(g, scal), vec=tuple(vec),
                           j_leak=0.0)


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
    <= 0 can have mu < 0, and so a spectral sphere.  A mu within 1e-12
    max|mu| of 0 counts as 0, so the verdict does not depend on the unit of
    length."""
    lam = ops.spectral.eigenvalues()
    max_imag = float(np.max(np.abs(lam.imag)))
    mu = np.sort(lam.real, axis=None)
    zero_tol = 1e-12 * float(np.max(np.abs(mu)))
    real = mu >= -zero_tol
    r = np.sqrt(np.maximum(mu[real], 0.0))
    # pairs (-r, r) in the order of mu, then a stable sort: the order of
    # equal points, -0.0 before 0.0 included, is that of the pairs
    points = np.sort(np.stack([-r, r], axis=1).reshape(-1), kind="stable")
    spheres = np.sort(np.sqrt(-mu[~real]))
    return SpectrumProbe(points=tuple(points.tolist()),
                         sphere_radii=tuple(spheres.tolist()),
                         max_imag=max_imag)
