"""Fractional power P_alpha(T) of the quaternionic gradient operator T, and
the quadrature of the paper's integral that `verify` holds it against.

The paper defines P_alpha(T) by a Balakrishnan integral of the
S-resolvents along the imaginary axis.  For separable coefficients the A_l
commute with L = T^2 = -sum A_l^2 and Q_t^{-1} is the symbol 1/(t^2 +
lambda) of L, so the integral is exactly

    P_alpha v = e_1(L) T v + e_2(L) v,
    e_1(lambda) = 1/2 lambda^{(alpha-1)/2}, e_2(lambda) = 1/2 lambda^{alpha/2}.

`apply_P_alpha` applies these powers (`exact_symbols`) through the per-axis
factorization of L (`apply_symbols`), on the principal branch where a
sample <= 0 makes lambda complex, real part kept; `build_matrix` gives the
evolution F = e_1(L), whose flux channel on a real v is F A_l v.  The
integral does not exist where a real eigenvalue mu < 0 puts the sphere |s|
= sqrt(-mu) on the path, nor at an exact 0 of L off the parity null mode:
`require_defined` refuses both, for the powers and the quadrature alike.

The quadrature traverses -jR once (t from -inf to +inf, s = -jt; ds_j :=
ds (-j) = -dt gives the factor -1/(2pi)).  For each node pair +-t the
quaternionic integrand reduces analytically to the j-free combination

    t^{alpha-1} [ 2 sin(theta) t u1  -  2 cos(theta) T u1 ],
    theta = (alpha-1) pi/2,   u1 = Q_t^{-1} T v,

so the result neither depends on j nor leaves the scalar+vector structure
for real inputs.  Summed over the nodes (weights c_i, t^{alpha-1}
included) the pairs collapse onto the rule's approximations of e_1 and e_2
(`symbols`), which `verify`'s right form applies by `apply_symbols`:

    f_1(lambda) = -(sin(theta)/pi) sum_i c_i t_i / (t_i^2 + lambda),
    f_2(lambda) =  (cos(theta)/pi) sum_i c_i lambda / (t_i^2 + lambda).

The naive quaternionic left form (`reference_P_alpha`) is the reference
that `verify` holds the right form against, at several imaginary units.
Since A_l is real and acts on each component alone, T(q u) = sum_l (e_l
q)(A_l u) for a constant quaternion q, so the half line of a node is one
matmul of a node-independent table of j with the rows c [t u1; A_1 u1;
...], cut to the components where T v is nonzero.  With u1 = r(L) T v, r =
1/(t^2 + lambda), the node sum of those rows is [g_1(L) T v; A_1 w; ...],
w = g_2(L) T v, g_1 = sum_i c_i t_i r_i and g_2 = sum_i c_i r_i: two more
symbols of L, one pass of the factorization and one stencil per grid axis
whatever the node count.  T w against the lambda g_2 that f_2 applies
checks the stencils against the factorization (T^2 = L), and the gap of
the pairs to their j-free reduction is the j_leak diagnostic.

Quadrature: the weight t^{alpha-1} is integrable but singular at 0, so the
panel [0, t_split] uses Gauss-Jacobi nodes absorbing exactly that weight.
The tail is mapped to (0, 1] by t = t_split/u, where the transformed
integrand carries the endpoint weight u^{-alpha} times a smooth factor; a
Gauss-Jacobi rule with that weight integrates it to near machine precision
(a plain Gauss-Legendre tail stalls around 1e-7 at 64 nodes because of the
u^{1-alpha} derivative singularity).  The integrand of an eigenvalue lambda
turns over at t ~ |lambda|^{1/2}, so t_split = (lambda_min
lambda_max)^{1/4} over the nonzero |lambda| of L balances the two panels in
log t (Bonito and Pasciak, Math. Comp. 84, 2015); `_nodes` derives it for
both forms, after `require_defined`.

Both panels need the rule for the weight (1+x)^b on [-1, 1] only
(`gauss_jacobi`, b = alpha-1 and b = -alpha).  It is computed in-house by
Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
the symmetric Jacobi matrix of that weight's three-term recurrence, and the
weights are mu_0 v_0^2, with v_0 the first component of each normalized
eigenvector and mu_0 = 2^{b+1}/(b+1) the weight's mass.  Against the same
construction in 40-digit arithmetic, for b in {-0.95, -0.5, -0.05}, the
nodes are within 4.5e-16 and the weights within 4.4e-13 (n = 64) and
1.5e-12 (n = 128) relative; the moments sum w (1+x)^k, k < 2n, are exact
to 5e-14 relative for n <= 128.

Both forms build the integrand from u1 = Q_t^{-1}(T v) and T u1.  The
right-resolvent integrand s^{alpha-1}(conj(s) u1 - T u1) equals the bounded
form s^{alpha-1}(-Q_t^{-1}(T^2 v) - s u1) of the splitting identity, since
conj(s) = -s and T commutes with Q_t (the tests measure the two).  That
identity would feed Q^{-1} the unfiltered v, whose parity-null component
1/t^2 amplifies on all-odd grids; T v is exactly orthogonal to that mode,
so f_1, like e_1, is 0 on it (`AxisFactorization.null_mask`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (FaceField, Operators, QuatField, RealField,
                   StaggeredOperators, sum_T)
from .quat import E1, E2, E3, Quaternion, left_mult_table, qmul

TWO_PI = 2.0 * math.pi

# bounds a block of nodes in the node sums of `symbols`: max(1,
# _BLOCK_ELEMS // (8 N)) nodes per block keeps its stacks in cache and the
# peak memory of a run as it was (2^16 per block added 1.7 MB on 9^3 grids)
_BLOCK_ELEMS = 2 ** 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the Balakrishnan quadrature: alpha and the node counts
    of the two panels (the split follows the spectrum, and the result does
    not depend on the imaginary unit of the path -jR).  `apply_P_alpha`
    and `build_matrix` read alpha alone.  It builds the rules of both
    panels, so an alpha too close to 0 or 1 for them raises ValueError
    here."""

    alpha: float
    n_sing: int = 64
    n_tail: int = 64

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in the open interval (0, 1)")
        if self.n_sing < 4 or self.n_tail < 4:
            raise ValueError("node counts must be >= 4")
        gauss_jacobi(self.n_sing, self.alpha - 1.0)
        gauss_jacobi(self.n_tail, -self.alpha)


@dataclass(frozen=True)
class FracApplyResult:
    """P_alpha(T) v split into channels.

    With the collocated `Operators` (the default): full = scal + sum_l
    vec[l] e_l componentwise by construction, with three vec entries; j_leak
    is the max-norm gap between the naive quaternionic left pair sum and
    its analytic j-free reduction (`reference_P_alpha`; thresholded by
    callers, not here), and 0.0 from `apply_symbols`, which forms no pair.
    That scheme reproduces the discrete identities exactly but does not
    converge to the continuum channels on real inputs (see the grid
    module).

    With `StaggeredOperators`: scal lives on the nodes and vec holds one
    `FaceField` per grid axis, on the faces normal to it, so full is None
    (the channels live on different points), and j_leak is 0.0.  Both
    channels converge to the continuum law: scal to 1/2 L_D^{alpha/2} v and
    vec[l] to the flux 1/2 L_N^{(alpha-1)/2} d_l v.
    """

    full: QuatField | None
    scal: RealField
    vec: tuple
    j_leak: float


@functools.lru_cache(maxsize=64)
def gauss_jacobi(n: int, b: float):
    """(x, w): the n-point Gauss rule for the weight (1+x)^b on [-1, 1],
    b > -1, nodes ascending; sum_i w_i p(x_i) = integral (1+x)^b p(x) dx for
    every polynomial p of degree < 2n.  Golub-Welsch on the three-term
    recurrence of the Jacobi polynomials P_k^{(0, b)}.  Cached per (n, b);
    the arrays are read-only.  ValueError where double precision cannot
    hold the rule: b + 1 <= 0, a node <= -1 or NaN, a weight not finite."""
    if not b + 1.0 > 0.0:
        raise ValueError(f"no Gauss-Jacobi rule for (1+x)^{b!r}: alpha "
                         "lies too close to 0 or 1")
    k = np.arange(n, dtype=float)
    s = 2.0 * k + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)  # b^2 / (s (s+2)) at k = 0, with b cancelled
    diag[1:] = b * b / (s[1:] * (s[1:] + 2.0))
    k, s = k[1:], s[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (b + 1.0) / (b + 1.0) * v[0] ** 2
    if not (np.all(x > -1.0) and np.all(np.isfinite(w))):
        raise ValueError(f"the {n}-node Gauss-Jacobi rule for (1+x)^{b!r} "
                         "needs more than double precision: alpha lies too "
                         "close to 0 or 1")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def zero_tol(lam: np.ndarray) -> float:
    """1e-12 max |lam|: an eigenvalue of L within it of 0 counts as 0, so a
    spectral sphere does not depend on the unit of length."""
    return 1e-12 * float(np.max(np.abs(lam), initial=0.0))


def require_defined(lam: np.ndarray, null: np.ndarray):
    """ValueError where P_alpha(T) is not defined on the spectrum lam of L:
    a real eigenvalue below -`zero_tol`, whose spectral sphere meets the
    path -jR, or an exact 0 of lam off the mask null (the structural 0 of
    L), a kernel mode where e_1 and f_1 have no limit.  The exact powers
    (`exact_symbols`) and the quadrature (`_nodes`) both call it."""
    tol = zero_tol(lam)
    r = np.sqrt(-lam.real[(lam.real < -tol) & (abs(lam.imag) <= tol)])
    if r.size:
        raise ValueError(
            f"the integral's path -jR crosses {r.size} spectral sphere(s) of "
            f"T, radius {r.min():.3g} to {r.max():.3g}: P_alpha is not "
            f"defined there")
    kernel = np.count_nonzero((lam == 0.0) & ~null)
    if kernel:
        raise ValueError(
            f"L has {kernel} eigenvalue(s) exactly 0 off the parity null "
            f"mode: P_alpha is not defined there")


def _nodes(spec: QuadratureSpec, lam: np.ndarray | None, null):
    """(t, c): the rule, all nodes ascending in t, with t^{alpha-1} folded
    into the weights c on both panels: sum_i c_i f(t_i) ~ integral_0^inf
    t^{alpha-1} f(t) dt for f smooth on [0, t_split] and 1/t times a smooth
    function of 1/t beyond.  The near panel is the Gauss-Jacobi rule of
    t^{alpha-1} itself; the tail, mapped by t = t_split/u, that of u^{-alpha}.
    t_split = (lambda_min lambda_max)^{1/4} over the nonzero |lam| of the
    spectrum lam, 1 when it has none or is None.  ValueError where P_alpha
    is not defined on lam (`require_defined`, with the mask null of the
    structural 0 of L), and when that product underflows to 0 or
    overflows."""
    a = spec.alpha
    ts = 1.0
    if lam is not None:
        require_defined(lam, null)
        mod = np.abs(lam)
        top = float(np.max(mod, initial=0.0))
        low = float(np.min(mod, where=mod > 0.0, initial=top))
        if top > 0.0:
            ts = (low * top) ** 0.25
        if not 0.0 < ts < math.inf:
            raise ValueError(f"the quadrature split (lambda_min lambda_max)"
                             f"^(1/4) leaves double precision: eigenvalues "
                             f"of L from {low:.3g} to {top:.3g}")
    x, w = gauss_jacobi(spec.n_sing, a - 1.0)
    t_near = ts * (1.0 + x) / 2.0
    c_near = w * (ts / 2.0) ** a

    x, w = gauss_jacobi(spec.n_tail, -a)
    u = (1.0 + x) / 2.0
    t_tail = ts / u
    w_tail = w * (0.5 ** (1.0 - a)) * u ** (a - 2.0) * ts
    order = np.argsort(t_tail)
    t_tail = t_tail[order]
    return (np.concatenate([t_near, t_tail]),
            np.concatenate([c_near, w_tail[order] * t_tail ** (a - 1.0)]))


def quad_nodes(spec: QuadratureSpec) -> list:
    """All nodes ascending in t with raw weights c_i t_i^{1-alpha}:
    sum_i weight_i g(t_i) approximates integral_0^inf g(t) dt for the
    integrand family of `_nodes` times t^{alpha-1}, at the unit split."""
    ts, cs = _nodes(spec, None, None)
    raw = cs * ts ** (1.0 - spec.alpha)
    return [{"t": float(t), "weight": float(w)} for t, w in zip(ts, raw)]


def symbols(spec: QuadratureSpec, lam: np.ndarray, null: np.ndarray):
    """(f_1, f_2) on the eigenvalues lam of L, the quadrature's P_alpha v =
    f_1(L) T v + f_2(L) v: the reduced pair integrand summed over the nodes
    of spec in the fixed ascending-t order (split by lam), the factor
    -1/(2 pi) folded in; complex where lam is.  f_1 is 0 where the mask
    null is set, at the structural 0 of L (`AxisFactorization.null_mask`),
    the parity null mode T v never reaches; `_nodes` refuses any other
    exact 0."""
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    sum_u1, sum_u2 = _node_sums(spec, lam, null, np.reshape(lam, -1))
    f1 = np.where(null, 0.0, -math.sin(theta) / math.pi * sum_u1)
    return f1, math.cos(theta) / math.pi * sum_u2


def _node_sums(spec: QuadratureSpec, lam: np.ndarray, null, second):
    """(sum_i c_i t_i r_i, sum_i c_i second r_i), r_i = 1/(t_i^2 + lam), on
    the eigenvalues lam of L over the nodes of spec (`_nodes`), shaped (2,
    *lam.shape); second is lam flattened (`symbols`) or 1.0.

    The nodes go in blocks, each one np.add.reduce over the node axis
    whose first row has the sums of the blocks before added in, so every
    element is summed strictly in ascending t.  Both sums share one stack,
    so the axes after the node axis hold at least two elements: over a
    single one numpy would sum pairwise."""
    ts, cs = _nodes(spec, lam, null)
    flat = np.reshape(lam, -1)
    per_block = max(1, _BLOCK_ELEMS // (8 * flat.size))
    sums = np.zeros((2, flat.size), np.result_type(flat, float))
    for lo in range(0, len(ts), per_block):
        t, c = ts[lo:lo + per_block, None], cs[lo:lo + per_block, None]
        r = t * t + flat
        np.divide(c, r, out=r)
        terms = np.empty((len(t), *sums.shape), sums.dtype)
        np.multiply(r, t, out=terms[:, 0])
        np.multiply(r, second, out=terms[:, 1])
        terms[0] += sums
        sums = np.add.reduce(terms, axis=0)
    return sums.reshape(2, *np.shape(lam))


def exact_symbols(alpha: float, lam: np.ndarray, null: np.ndarray):
    """(e_1, e_2) = (1/2 lam^{(alpha-1)/2}, 1/2 lam^{alpha/2}) on the
    eigenvalues lam of L, the exact powers that `symbols` approximates, on
    the principal branch where lam is complex or below 0 (`np.emath`);
    both are 0 where the mask null is set (as in `symbols`).  ValueError
    where P_alpha is not defined (`require_defined`), so e_1 is finite."""
    require_defined(lam, null)
    safe = np.where(null, 1.0, lam)
    return tuple(np.where(null, 0.0, 0.5 * np.emath.power(safe, p))
                 for p in ((alpha - 1.0) / 2.0, alpha / 2.0))


def quadrature_certificate(spec: QuadratureSpec, ops: Operators,
                           syms=None) -> dict:
    """Worst relative error of the symbols over the eigenvalues of L but
    its structural 0, against the exact powers: scal max |f_2 / e_2 - 1|,
    vec max |f_1 / e_1 - 1| (`exact_symbols`).  syms: (f_1, f_2) of
    `symbols` on ops.spectral, when the caller has them already."""
    sp = ops.spectral
    lam, keep = sp.eigenvalues(), ~sp.null_mask
    syms = syms if syms is not None else symbols(spec, lam, ~keep)
    worst = []
    for f, e in zip(syms, exact_symbols(spec.alpha, lam, ~keep)):
        err = np.abs(f[keep] / e[keep] - 1.0)
        worst.append(float(np.max(err, initial=0.0)))
    return {"vec": worst[0], "scal": worst[1]}


def _require_collocated(ops, what: str):
    if isinstance(ops, StaggeredOperators):
        raise ValueError(f"{what} needs the collocated Operators; the "
                         "staggered scheme serves apply_P_alpha only")


def apply_P_alpha(spec: QuadratureSpec,
                  ops: Operators | StaggeredOperators,
                  v: QuatField) -> FracApplyResult:
    """P_alpha(T) v = e_1(L) T v + e_2(L) v: the exact powers of
    `exact_symbols` on the spectrum of ops.spectral, applied by
    `apply_symbols`; spec gives alpha alone.  ValueError where P_alpha is
    not defined (`require_defined`).  The hypothesis conditions are not
    checked here: a caller that needs them reads `coeff.check_conditions`
    (the CLI gates on it).  The quadrature of the paper's integral is
    `symbols` through the same `apply_symbols`, and its naive left form
    `reference_P_alpha`: `verify`'s references."""
    sp = ops.spectral
    return apply_symbols(ops, v, exact_symbols(spec.alpha, sp.eigenvalues(),
                                               sp.null_mask))


def apply_symbols(ops: Operators | StaggeredOperators, v: QuatField,
                  syms) -> FracApplyResult:
    """f_1(L) T v + f_2(L) v for syms = (f_1, f_2) on the eigenvalues of
    ops.spectral: the exact powers (`apply_P_alpha`) or the quadrature's
    node sums (`symbols`, `verify`'s right form).  The real part is kept
    (the symbols are complex where the eigenvalues of L are), and j_leak
    is 0.0.

    With `StaggeredOperators`, v must be real (its vector components zero):
    scal = f_2(L_D) v on the nodes and vec[l] = A_l f_1(L_D) v on the
    faces, which is f_1(L_l) A_l v there because A_l L_D = L_l A_l."""
    f1, f2 = syms
    sp = ops.spectral
    if isinstance(ops, StaggeredOperators):
        if np.any(v.components[1:]):
            raise ValueError("the staggered scheme serves real inputs only; "
                             "the vector components of v must be zero")
        g = ops.grid
        pre = sp.apply_symbol(f1, v.components[0])
        return FracApplyResult(
            full=None, scal=RealField(g, sp.apply_symbol(f2, v.components[0])),
            vec=tuple(FaceField(g, ax, ops.apply_A(ax, pre))
                      for ax in range(g.dims)),
            j_leak=0.0)
    comps = (sp.apply_symbol(f1, ops.apply_T(v.components))
             + sp.apply_symbol(f2, v.components))
    return _collocated_result(QuatField(v.grid, comps.real), 0.0)


def reference_P_alpha(spec: QuadratureSpec, ops: Operators, v: QuatField,
                      units) -> tuple:
    """The naive quaternionic left form of P_alpha(T) v at each imaginary
    unit j of units, one FracApplyResult per unit: the reference that
    `verify` holds the quadrature's right form (`apply_symbols` of
    `symbols`) against.  Like apply_P_alpha, it does not check the
    hypothesis conditions.

    With s_+- = -+ j t and s_+-^{alpha-1} = t^{alpha-1} e_+-, e_+- =
    cos(theta) -+ j sin(theta), the left pair of a node is
      sum_{+-} conj(s_+-) e_+- u1 - T(e_+- u1),   u1 = r(L) T v,
    evaluated quaternionically: per unit one matmul of the left tables of
    +-j e_+- and -e_l e_+- with the node sum of the rows c [t u1; A_1 u1;
    ...], which is X = [g_1(L) T v; A_1 w; ...], w = g_2(L) T v, on the
    `live` components (those where T v is nonzero).  g_1 and g_2 are summed
    over the nodes of `symbols` in the same ascending-t order
    (`_node_sums`), and both are 0 on the parity null mode T v never
    reaches.  j_leak is the max-norm gap of the pairs to their j-free
    reduction 2 sin(theta) g_1(L) T v - 2 cos(theta) T w.  The real part is
    kept, as in apply_symbols."""
    _require_collocated(ops, "reference_P_alpha")
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    sp, dims, n = ops.spectral, ops.grid.dims, ops.grid.N
    tv = ops.apply_T(v.components)
    live = np.flatnonzero(tv.reshape(4, -1).any(axis=1))
    lam, null = sp.eigenvalues(), sp.null_mask
    syms = np.where(null, 0.0, _node_sums(spec, lam, null, 1.0))
    # g_1(L) T v and w = g_2(L) T v from one pass of the factorization
    gtv, w = np.zeros((2, *tv.shape))
    gtv[live], w[live] = sp.apply_symbol(syms[:, None], tv[live]).real
    a_w = [ops.apply_A(ax, w).reshape(4, n) for ax in range(dims)]
    gtv = gtv.reshape(4, n)
    red = 2.0 * sin_t * gtv - 2.0 * cos_t * sum_T(a_w)
    x = np.concatenate([gtv[live], *(a[live] for a in a_w)])

    def table(sign, j, e):
        # conj(s) e u1 - T(e u1) = sign (j e)(t u1) - sum_l (e_l e)(A_l u1)
        mats = [sign * left_mult_table(qmul(j.direction, e))]
        mats += [-left_mult_table(qmul(e_l, e)) for e_l in (E1, E2, E3)]
        return np.concatenate([m[:, live] for m in mats[:1 + dims]], axis=1)

    out = []
    for j in units:
        # the s_+ and s_- half lines, conj(s_+-) = +-t j
        pairs = (table(1.0, j, Quaternion(cos_t) + j.scale(-sin_t)) @ x
                 + table(-1.0, j, Quaternion(cos_t) + j.scale(sin_t)) @ x)
        leak = float(np.max(np.abs(pairs - red))) / TWO_PI
        full = QuatField(v.grid, (-1.0 / TWO_PI * pairs).reshape(tv.shape))
        out.append(_collocated_result(full, leak))
    return tuple(out)


def _collocated_result(full: QuatField, leak: float) -> FracApplyResult:
    return FracApplyResult(full=full, scal=full.component(0),
                           vec=tuple(full.component(i) for i in (1, 2, 3)),
                           j_leak=leak)


def build_matrix(spec: QuadratureSpec, ops: Operators) -> np.ndarray:
    """The dense F = e_1(L), the vector power of `exact_symbols`, as an
    (N, N) array: e_1 applied once to the identity (its rows are the basis
    fields, so the result is the transposed matrix); spec gives alpha
    alone.  The flux channel of P_alpha on a real v is then vec[l] = F A_l
    v.  It needs the collocated scheme, N within the dense cap of
    `Operators` and a positive coefficient set; it does not check the
    hypothesis conditions."""
    _require_collocated(ops, "build_matrix")
    ops._check_dense()
    g = ops.grid
    if not ops.is_positive:
        raise ValueError("build_matrix needs coefficients positive at every "
                         "node: its matrix is a symbol of the nonnegative "
                         "spectrum of L")
    sp = ops.spectral
    e1, _ = exact_symbols(spec.alpha, sp.eigenvalues(), sp.null_mask)
    basis = np.eye(g.N).reshape(g.N, *g.n)
    return sp.apply_symbol(e1, basis).reshape(g.N, g.N).T
