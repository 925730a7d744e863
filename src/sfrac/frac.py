"""Fractional power P_alpha(T) by quadrature of the S-resolvents along the
imaginary axis.

The line -jR is traversed once (t from -inf to +inf, s = -jt), and with
ds_j := ds (-j) that parameterization gives ds_j = -dt, hence the global
factor -1/(2pi).  Nodes at +-t are evaluated together; for each pair the
quaternionic integrand reduces analytically to the j-free combination

    t^{alpha-1} [ 2 sin(theta) t u1  -  2 cos(theta) T u1 ],
    theta = (alpha-1) pi/2,   u1 = Q_t^{-1} T v,

which is how one sees that the result neither depends on the chosen j nor
leaves the scalar+vector structure for real inputs.

For separable coefficients T commutes with L = T^2 = -sum A_l^2, and
Q_t^{-1} is the symbol 1/(t^2 + lambda) of L, so the reduced pair sum over
all nodes (weights c_i, t^{alpha-1} included) collapses onto two scalar
symbols of L (`symbols`):

    P_alpha v = f_1(L) T v + f_2(L) v,
    f_1(lambda) = -(sin(theta)/pi) sum_i c_i t_i / (t_i^2 + lambda),
    f_2(lambda) =  (cos(theta)/pi) sum_i c_i lambda / (t_i^2 + lambda).

That is the one route of the collocated `apply_P_alpha`, on every
coefficient set: one pass over the eigenvalue array and two applications
of the per-axis factorization of L, whatever the node count.  Its result is
the reduced form, so it cannot leak off the j-free span.  Where a sample
<= 0 makes lambda complex, so are the symbols, and the real part is kept.
`build_matrix` gives the evolution its one dense matrix, F = f_1(L), from
one application of f_1 to the identity; on a real v the flux channel is
vec[l] = F A_l v, and `evolve.generator` applies the stencils to F.

The quaternionic node engine (`_node_engine`) is the reference that
`verify` and the tests hold the symbol route against (`reference_P_alpha`).
It passes once over the same nodes in blocks: per block one resolvent
solve u1 = Q_t^{-1} T v, one stencil per grid axis (the A_l u1, summed to
T u1 by `sum_T`) and the reduced pairs.  u1 and T u1 do not depend on j,
so the pass serves several imaginary units: per unit it sums the naive
quaternionic pairs of the left form, and reports their gap to the reduced
pairs as the j_leak diagnostic.  Since A_l is real and acts on each
component alone, T(q u1) = sum_l (e_l q)(A_l u1) for a constant quaternion
q, so each half line is one matmul of a fixed table with the block's rows
[t u1; A_1 u1; ...], cut to the components where T v is nonzero.

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
every route.  It also refuses a real eigenvalue mu < 0: the spectral sphere
|s| = sqrt(-mu) lies on the path, and the integral does not exist.

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

Every route builds its integrand from u1 = Q_t^{-1}(T v) and T u1.  The
right-resolvent integrand s^{alpha-1}(conj(s) u1 - T u1) equals the bounded
form s^{alpha-1}(-Q_t^{-1}(T^2 v) - s u1) of the splitting identity, since
conj(s) = -s and T commutes with Q_t (the tests measure the two).  That
identity would feed Q^{-1} the unfiltered v, whose parity-null component
1/t^2 amplifies on all-odd grids; T v is exactly orthogonal to that mode,
so f_1 is 0 on it (the structural 0 of L, `AxisFactorization.null_mask`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (FaceField, Operators, QuatField, RealField,
                   StaggeredOperators, sum_T)
from .quat import E1, E2, E3, J_E1, Quaternion, left_mult_table, qmul
from .resolvent import ResolventWorkspace

TWO_PI = 2.0 * math.pi

# elements of one stack over a block of nodes: the node engine's (nodes, 4,
# N) stacks hold max(1, _BLOCK_ELEMS // (4 N)) nodes, which bounds its
# memory on the largest grids; `symbols` takes a quarter of it
_BLOCK_ELEMS = 2 ** 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the Balakrishnan quadrature: alpha and the node counts
    of the two panels (the split follows the spectrum, and the result does
    not depend on the imaginary unit of the path -jR).  It builds the rules
    of both panels, so an alpha too close to 0 or 1 for them raises
    ValueError here."""

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
    is the node engine's accumulated max-norm gap between the naive
    quaternionic left pair sum and its analytic j-free reduction
    (`reference_P_alpha`; thresholded by callers, not here), and 0.0 from
    `apply_P_alpha`, which sums that reduction.  That scheme reproduces the
    discrete identities exactly but does not converge to the continuum
    channels on real inputs (see the grid module).

    With `StaggeredOperators`: scal lives on the nodes and vec holds one
    `FaceField` per grid axis, on the faces normal to it, so full is None
    (the channels live on different points).  It takes the symbol route, so
    j_leak is 0.0.  Both channels converge to the continuum law: scal to
    1/2 L_D^{alpha/2} v and vec[l] to the flux 1/2 L_N^{(alpha-1)/2} d_l v.
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


def _nodes(spec: QuadratureSpec, lam: np.ndarray | None):
    """(t, c): the rule, all nodes ascending in t, with t^{alpha-1} folded
    into the weights c on both panels: sum_i c_i f(t_i) ~ integral_0^inf
    t^{alpha-1} f(t) dt for f smooth on [0, t_split] and 1/t times a smooth
    function of 1/t beyond.  The near panel is the Gauss-Jacobi rule of
    t^{alpha-1} itself; the tail, mapped by t = t_split/u, that of u^{-alpha}.
    t_split = (lambda_min lambda_max)^{1/4} over the nonzero |lam| of the
    spectrum lam, 1 when it has none or is None.  ValueError when that
    product underflows to 0 or overflows, and when a real eigenvalue lies
    below -`zero_tol`: its spectral sphere meets the path -jR."""
    a = spec.alpha
    ts = 1.0
    if lam is not None:
        tol = zero_tol(lam)
        r = np.sqrt(-lam.real[(lam.real < -tol) & (abs(lam.imag) <= tol)])
        if r.size:
            raise ValueError(
                f"the quadrature path -jR crosses {r.size} spectral sphere(s)"
                f" of T, radius {r.min():.3g} to {r.max():.3g}: P_alpha is "
                f"not defined there")
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
    ts, cs = _nodes(spec, None)
    raw = cs * ts ** (1.0 - spec.alpha)
    return [{"t": float(t), "weight": float(w)} for t, w in zip(ts, raw)]


def symbols(spec: QuadratureSpec, lam: np.ndarray, null: np.ndarray):
    """(f_1, f_2) on the eigenvalues lam of L, with P_alpha v = f_1(L) T v +
    f_2(L) v: the reduced pair integrand summed over the nodes of spec in
    the fixed ascending-t order (split by lam), the factor -1/(2 pi) folded
    in; complex where lam is.  f_1 is 0 where the mask null is set, at the
    structural 0 of L (`AxisFactorization.null_mask`), the parity null mode
    T v never reaches; any other 0 keeps its sum.

    The nodes go in blocks, each one np.add.reduce over the node axis
    whose first row has the sums of the blocks before added in, so every
    element is summed strictly in ascending t.  Both sums share one stack,
    so the axes after the node axis hold at least two elements: over a
    single one numpy would sum pairwise."""
    ts, cs = _nodes(spec, lam)
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    flat = np.reshape(lam, -1)
    # a quarter of the engine's bound keeps a block's stacks in cache and
    # the peak memory of a run as it was (2^16 added 1.7 MB on 9^3 grids)
    per_block = max(1, _BLOCK_ELEMS // (8 * flat.size))
    sums = np.zeros((2, flat.size), np.result_type(flat, float))
    for lo in range(0, len(ts), per_block):
        t, c = ts[lo:lo + per_block, None], cs[lo:lo + per_block, None]
        r = t * t + flat
        np.divide(c, r, out=r)
        terms = np.empty((len(t), *sums.shape), sums.dtype)
        np.multiply(r, t, out=terms[:, 0])
        np.multiply(r, flat, out=terms[:, 1])
        terms[0] += sums
        sums = np.add.reduce(terms, axis=0)
    sum_u1, sum_u2 = sums.reshape(2, *np.shape(lam))
    f1 = np.where(null, 0.0, -math.sin(theta) / math.pi * sum_u1)
    return f1, math.cos(theta) / math.pi * sum_u2


def exact_symbols(alpha: float, lam: np.ndarray, null: np.ndarray):
    """(e_1, e_2) = (1/2 lam^{(alpha-1)/2}, 1/2 lam^{alpha/2}) on the
    eigenvalues lam of L, the exact powers that `symbols` approximates, on
    the principal branch where lam is complex or below 0 (`np.emath`);
    both are 0 where the mask null is set (as in `symbols`)."""
    safe = np.where(null, 1.0, lam)
    with np.errstate(divide="ignore"):  # an exact 0 off null: e_1 = inf
        return tuple(np.where(null, 0.0, 0.5 * np.emath.power(safe, p))
                     for p in ((alpha - 1.0) / 2.0, alpha / 2.0))


def quadrature_certificate(spec: QuadratureSpec, ops: Operators,
                           syms=None) -> dict:
    """Worst relative error of the symbols over the eigenvalues of L but
    its structural 0, against the exact powers: scal max |f_2 / e_2 - 1|,
    vec max |f_1 / e_1 - 1| (`exact_symbols`); an exact 0 elsewhere adds 0
    to scal (both vanish) and 1 to vec (e_1 is infinite).  syms: (f_1,
    f_2) of `symbols` on ops.spectral, when the caller has them already."""
    sp = ops.spectral
    lam, keep = sp.eigenvalues(), ~sp.null_mask
    syms = syms if syms is not None else symbols(spec, lam, ~keep)
    worst = []
    for f, e in zip(syms, exact_symbols(spec.alpha, lam, ~keep)):
        with np.errstate(divide="ignore", invalid="ignore"):
            err = np.where(f == e, 0.0, np.abs(f / e - 1.0))[keep]
        worst.append(float(np.max(err, initial=0.0)))
    return {"vec": worst[0], "scal": worst[1]}


# ---------------------------------------------------------------------------
# Quaternionic node engine.  Fields travel as arrays shaped (4, *grid.n), a
# block of nodes as stacks shaped (nodes, 4, N), the rows of its tables'
# matmul component first.

def _node_engine(spec: QuadratureSpec, ops: Operators, comps: np.ndarray,
                 units):
    """Per-node quaternionic quadrature of comps (4,*n) in the left form,
    the route of reference_P_alpha.  Returns [(left (4,*n), j_leak float)
    per imaginary unit j of units].

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
    _BLOCK_ELEMS): one resolvent solve and one stencil per grid axis for
    all nodes of a block, then the reduction and per unit the two half
    lines, added and summed node by node (np.add.reduce over the node
    axis).  Blocks are added in order, so the result is bitwise
    reproducible."""
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    shape, dims, n = comps.shape, ops.grid.dims, ops.grid.N
    tv = ops.apply_T(comps).reshape(4, n)
    live = np.flatnonzero(tv.any(axis=1))
    ts, cs = _nodes(spec, ops.spectral.eigenvalues())
    per_block = max(1, _BLOCK_ELEMS // (4 * n))

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
        ws = ResolventWorkspace(ops, [J_E1.scale(-tk) for tk in t])
        u1 = ws._solve_stack(tv, null_free_rhs=True).reshape(k, *shape)
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
        a *= -1.0 / TWO_PI
    return [(a.reshape(shape), float(np.max(np.abs(g))))
            for a, g in zip(acc, leak)]


def _require_collocated(ops, what: str):
    if isinstance(ops, StaggeredOperators):
        raise ValueError(f"{what} needs the collocated Operators; the "
                         "staggered scheme serves apply_P_alpha and the "
                         "closed form only")


def apply_P_alpha(spec: QuadratureSpec,
                  ops: Operators | StaggeredOperators, v: QuatField, *,
                  syms=None) -> FracApplyResult:
    """P_alpha(T) v by quadrature of the right Balakrishnan form, summed as
    its j-free reduction, so j_leak is 0.0.  The reduction order is fixed
    ascending in t, so results are bitwise reproducible.  The hypothesis
    conditions are not checked here: a caller that needs them reads
    `coeff.check_conditions` (the CLI gates on it).

    On every coefficient set it is the symbol route, f_1(L) T v + f_2(L) v
    through ops.spectral, with syms = (f_1, f_2) of `symbols` there when
    the caller has them already; the real part is kept (the symbols are
    complex where the eigenvalues of L are).  ValueError when a spectral
    sphere meets the path (`_nodes`), and when a sample is 0 on the parity
    null pattern, which leaves that mode no left null vector
    (`Operators.null_pair`) to keep T v off it.  The naive left form is
    `reference_P_alpha`.

    With `StaggeredOperators`, v must be real (its vector components zero)
    and the symbols are applied through the per-axis factorization of that
    scheme, where both forms coincide.
    """
    if isinstance(ops, StaggeredOperators):
        return _apply_P_alpha_staggered(spec, ops, v)
    ops.null_pair  # ValueError on a 0 sample on the parity null pattern
    sp = ops.spectral
    f1, f2 = (syms if syms is not None
              else symbols(spec, sp.eigenvalues(), sp.null_mask))
    comps = (sp.apply_symbol(f1, ops.apply_T(v.components))
             + sp.apply_symbol(f2, v.components))
    return _collocated_result(QuatField(v.grid, comps.real), 0.0)


def reference_P_alpha(spec: QuadratureSpec, ops: Operators, v: QuatField,
                      units) -> tuple:
    """The left form of P_alpha(T) v by the node engine at each imaginary
    unit of units, one FracApplyResult per unit, from one pass over the
    nodes (one Q_t solve per node for all units): the reference that
    `verify` holds the symbol route against.  Like apply_P_alpha, it does
    not check the hypothesis conditions."""
    _require_collocated(ops, "reference_P_alpha")
    return tuple(_collocated_result(QuatField(v.grid, comps), leak)
                 for comps, leak in _node_engine(spec, ops, v.components,
                                                 units))


def _collocated_result(full: QuatField, leak: float) -> FracApplyResult:
    return FracApplyResult(full=full, scal=full.component(0),
                           vec=tuple(full.component(i) for i in (1, 2, 3)),
                           j_leak=leak)


def _apply_P_alpha_staggered(spec: QuadratureSpec, ops: StaggeredOperators,
                             v: QuatField) -> FracApplyResult:
    """scal = f_2(L_D) v on the nodes and vec[l] = A_l f_1(L_D) v on the
    faces, which is f_1(L_l) A_l v there because A_l L_D = L_l A_l."""
    if np.any(v.components[1:]):
        raise ValueError("the staggered scheme serves real inputs only; "
                         "the vector components of v must be zero")
    sp = ops.spectral
    f1, f2 = symbols(spec, sp.eigenvalues(), sp.null_mask)
    g = ops.grid
    scal = sp.apply_symbol(f2, v.components[0])
    pre = sp.apply_symbol(f1, v.components[0])
    vec = tuple(FaceField(g, ax, ops.apply_A(ax, pre)) for ax in range(g.dims))
    return FracApplyResult(full=None, scal=RealField(g, scal), vec=vec,
                           j_leak=0.0)


def build_matrix(spec: QuadratureSpec, ops: Operators) -> np.ndarray:
    """The dense F = f_1(L), the vector symbol of `symbols`, as an (N, N)
    array: f_1 applied once to the identity (its rows are the basis fields,
    so the result is the transposed matrix).  The flux channel of P_alpha
    on a real v is then vec[l] = F A_l v.  It needs the collocated scheme,
    N within the dense cap of `Operators` and a positive coefficient set;
    it does not check the hypothesis conditions."""
    _require_collocated(ops, "build_matrix")
    ops._check_dense()
    g = ops.grid
    if not ops.is_positive:
        raise ValueError("build_matrix needs coefficients positive at every "
                         "node: its matrix is a symbol of the nonnegative "
                         "spectrum of L")
    sp = ops.spectral
    f1, _ = symbols(spec, sp.eigenvalues(), sp.null_mask)
    basis = np.eye(g.N).reshape(g.N, *g.n)
    return sp.apply_symbol(f1, basis).reshape(g.N, g.N).T
