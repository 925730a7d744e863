"""Fractional power P_alpha(T) by quadrature of the S-resolvents along the
imaginary axis.

The line -jR is traversed once (t from -inf to +inf, s = -jt), and with
ds_j := ds (-j) that parameterization gives ds_j = -dt, hence the global
factor -1/(2pi).  Nodes at +-t are evaluated together; for each pair the
quaternionic integrand reduces analytically to the j-free combination

    t^{alpha-1} [ 2 sin(theta) t u1  -  2 cos(theta) u2 ],
    theta = (alpha-1) pi/2,   u1 = Q_t^{-1} T v,   u2 = Q_t^{-1} T^2 v,

which is how one sees that the result neither depends on the chosen j nor
leaves the scalar+vector structure for real inputs.

For separable coefficients T commutes with L = T^2 = -sum A_l^2, and
Q_t^{-1} is the symbol 1/(t^2 + lambda) of L, so the reduced pair sum over
all nodes (weights c_i, t^{alpha-1} included) collapses onto two scalar
symbols of L (`symbols`):

    P_alpha v = f_1(L) T v + f_2(L) v,
    f_1(lambda) = -(sin(theta)/pi) sum_i c_i t_i / (t_i^2 + lambda),
    f_2(lambda) =  (cos(theta)/pi) sum_i c_i lambda / (t_i^2 + lambda).

That is the production route of `apply_P_alpha` (right form, every
coefficient sample positive) and of `build_matrix`: one pass over the
eigenvalue array and two applications of the per-axis factorization of L,
whatever the node count.  Its result is the reduced form, so it cannot leak
off the j-free span.

The quaternionic node engine (`_NodeEngine`) is the reference: it solves
Q_t per node, accumulates the naive quaternionic pair sum, and reports its
gap to the reduced form as the j_leak diagnostic instead of projecting it
away.  It runs for the left form and for a coefficient set with a sample
<= 0 (where L has no spectral factorization and each Q_t gets a dense LU),
and `verify` compares it, at several j, with the symbol route.

Quadrature: the weight t^{alpha-1} is integrable but singular at 0, so the
panel [0, t_split] uses Gauss-Jacobi nodes absorbing exactly that weight.
The tail is mapped to (0, 1] by t = t_split/u, where the transformed
integrand carries the endpoint weight u^{-alpha} times a smooth factor; a
Gauss-Jacobi rule with that weight integrates it to near machine precision
(a plain Gauss-Legendre tail stalls around 1e-7 at 64 nodes because of the
u^{1-alpha} derivative singularity).

Near t = 0 the right-resolvent integrand is realized through the splitting
identity s^{alpha-1}(s S_R^{-1}(s,T) v - v); the equivalent bounded form

    s^{alpha-1} ( -Q_t^{-1}(T^2 v) - s Q_t^{-1}(T v) )

is what is evaluated (the raw identity would feed Q^{-1} the unfiltered v,
whose parity-null component is amplified by 1/t^2 on all-odd grids; T v and
T^2 v are exactly orthogonal to that mode, so this form stays clean, and
f_1 is set to 0 on that mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .coeff import check_conditions
from .errors import ConditionsFailed
from .grid import (DENSE_CAP, FaceField, Grid, Operators, QuatField,
                   RealField, StaggeredOperators)
from .quat import ImaginaryUnit, J_E1, Quaternion, left_mult_table, qmul
from .resolvent import ResolventWorkspace

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the Balakrishnan quadrature.

    The near-zero integrand form is fixed to the splitting identity; only
    node counts, the panel split point and the imaginary unit vary.
    """

    alpha: float
    j: ImaginaryUnit = J_E1
    t_split: float = 1.0
    n_sing: int = 64
    n_tail: int = 64

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in the open interval (0, 1)")
        if self.n_sing < 4 or self.n_tail < 4:
            raise ValueError("node counts must be >= 4")
        if self.t_split <= 0.0:
            raise ValueError("t_split must be positive")


@dataclass(frozen=True)
class FracApplyResult:
    """P_alpha(T) v split into channels.

    With the collocated `Operators` (the default): full = scal + sum_l
    vec[l] e_l componentwise by construction, with three vec entries; j_leak
    is the node engine's accumulated max-norm gap between the naive
    quaternionic pair sum and its analytic j-free reduction (thresholded by
    callers, not here), and 0.0 on the symbol route, which is that
    reduction.  That scheme reproduces the discrete identities exactly but
    does not converge to the continuum channels on real inputs (see the grid
    module).

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


def _panels(spec: QuadratureSpec):
    """(t_near, w_near_absorbed, t_tail, w_tail_raw), each ascending in t.

    Near panel: sum_i w_i f(t_i) ~ integral_0^ts t^{alpha-1} f(t) dt.
    Tail panel: sum_i w_i g(t_i) ~ integral_ts^inf g(t) dt for integrands
    decaying like t^{alpha-2} * (smooth in 1/t).
    """
    a = spec.alpha
    ts = spec.t_split
    x, w = roots_jacobi(spec.n_sing, 0.0, a - 1.0)
    t_near = ts * (1.0 + x) / 2.0
    w_near = w * (ts / 2.0) ** a

    x, w = roots_jacobi(spec.n_tail, 0.0, -a)
    u = (1.0 + x) / 2.0
    t_tail = ts / u
    w_tail = w * (0.5 ** (1.0 - a)) * u ** (a - 2.0) * ts
    order = np.argsort(t_tail)
    return t_near, w_near, t_tail[order], w_tail[order]


def quad_nodes(spec: QuadratureSpec) -> list:
    """All nodes ascending in t with raw weights: sum_i weight_i g(t_i)
    approximates integral_0^inf g(t) dt for the integrand family above."""
    t_near, w_near, t_tail, w_tail = _panels(spec)
    raw_near = w_near * t_near ** (1.0 - spec.alpha)
    nodes = [{"t": float(t), "weight": float(w)}
             for t, w in zip(t_near, raw_near)]
    nodes += [{"t": float(t), "weight": float(w)}
              for t, w in zip(t_tail, w_tail)]
    return nodes


def symbols(spec: QuadratureSpec, lam: np.ndarray):
    """(f_1, f_2) on the eigenvalues lam of L, with P_alpha v = f_1(L) T v +
    f_2(L) v: the reduced pair integrand summed over the nodes of spec in
    the fixed ascending-t order, the global factor -1/(2 pi) folded in.
    f_1 is 0 where lam is 0, the parity null mode that T v never reaches."""
    t_near, w_near, t_tail, w_tail = _panels(spec)
    ts = np.concatenate([t_near, t_tail])
    cs = np.concatenate([w_near, w_tail * t_tail ** (spec.alpha - 1.0)])
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    sum_u1 = np.zeros_like(lam)
    sum_u2 = np.zeros_like(lam)
    for t, c in zip(ts, cs):
        r = c / (t * t + lam)
        sum_u1 += r * t
        sum_u2 += r * lam
    f1 = np.where(lam > 0.0, -math.sin(theta) / math.pi * sum_u1, 0.0)
    return f1, math.cos(theta) / math.pi * sum_u2


def exact_symbols(alpha: float, lam: np.ndarray):
    """(e_1, e_2) = (1/2 lam^{(alpha-1)/2}, 1/2 lam^{alpha/2}) on the
    eigenvalues lam of L, the exact powers that `symbols` approximates;
    both are 0 where lam is 0, the parity null mode."""
    pos = lam > 0.0
    safe = np.where(pos, lam, 1.0)
    return (np.where(pos, 0.5 * safe ** ((alpha - 1.0) / 2.0), 0.0),
            np.where(pos, 0.5 * safe ** (alpha / 2.0), 0.0))


def quadrature_certificate(spec: QuadratureSpec,
                           ops: Operators) -> dict | None:
    """Worst relative error of the symbols over the positive eigenvalues of
    L, against the exact powers: scal max |f_2 / e_2 - 1|, vec max
    |f_1 / e_1 - 1| (`exact_symbols`).  None when a coefficient sample is
    not positive, for then L has no spectral factorization."""
    if not ops.is_positive:
        return None
    lam = ops.eigenvalues()
    lam = lam[lam > 0.0]
    f1, f2 = symbols(spec, lam)
    e1, e2 = exact_symbols(spec.alpha, lam)
    scal = np.abs(f2 / e2 - 1.0)
    vec = np.abs(f1 / e1 - 1.0)
    return {"scal": float(np.max(scal, initial=0.0)),
            "vec": float(np.max(vec, initial=0.0))}


# ---------------------------------------------------------------------------
# Reference node engine.  Fields travel as arrays shaped (4, *grid.n).


def _mix(q: Quaternion, arr: np.ndarray) -> np.ndarray:
    """Left-multiply every quaternion value of arr (4,...) by q."""
    return np.einsum("ab,b...->a...", left_mult_table(q), arr)


class _NodeEngine:
    """Per-node quaternionic quadrature: the reference route of
    apply_P_alpha (left form, or a coefficient sample <= 0)."""

    def __init__(self, spec: QuadratureSpec, ops: Operators):
        self.spec = spec
        self.ops = ops
        self.theta = (spec.alpha - 1.0) * math.pi / 2.0
        self.cos_t = math.cos(self.theta)
        self.sin_t = math.sin(self.theta)
        j = spec.j
        # unit-modulus slice factors of s_{+-}^{alpha-1} = t^{alpha-1} e_{-+}
        self.e_plus = Quaternion(self.cos_t) + j.scale(-self.sin_t)
        self.e_minus = Quaternion(self.cos_t) + j.scale(self.sin_t)
        self.jq = j
        t_near, w_near, t_tail, w_tail = _panels(spec)
        self.t_near, self.w_near = t_near, w_near
        self.t_tail, self.w_tail = t_tail, w_tail
        self.n_nodes = len(t_near) + len(t_tail)

    def _solve(self, t: float, rhs_flat: np.ndarray) -> np.ndarray:
        """Q_t^{-1} on stacked rows.  Every integrand solve has rhs in the
        range of the A_l operators (T v or T^2 v), so the parity-mode
        coefficient is exactly zero."""
        ws = ResolventWorkspace(self.ops, self.jq.scale(-t))
        return ws._solve_stack(rhs_flat, null_free_rhs=True)

    def near_contribution(self, i: int, tv: np.ndarray, lv: np.ndarray,
                          form: str):
        """Weighted pair contribution at near node i (weight absorbs
        t^{alpha-1}).  tv = T v, lv = T^2 v componentwise, shapes (4,*n)."""
        t = float(self.t_near[i])
        w = float(self.w_near[i])
        if form == "right":
            rhs = np.concatenate([tv, lv]).reshape(8, -1)
            u1, u2 = self._solve(t, rhs).reshape(2, *tv.shape)
            # naive quaternionic pair of the splitting form, t^{alpha-1} off:
            #   e_+ (-u2 - s_+ u1) + e_- (-u2 - s_- u1),  s_+- = -+ j t
            s_plus = self.jq.scale(-t)
            s_minus = self.jq.scale(t)
            g_p = _mix(self.e_plus, -u2 - _mix(s_plus, u1))
            g_m = _mix(self.e_minus, -u2 - _mix(s_minus, u1))
            naive = g_p + g_m
            reduced = 2.0 * self.sin_t * t * u1 - 2.0 * self.cos_t * u2
        else:  # left form: one solve, factor inside the resolvent argument
            u1 = self._solve(t, tv.reshape(4, -1)).reshape(tv.shape)
            tu1 = self.ops.apply_T(u1)
            naive = self._left_pair(u1, t)
            reduced = 2.0 * self.sin_t * t * u1 - 2.0 * self.cos_t * tu1
        return w * naive, w * reduced

    def tail_contribution(self, i: int, tv: np.ndarray, form: str):
        """Weighted pair contribution at tail node i (raw weight; integrand
        carries its own t^{alpha-1})."""
        t = float(self.t_tail[i])
        w = float(self.w_tail[i])
        u1 = self._solve(t, tv.reshape(4, -1)).reshape(tv.shape)
        tu1 = self.ops.apply_T(u1)
        pref = t ** (self.spec.alpha - 1.0)
        if form == "right":
            # q_+- (conj(s_+-) u1 - T u1), q_+- = t^{alpha-1} e_+-
            sb_plus = self.jq.scale(t)      # conj(-jt)
            sb_minus = self.jq.scale(-t)
            g_p = _mix(self.e_plus, _mix(sb_plus, u1) - tu1)
            g_m = _mix(self.e_minus, _mix(sb_minus, u1) - tu1)
            naive = pref * (g_p + g_m)
        else:
            naive = pref * self._left_pair(u1, t)
        reduced = pref * (2.0 * self.sin_t * t * u1
                          - 2.0 * self.cos_t * tu1)
        return w * naive, w * reduced

    def _left_pair(self, u1: np.ndarray, t: float) -> np.ndarray:
        """Naive pair of the left form with t^{alpha-1} factored off:
        sum_{+-} [ conj(s_+-) e_+- u1 - T(e_+- u1) ]."""
        sb_plus = self.jq.scale(t)
        sb_minus = self.jq.scale(-t)
        a_p = _mix(qmul(sb_plus, self.e_plus), u1) \
            - self.ops.apply_T(_mix(self.e_plus, u1))
        a_m = _mix(qmul(sb_minus, self.e_minus), u1) \
            - self.ops.apply_T(_mix(self.e_minus, u1))
        return a_p + a_m

    def run(self, v_comps: np.ndarray, form: str):
        """Accumulate all nodes for the field v_comps (4,*n).  Returns
        (result (4,*n), j_leak float).  Nodes are evaluated serially in
        ascending t and each is added as soon as it is evaluated, so the
        result is bitwise reproducible and no node result outlives its turn."""
        ops = self.ops
        tv = ops.apply_T(v_comps)
        # T^2 acts componentwise as L (cross terms cancel by exact
        # commutation); apply_L is that scalar route directly
        lv = ops.apply_L(v_comps) if form == "right" else None
        acc = np.zeros_like(v_comps)
        leak = np.zeros_like(v_comps)
        for idx in range(self.n_nodes):
            if idx < len(self.t_near):
                naive, reduced = self.near_contribution(idx, tv, lv, form)
            else:
                naive, reduced = self.tail_contribution(
                    idx - len(self.t_near), tv, form)
            acc += naive
            leak += naive - reduced
        acc *= -1.0 / TWO_PI
        leak *= -1.0 / TWO_PI
        return acc, float(np.max(np.abs(leak)))


def _require_collocated(ops, what: str):
    if isinstance(ops, StaggeredOperators):
        raise ValueError(f"{what} needs the collocated Operators; the "
                         "staggered scheme serves apply_P_alpha and the "
                         "closed form only")


def gate_conditions(ops: Operators | StaggeredOperators, report=None,
                    force: bool = False):
    """The hypothesis report of ops (the one given, else computed); raises
    ConditionsFailed when it fails and force is not set."""
    if report is None:
        report = check_conditions(ops.profiles, ops.grid.domain.lengths)
    if not report.pass_ and not force:
        raise ConditionsFailed(
            "hypothesis conditions failed; rerun with --force to override")
    return report


def apply_P_alpha(spec: QuadratureSpec,
                  ops: Operators | StaggeredOperators, v: QuatField, *,
                  form: str = "right", report=None,
                  force: bool = False) -> FracApplyResult:
    """P_alpha(T) v by quadrature of the right (default) or left Balakrishnan
    form.  The reduction order is fixed ascending in t, so results are
    bitwise reproducible.

    The right form on positive coefficients (`ops.is_positive`) takes the
    symbol route, f_1(L) T v + f_2(L) v; the left form, or a coefficient
    sample <= 0, runs the quaternionic node engine, the reference.

    With `StaggeredOperators`, v must be real (its vector components zero)
    and the symbols are applied through the per-axis factorization of that
    scheme, where both forms coincide.
    """
    if form not in ("right", "left"):
        raise ValueError("form must be 'right' or 'left'")
    gate_conditions(ops, report, force)
    if isinstance(ops, StaggeredOperators):
        return _apply_P_alpha_staggered(spec, ops, v)
    if form == "right" and ops.is_positive:
        f1, f2 = symbols(spec, ops.eigenvalues())
        comps = (ops.apply_symbol(f1, ops.apply_T(v.components))
                 + ops.apply_symbol(f2, v.components))
        leak = 0.0
    else:
        comps, leak = _NodeEngine(spec, ops).run(v.components, form)
    full = QuatField(v.grid, comps)
    scal = full.component(0)
    vec = tuple(full.component(i) for i in (1, 2, 3))
    return FracApplyResult(full=full, scal=scal, vec=vec, j_leak=leak)


def _apply_P_alpha_staggered(spec: QuadratureSpec, ops: StaggeredOperators,
                             v: QuatField) -> FracApplyResult:
    """scal = f_2(L_D) v on the nodes and vec[l] = A_l f_1(L_D) v on the
    faces, which is f_1(L_l) A_l v there because A_l L_D = L_l A_l."""
    if np.any(v.components[1:]):
        raise ValueError("the staggered scheme serves real inputs only; "
                         "the vector components of v must be zero")
    f1, f2 = symbols(spec, ops.eigenvalues())
    g = ops.grid
    scal = ops.apply_symbol(f2, v.components[0])
    pre = ops.apply_symbol(f1, v.components[0])
    vec = tuple(FaceField(g, ax, ops.apply_A(ax, pre)) for ax in range(g.dims))
    return FracApplyResult(full=None, scal=RealField(g, scal), vec=vec,
                           j_leak=0.0)


def integrand_form_gap(spec: QuadratureSpec, ops: Operators, v: QuatField,
                       t: float) -> float:
    """Relative gap at one +-t pair between the splitting-identity form and
    the Tv form of the right integrand (they are equal in exact arithmetic;
    the gap is the rounding of the Q_t solve)."""
    _require_collocated(ops, "integrand_form_gap")
    engine = _NodeEngine(spec, ops)
    tv = ops.apply_T(v.components)
    lv = ops.apply_L(v.components)
    sol = engine._solve(t, np.concatenate([tv, lv]).reshape(8, -1))
    u1, u2 = sol.reshape(2, *tv.shape)
    tu1 = ops.apply_T(u1)
    # paired forms, common factor t^{alpha-1} dropped
    split = 2 * engine.sin_t * t * u1 - 2 * engine.cos_t * u2
    tvf = 2 * engine.sin_t * t * u1 - 2 * engine.cos_t * tu1
    denom = max(float(np.max(np.abs(split))), 1e-300)
    return float(np.max(np.abs(split - tvf))) / denom


@dataclass(frozen=True)
class FracPowerOperator:
    """Dense matrix realization of the scalar and vector channels on real
    inputs; column k is P_alpha applied to the k-th canonical basis field."""

    alpha: float
    grid: Grid
    m_scal: np.ndarray
    m_vec: tuple  # one N x N block per axis
    build_tolerance: float

    def apply(self, values: np.ndarray):
        flat = values.reshape(-1)
        scal = self.m_scal @ flat
        vec = tuple(m @ flat for m in self.m_vec)
        return scal, vec


def build_matrix(spec: QuadratureSpec, ops: Operators, *,
                 build_tolerance: float = 1e-12, report=None,
                 force: bool = False) -> FracPowerOperator:
    """m_scal = f_2(L) and m_vec[l] = f_1(L) A_l, the two symbols of
    `symbols` each applied once to the identity (its rows are the basis
    fields, so the results are the transposed matrices)."""
    _require_collocated(ops, "build_matrix")
    gate_conditions(ops, report, force)
    g = ops.grid
    if g.N > DENSE_CAP:
        raise ValueError(f"dense operator build capped at N <= {DENSE_CAP}")
    if not ops.is_positive:
        raise ValueError("build_matrix needs coefficients positive at every "
                         "node: its matrices come from the spectral "
                         "factorization of L")
    f1, f2 = symbols(spec, ops.eigenvalues())
    basis = np.eye(g.N).reshape(g.N, *g.n)
    m_scal = ops.apply_symbol(f2, basis).reshape(g.N, g.N).T
    m_vec = tuple(
        ops.apply_symbol(f1, ops.apply_A(ax, basis)).reshape(g.N, g.N).T
        for ax in range(g.dims))
    return FracPowerOperator(alpha=spec.alpha, grid=g, m_scal=m_scal,
                             m_vec=m_vec, build_tolerance=build_tolerance)
