"""Fractional power P_alpha(T) by quadrature of the S-resolvents along the
imaginary axis.

The line -jR is traversed once (t from -inf to +inf, s = -jt), and with
ds_j := ds (-j) that parameterization gives ds_j = -dt, hence the global
factor -1/(2pi).  Nodes at +-t are evaluated together; for each pair the
quaternionic integrand reduces analytically to the j-free combination

    t^{alpha-1} [ 2 sin(theta) t u1  -  2 cos(theta) u2 ],
    theta = (alpha-1) pi/2,   u1 = Q_t^{-1} T v,   u2 = Q_t^{-1} T^2 v,

which is how one sees that the result neither depends on the chosen j nor
leaves the scalar+vector structure for real inputs.  The accumulated result
is nevertheless the naive quaternionic pair sum; the gap to the reduced form
is reported as the j_leak diagnostic instead of being projected away.

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
T^2 v are exactly orthogonal to that mode, so this form stays clean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .coeff import check_conditions
from .errors import ConditionsFailed, SolverDiverged
from .grid import (DENSE_CAP, FaceField, Grid, Operators, QuatField,
                   RealField, StaggeredOperators)
from .quat import ImaginaryUnit, J_E1, Quaternion, qmul
from .resolvent import ResolventWorkspace, SolverOptions

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
    is the accumulated max-norm gap between the naive quaternionic pair sum
    and its analytic j-free reduction (thresholded by callers, not here).
    That scheme reproduces the discrete identities exactly but does not
    converge to the continuum channels on real inputs (see the grid module).

    With `StaggeredOperators`: scal lives on the nodes and vec holds one
    `FaceField` per grid axis, on the faces normal to it, so full is None
    (the channels live on different points).  Only the j-free form is
    evaluated there, so j_leak is 0.0.  Both channels converge to the
    continuum law: scal to 1/2 L_D^{alpha/2} v and vec[l] to the flux
    1/2 L_N^{(alpha-1)/2} d_l v.
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


# ---------------------------------------------------------------------------
# Batched node evaluation.  Fields travel as arrays shaped (K, 4, *grid.n):
# leading batch, then quaternion components.


def _mix(table: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Left-multiply every quaternion value by a constant: arr (K,4,...)."""
    return np.einsum("ab,kb...->ka...", table, arr)


def _apply_T_batch(ops: Operators, arr: np.ndarray) -> np.ndarray:
    from .quat import E1, E2, E3, left_mult_table
    out = np.zeros_like(arr)
    for ax, unit in zip(range(ops.grid.dims), (E1, E2, E3)):
        out += _mix(left_mult_table(unit), ops.apply_A(ax, arr))
    return out


def _lmt(q) -> np.ndarray:
    from .quat import left_mult_table
    return left_mult_table(q)


class _NodeEngine:
    """Per-field quadrature driver; shared by apply_P_alpha and the matrix
    builder."""

    def __init__(self, spec: QuadratureSpec, ops: Operators,
                 solver: SolverOptions):
        self.spec = spec
        self.ops = ops
        self.solver = solver
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

    def node_t(self, i: int) -> float:
        k = len(self.t_near)
        return float(self.t_near[i]) if i < k else float(self.t_tail[i - k])

    def _workspace(self, t: float, node_index: int) -> ResolventWorkspace:
        s = self.jq.scale(-t)
        try:
            return ResolventWorkspace(self.ops, s, self.solver)
        except SolverDiverged as exc:  # pragma: no cover - assembly rarely fails
            raise SolverDiverged(str(exc), node_index=node_index) from exc

    def _solve(self, ws: ResolventWorkspace, rhs_flat: np.ndarray,
               node_index: int) -> np.ndarray:
        # every integrand solve has rhs in the range of the A_l operators
        # (T v or T^2 v), so the parity-mode coefficient is exactly zero
        try:
            return ws._solve_stack(rhs_flat, null_free_rhs=True)
        except SolverDiverged as exc:
            raise SolverDiverged(str(exc), node_index=node_index) from exc

    def near_contribution(self, i: int, tv: np.ndarray, lv: np.ndarray,
                          form: str):
        """Weighted pair contribution at near node i (weight absorbs
        t^{alpha-1}).  tv = T v, lv = T^2 v componentwise, shapes (K,4,*n)."""
        t = float(self.t_near[i])
        w = float(self.w_near[i])
        ws = self._workspace(t, i)
        K = tv.shape[0]
        if form == "right":
            rhs = np.concatenate([tv, lv]).reshape(2 * K * 4, -1)
            sol = self._solve(ws, rhs, i).reshape(2 * K, 4, *self.ops.grid.n)
            u1, u2 = sol[:K], sol[K:]
            # naive quaternionic pair of the splitting form, t^{alpha-1} off:
            #   e_+ (-u2 - s_+ u1) + e_- (-u2 - s_- u1),  s_+- = -+ j t
            s_plus = self.jq.scale(-t)
            s_minus = self.jq.scale(t)
            g_p = _mix(_lmt(self.e_plus), -u2 - _mix(_lmt(s_plus), u1))
            g_m = _mix(_lmt(self.e_minus), -u2 - _mix(_lmt(s_minus), u1))
            naive = g_p + g_m
            reduced = 2.0 * self.sin_t * t * u1 - 2.0 * self.cos_t * u2
        else:  # left form: one solve, factor inside the resolvent argument
            sol = self._solve(ws, tv.reshape(K * 4, -1), i)
            u1 = sol.reshape(K, 4, *self.ops.grid.n)
            tu1 = _apply_T_batch(self.ops, u1)
            naive = self._left_pair(u1, t)
            reduced = 2.0 * self.sin_t * t * u1 - 2.0 * self.cos_t * tu1
        return w * naive, w * reduced

    def tail_contribution(self, i: int, tv: np.ndarray, form: str):
        """Weighted pair contribution at tail node i (raw weight; integrand
        carries its own t^{alpha-1})."""
        t = float(self.t_tail[i])
        w = float(self.w_tail[i])
        node_index = len(self.t_near) + i
        ws = self._workspace(t, node_index)
        K = tv.shape[0]
        sol = self._solve(ws, tv.reshape(K * 4, -1), node_index)
        u1 = sol.reshape(K, 4, *self.ops.grid.n)
        tu1 = _apply_T_batch(self.ops, u1)
        pref = t ** (self.spec.alpha - 1.0)
        if form == "right":
            # q_+- (conj(s_+-) u1 - T u1), q_+- = t^{alpha-1} e_+-
            sb_plus = self.jq.scale(t)      # conj(-jt)
            sb_minus = self.jq.scale(-t)
            g_p = _mix(_lmt(self.e_plus), _mix(_lmt(sb_plus), u1) - tu1)
            g_m = _mix(_lmt(self.e_minus), _mix(_lmt(sb_minus), u1) - tu1)
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
        a_p = _mix(_lmt(qmul(sb_plus, self.e_plus)), u1) \
            - _apply_T_batch(self.ops, _mix(_lmt(self.e_plus), u1))
        a_m = _mix(_lmt(qmul(sb_minus, self.e_minus)), u1) \
            - _apply_T_batch(self.ops, _mix(_lmt(self.e_minus), u1))
        return a_p + a_m

    def run(self, v_comps: np.ndarray, form: str):
        """Accumulate all nodes for fields v_comps (K,4,*n).  Returns
        (result (K,4,*n), j_leak float).  Nodes are evaluated serially in
        ascending t and each is added as soon as it is evaluated, so the
        result is bitwise reproducible and no node result outlives its turn."""
        ops = self.ops
        tv = _apply_T_batch(ops, v_comps)
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


def _resolve_report(ops: Operators, report, force: bool):
    if report is None:
        report = getattr(ops, "_condition_report", None)
        if report is None:
            report = check_conditions(ops.profiles, ops.grid.domain.lengths)
            ops._condition_report = report
    if not report.pass_ and not force:
        raise ConditionsFailed(
            "operator hypothesis report failed (margins/K); pass force=True "
            "to compute anyway")
    return report


def apply_P_alpha(spec: QuadratureSpec,
                  ops: Operators | StaggeredOperators, v: QuatField,
                  solver: SolverOptions | None = None, *, form: str = "right",
                  report=None, force: bool = False) -> FracApplyResult:
    """P_alpha(T) v by quadrature of the right (default) or left Balakrishnan
    form.  The reduction order is fixed ascending in t, so results are
    bitwise reproducible.

    With `StaggeredOperators`, v must be real (its vector components zero)
    and the j-free integrand is evaluated through the per-axis factorization
    of that scheme, where both forms coincide; solver is unused.
    """
    if form not in ("right", "left"):
        raise ValueError("form must be 'right' or 'left'")
    _resolve_report(ops, report, force)
    if isinstance(ops, StaggeredOperators):
        return _apply_P_alpha_staggered(spec, ops, v)
    engine = _NodeEngine(spec, ops, solver or SolverOptions())
    acc, leak = engine.run(v.components[None], form)
    full = QuatField(v.grid, acc[0])
    scal = full.component(0)
    vec = tuple(full.component(i) for i in (1, 2, 3))
    return FracApplyResult(full=full, scal=scal, vec=vec, j_leak=leak)


def _apply_P_alpha_staggered(spec: QuadratureSpec, ops: StaggeredOperators,
                             v: QuatField) -> FracApplyResult:
    """The reduced pair integrand 2 sin(theta) t u1 - 2 cos(theta) u2 on the
    same nodes, with u2 = Q_t^{-1} L_D v on the nodes and u1 = Q_t^{-1} T v on
    the faces, the latter applied as A_l Q_t^{-1} v (A_l L_D = L_l A_l).
    Each Q_t^{-1} is the symbol 1/(t^2 + lambda) of the factorization."""
    if np.any(v.components[1:]):
        raise ValueError("the staggered scheme serves real inputs only; "
                         "the vector components of v must be zero")
    t_near, w_near, t_tail, w_tail = _panels(spec)
    ts = np.concatenate([t_near, t_tail])
    cs = np.concatenate([w_near, w_tail * t_tail ** (spec.alpha - 1.0)])
    theta = (spec.alpha - 1.0) * math.pi / 2.0
    lam = ops.eigenvalues()
    sym_u1 = np.zeros_like(lam)
    sym_u2 = np.zeros_like(lam)
    for t, c in zip(ts, cs):  # fixed ascending-t reduction order
        r = c / (t * t + lam)
        sym_u1 += r * t
        sym_u2 += r * lam
    # the global factor -1/(2 pi) folded into the two coefficients
    g = ops.grid
    scal = ops.apply_symbol(math.cos(theta) / math.pi * sym_u2, v.components[0])
    pre = ops.apply_symbol(-math.sin(theta) / math.pi * sym_u1, v.components[0])
    vec = tuple(FaceField(g, ax, ops.apply_A(ax, pre)) for ax in range(g.dims))
    return FracApplyResult(full=None, scal=RealField(g, scal), vec=vec,
                           j_leak=0.0)


def integrand_form_gap(spec: QuadratureSpec, ops: Operators, v: QuatField,
                       t: float, solver: SolverOptions | None = None) -> float:
    """Relative gap at one +-t pair between the splitting-identity form and
    the Tv form of the right integrand (they are equal in exact arithmetic;
    the gap scales with solver tolerance)."""
    _require_collocated(ops, "integrand_form_gap")
    engine = _NodeEngine(spec, ops, solver or SolverOptions())
    s = spec.j.scale(-t)
    ws = ResolventWorkspace(ops, s, solver or SolverOptions())
    comps = v.components[None]
    tv = _apply_T_batch(ops, comps)
    lv = ops.apply_L(comps)
    sol = ws._solve_stack(np.concatenate([tv, lv]).reshape(8, -1),
                          null_free_rhs=True)
    sol = sol.reshape(2, 4, *ops.grid.n)
    u1, u2 = sol[0][None], sol[1][None]
    tu1 = _apply_T_batch(ops, u1)
    # paired forms, common factor t^{alpha-1} dropped
    split = 2 * engine.sin_t * t * u1 - 2 * engine.cos_t * u2
    tvf = 2 * engine.sin_t * t * u1 - 2 * engine.cos_t * tu1
    denom = max(float(np.max(np.abs(split))), 1e-300)
    return float(np.max(np.abs(split - tvf))) / denom


@dataclass(frozen=True)
class FracPowerOperator:
    """Dense matrix realization of the scalar and vector channels on real
    inputs; columns are P_alpha applied to canonical basis fields."""

    alpha: float
    grid: Grid
    m_scal: np.ndarray
    m_vec: tuple  # one N x N block per axis
    build_tolerance: float
    j_leak: float

    def apply(self, values: np.ndarray):
        flat = values.reshape(-1)
        scal = self.m_scal @ flat
        vec = tuple(m @ flat for m in self.m_vec)
        return scal, vec


def build_matrix(spec: QuadratureSpec, ops: Operators,
                 solver: SolverOptions | None = None, *,
                 build_tolerance: float = 1e-12, report=None,
                 force: bool = False, chunk: int = 256) -> FracPowerOperator:
    """Columns by applying the quadrature to canonical real basis fields.

    The engine is batched across basis columns (chunked to bound memory);
    every column shares the same factorization.
    """
    _require_collocated(ops, "build_matrix")
    _resolve_report(ops, report, force)
    g = ops.grid
    if g.N > DENSE_CAP:
        raise ValueError(f"dense operator build capped at N <= {DENSE_CAP}")
    engine = _NodeEngine(spec, ops, solver or SolverOptions())
    m_scal = np.empty((g.N, g.N))
    m_vec = [np.empty((g.N, g.N)) for _ in range(g.dims)]
    worst_leak = 0.0
    for lo in range(0, g.N, chunk):
        hi = min(lo + chunk, g.N)
        K = hi - lo
        basis = np.zeros((K, 4, g.N))
        basis[np.arange(K), 0, lo + np.arange(K)] = 1.0
        acc, leak = engine.run(basis.reshape(K, 4, *g.n), "right")
        worst_leak = max(worst_leak, leak)
        flat = acc.reshape(K, 4, g.N)
        m_scal[:, lo:hi] = flat[:, 0, :].T
        for ax in range(g.dims):
            m_vec[ax][:, lo:hi] = flat[:, ax + 1, :].T
    return FracPowerOperator(alpha=spec.alpha, grid=g, m_scal=m_scal,
                             m_vec=tuple(m_vec),
                             build_tolerance=build_tolerance,
                             j_leak=worst_leak)
