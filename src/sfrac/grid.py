"""Box domains, interior grids, quaternion-valued grid functions, and the
discrete operators: per-axis first derivatives D_l, coefficient operators
A_l = diag(a_l) D_l, the vector operator T = sum_l e_l A_l and L = T^2 =
-sum_l A_l^2.  One type, `AxisFactorization`, holds every separable
spectrum of the package: the collocated L (`Operators.spectral`), the node
and face families of the staggered scheme, and the oracle's sine basis.
Both schemes take every factor from the two families of one SVD per axis
(`_axis_svd`): nodes and faces, or the collocated parity sublattices.  A
collocated set with a sample <= 0 takes the two parity blocks of each axis
from a general `eig` instead (`_axis_eig`).

A_l^2 always means composing the discrete A_l with itself.  That choice makes
Q = T^2 + |s|^2 an exact identity of the discrete algebra (T^2 really is the
scalar operator -sum A_l^2, cross terms cancel through exact matrix
commutation), so every resolvent identity downstream is exact rather than
O(h^2).  The price: the composed second difference is wide (stride 2h).  On
grids with every n_l odd it has an exact null vector — the alternating
tensor pattern zeta = (1,0,1,...) ⊗ ... — because the centered stencil never
couples the two index parities.  Both facts are load-bearing: the per-axis
factorization pins that mode's eigenvalue to exactly 0, and its mask
(`AxisFactorization.null_mask`) is the one place that knows the mode.

The collocated scheme does not converge to the continuum operator on real
inputs.  The wide stencil splits into two parity sublattices (with Neumann
ends on one of them when n_l is odd), and the vector channel sees the same
Dirichlet-type L where the continuum has the Neumann operator (d L_D = L_N d).
A sampled continuum eigenfunction therefore spreads over the discrete
spectrum, and P_alpha misses the continuum amplitudes by O(1) however fine
the grid.  `StaggeredOperators` is the scheme that converges: a mimetic
(staggered) discretization in which D_l maps the primal nodes to the faces
(i + 1/2) h_l and G_l = -D_l^T maps the faces back, so L_D = -sum A'_l A_l is
the compact 3-point operator (no parity null mode) and A_l L_D = L_l A_l holds
exactly.  It serves real inputs only; `Operators` stays the default for
everything else (quaternion inputs, the resolvent workspaces, the dense
f_1(L) of `build_matrix`, the evolution generator and the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeff import CoefficientProfile, constant_profile
from .quat import Quaternion, left_mul, left_mult_table

_E_TABLES = [left_mult_table(q) for q in
              (Quaternion(1.0), Quaternion(0, 1, 0, 0),
               Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1))]

DEFAULT_CAPS = {1: (2048,), 2: (128, 128), 3: (24, 24, 24)}
# largest N for a dense N x N matrix: f_1(L) from build_matrix and the
# evolution generator with its step maps, and test references; every other
# task takes the spectrum of L from its per-axis factorization
DENSE_CAP = 5000
# largest 1-norm condition number of the eigenvectors of an axis block on a
# set with a sample <= 0 (`_eig`): the transforms then lose at most
# about 6 of the 16 digits; 1D n = 2048 sets reach 2.4e3, a Jordan block 1e16
EIG_COND_MAX = 1e6


@dataclass(frozen=True)
class BoxDomain:
    lengths: tuple

    def __post_init__(self):
        ls = tuple(float(v) for v in self.lengths)
        if not 1 <= len(ls) <= 3:
            raise ValueError("box dimension must be 1, 2 or 3")
        if any(v <= 0 for v in ls):
            raise ValueError("box lengths must be strictly positive")
        object.__setattr__(self, "lengths", ls)

    @property
    def dims(self) -> int:
        return len(self.lengths)


class Grid:
    """Uniform interior grid: nodes x_i = i*h_l, i = 1..n_l, h_l = L_l/(n_l+1).

    Boundary values are identically zero (Dirichlet); stencils that reach
    outside read zeros.
    """

    def __init__(self, domain: BoxDomain, n):
        self.domain = domain
        self.n = tuple(int(v) for v in (n if hasattr(n, "__len__") else (n,)))
        if len(self.n) != domain.dims:
            raise ValueError("one interior count per axis required")
        if any(v < 1 for v in self.n):
            raise ValueError("interior counts must be >= 1")
        caps = DEFAULT_CAPS[domain.dims]
        if any(v > c for v, c in zip(self.n, caps)):
            raise ValueError(f"grid {self.n} exceeds the desk-scale cap "
                             f"{caps}")
        self.h = tuple(L / (v + 1) for L, v in zip(domain.lengths, self.n))
        self.N = int(np.prod(self.n))

    @property
    def dims(self) -> int:
        return self.domain.dims

    @cached_property
    def axes(self) -> tuple:
        """Interior coordinates per axis."""
        return tuple(np.arange(1, v + 1) * h for v, h in zip(self.n, self.h))

    @cached_property
    def dual_axes(self) -> tuple:
        """Face coordinates per axis: (i + 1/2) h_l, i = 0..n_l."""
        return tuple((np.arange(v + 1) + 0.5) * h
                     for v, h in zip(self.n, self.h))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @cached_property
    def has_parity_null(self) -> bool:
        """True iff the composed second difference annihilates the alternating
        tensor pattern exactly — happens exactly when every n_l is odd."""
        return all(v % 2 == 1 for v in self.n)

    def __repr__(self):
        return f"Grid(n={self.n}, lengths={self.domain.lengths})"


# ---------------------------------------------------------------------------
# Fields


class RealField:
    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape == (grid.N,):
            values = values.reshape(grid.n)
        if values.shape != grid.n:
            raise ValueError(f"values shape {values.shape} != grid {grid.n}")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(grid.n))

    @classmethod
    def from_function(cls, grid: Grid, f):
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        return cls(grid, np.asarray(f(*mesh), dtype=float) + np.zeros(grid.n))

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def l2(self) -> float:
        return math.sqrt(self.grid.cell_volume * float(np.sum(self.values ** 2)))


class QuatField:
    """Quaternion-valued grid function; components[c] is the real field along
    (1, e1, e2, e3)[c].  L^2 norms carry the cell-volume weight."""

    def __init__(self, grid: Grid, components: np.ndarray):
        components = np.asarray(components, dtype=float)
        if components.shape != (4, *grid.n):
            raise ValueError(
                f"components shape {components.shape} != (4, *{grid.n})")
        self.grid = grid
        self.components = components

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros((4, *grid.n)))

    @classmethod
    def from_real(cls, field: RealField):
        c = np.zeros((4, *field.grid.n))
        c[0] = field.values
        return cls(field.grid, c)

    @classmethod
    def from_components(cls, grid: Grid, q0=None, q1=None, q2=None, q3=None):
        c = np.zeros((4, *grid.n))
        for i, v in enumerate((q0, q1, q2, q3)):
            if v is not None:
                c[i] = np.asarray(v, dtype=float).reshape(grid.n)
        return cls(grid, c)

    def component(self, i: int) -> RealField:
        return RealField(self.grid, self.components[i])

    def l2(self) -> float:
        return math.sqrt(self.grid.cell_volume
                         * float(np.sum(self.components ** 2)))

    def __add__(self, other):
        return QuatField(self.grid, self.components + other.components)

    def __sub__(self, other):
        return QuatField(self.grid, self.components - other.components)

    def __mul__(self, c: float):
        return QuatField(self.grid, self.components * c)

    __rmul__ = __mul__

    def left_mul(self, q: Quaternion) -> "QuatField":
        """Pointwise left multiplication by a constant quaternion."""
        return QuatField(self.grid, left_mul(q, self.components))


class FaceField:
    """Real values on the faces normal to one grid axis: that axis sits at
    the dual coordinates grid.dual_axes[axis] (n + 1 points), the others at
    the primal nodes.  The vector channel of the staggered scheme lives here."""

    def __init__(self, grid: Grid, axis: int, values: np.ndarray):
        shape = list(grid.n)
        shape[axis] += 1
        values = np.asarray(values, dtype=float)
        if values.shape != tuple(shape):
            raise ValueError(f"values shape {values.shape} != faces "
                             f"{tuple(shape)}")
        self.grid = grid
        self.axis = axis
        self.values = values

    @property
    def axes(self) -> tuple:
        """Coordinates per axis of the points where the values live."""
        axes = list(self.grid.axes)
        axes[self.axis] = self.grid.dual_axes[self.axis]
        return tuple(axes)

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


# ---------------------------------------------------------------------------
# Difference operators on raw arrays (shape (..., n_1, ..., n_d); the axis
# argument below counts grid axes, the leading dimensions ride along)


def diff_axis(values: np.ndarray, grid_axis: int, h: float,
              ndim_grid: int) -> np.ndarray:
    """Central difference (u_{i+1} - u_{i-1}) / (2h) with zero ghosts: the
    interior, the first cell (u_1) and the last (0 - u_{n-2}) are written
    straight into the output."""
    ax = values.ndim - ndim_grid + grid_axis
    if values.shape[ax] == 1:
        return np.zeros_like(values)
    values = np.ascontiguousarray(values)
    out = np.empty_like(values)
    # in C order the neighbours along ax sit `step` elements away, so one
    # subtraction over the flat arrays gives every interior cell; the first
    # and last cell of each line are overwritten after it
    step = math.prod(values.shape[ax + 1:])
    flat, out_flat = values.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * step:], flat[:-2 * step],
                out=out_flat[step:out_flat.size - step])
    lead = (slice(None),) * ax
    out[lead + (slice(1),)] = values[lead + (slice(1, 2),)]
    # not np.negative: with out= on strided operands (numpy 2.4.6, e.g. the
    # last axis of a (4, 7, 8) array) it returns wrong values; 0 - u also
    # keeps the last cell +0 where u_{n-2} is +0
    np.subtract(0.0, values[lead + (slice(-2, -1),)],
                out=out[lead + (slice(-1, None),)])
    out /= 2.0 * h
    return out


def _axis_profile_samples(grid: Grid, profile: CoefficientProfile,
                          grid_axis: int) -> np.ndarray:
    a = np.asarray(profile.a(grid.axes[grid_axis]), dtype=float)
    a = a + np.zeros(grid.n[grid_axis])
    shape = [1] * grid.dims
    shape[grid_axis] = grid.n[grid_axis]
    return a.reshape(shape)


def _axis_svd(a_out: np.ndarray, d: np.ndarray, a_in: np.ndarray):
    """Both families of one SVD of S = diag(r_out) d diag(r_in) = U Sigma
    V^T, r = a^{1/2}.  S^T S = V Sigma^2 V^T and S S^T = U Sigma^2 U^T
    without squaring the condition number, so diag(r_in) S^T S diag(1/r_in)
    on the in-points and diag(r_out) S S^T diag(1/r_out) on the out-points
    have the factors (Sigma^2, V^T diag(1/r_in), diag(r_in) V) and (Sigma^2
    zero-padded to len(a_out), U^T diag(1/r_out), diag(r_out) U), returned
    in that order: the extra columns of U span the null space of S^T.  A
    sample <= 0, or a Sigma^2 that is 0 or past the largest float (a box
    too small or too large for double precision), raises ValueError.  d is
    scaled into S and V^T into the forward map in place, sparing the copies
    beside the caller's d."""
    if not (np.all(a_out > 0.0) and np.all(a_in > 0.0)):
        raise ValueError("the spectral factorization of L needs "
                         "coefficients positive at every node")
    r_out, r_in = np.sqrt(a_out), np.sqrt(a_in)
    d *= r_out[:, None]
    d *= r_in
    u, sigma, vt = np.linalg.svd(d)
    with np.errstate(over="ignore"):
        lam = sigma ** 2
    if not np.all((lam > 0.0) & (lam < math.inf)):
        raise ValueError(f"the eigenvalues of L, sigma^2 for sigma from "
                         f"{sigma.min():.3g} to {sigma.max():.3g}, underflow "
                         f"to 0 or overflow in double precision")
    inv = r_in[:, None] * vt.T
    vt /= r_in
    lam_out = np.concatenate((lam, np.zeros(len(r_out) - len(lam))))
    return (lam, vt, inv), (lam_out, u.T / r_out, r_out[:, None] * u)


def _axis_eig(a_out: np.ndarray, d: np.ndarray, a_in: np.ndarray):
    """The two parity blocks of L_l = -(diag(a) D_l)^2 for samples of any
    sign, in the order and form of `_axis_svd`: with C = diag(a_out) d and
    E = -diag(a_in) d^T, the in-points carry -E C and the out-points -C E,
    each factored by `_eig`.  On an odd axis -C E has one row more, and
    the structural 0 of the parity null mode: d^T annihilates the constant,
    its right null vector (`_eig`'s null)."""
    c = a_out[:, None] * d
    e = -(a_in[:, None] * d.T)
    return _eig(-(e @ c)), _eig(-(c @ e), null=len(a_out) > len(a_in))


def _eig(block: np.ndarray, null: bool = False):
    """(lambda, V^{-1}, V) with block = V diag(lambda) V^{-1}, from one
    general `eig`; complex where the block has complex eigenvalues.  null:
    the block maps the constant to 0, so the eigenvector nearest it is
    pinned to it, its eigenvalue to exactly 0, and both go last, where
    `_axis_svd` pads its zero.  A defective block, or eigenvectors whose
    1-norm condition number exceeds EIG_COND_MAX, raises ValueError."""
    lam, v = np.linalg.eig(block)
    if null:
        const = np.full(len(lam), len(lam) ** -0.5)
        k = int(np.argmax(np.abs(const @ v)))  # eig's columns have norm 1
        order = np.r_[:k, k + 1:len(lam), k]
        lam, v = lam[order], v[:, order]
        lam[-1], v[:, -1] = 0.0, const
    try:
        v_inv = np.linalg.inv(v)
        cond = np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1)
    except np.linalg.LinAlgError:  # exactly singular V: a Jordan block
        cond = math.inf
    if not cond <= EIG_COND_MAX:
        raise ValueError(
            f"the eigenvectors of an axis block of L have condition "
            f"number {cond:.3g}, above the bound {EIG_COND_MAX:g}")
    return lam, v_inv, v


class AxisFactorization:
    """Fast diagonalization of a Kronecker sum (Lynch, Rice and Thomas,
    Numer. Math. 6, 1964): per axis l the factor (lambda_l, fwd_l, inv_l)
    with inv_l fwd_l = I and inv_l diag(lambda_l) fwd_l the axis operator.
    The sum is then inv diag(Lambda) fwd, the transforms applied one axis
    at a time, so any function f of it is the diagonal scaling f(Lambda)
    between them.  null: the last element of Lambda is a structural 0 (the
    parity null mode of the collocated L on an all-odd grid, the null space
    of a face family in 1D), True there in `null_mask` (any other exact 0
    is a mode of its own)."""

    def __init__(self, factors, null: bool = False):
        self.factors = tuple(factors)
        self.null_mask = np.zeros([len(mu) for mu, _, _ in self.factors],
                                  bool)
        self.null_mask.reshape(-1)[-1] = null

    def eigenvalues(self) -> np.ndarray:
        """Lambda = sum_l lambda_l, laid out as the coefficient array that
        `apply_symbol` scales.  Computed once; the array is read-only."""
        return self._eigenvalues

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        lam = np.zeros([len(mu) for mu, _, _ in self.factors])
        for ax, (mu, _, _) in enumerate(self.factors):
            shape = [1] * lam.ndim
            shape[ax] = -1
            lam = lam + mu.reshape(shape)
        lam.flags.writeable = False
        return lam

    def forward(self, values: np.ndarray) -> np.ndarray:
        """The coefficients fwd values, values shaped (..., *Lambda.shape)."""
        return self._transform([f for _, f, _ in self.factors], values)

    def apply_symbol(self, symbol: np.ndarray,
                     values: np.ndarray) -> np.ndarray:
        """f(L) values, with symbol = f(eigenvalues()); values shaped (...,
        *Lambda.shape)."""
        return self._transform([i for _, _, i in self.factors],
                               symbol * self.forward(values))

    @staticmethod
    def _transform(mats, values: np.ndarray) -> np.ndarray:
        """Apply mats[l] along axis l of values, the axes of Lambda last."""
        dims = len(mats)
        for ax, m in enumerate(mats):
            values = np.moveaxis(
                np.tensordot(m, values, axes=([1], [ax - dims])), 0, ax - dims)
        return values


class Operators:
    """Bundles the per-axis discrete operators for one (grid, coefficients)
    pair; all applications are matrix-free.  The per-axis spectral
    factorization of L (`spectral`) is the one source of its spectrum on
    every coefficient set: the symbols, the resolvent solves, the closed
    form and the spectrum probe all use it.  Dense materialization
    (N <= DENSE_CAP) serves `build_matrix` and test references."""

    def __init__(self, grid: Grid, profiles):
        profiles = tuple(profiles)
        if len(profiles) != grid.dims:
            raise ValueError("one coefficient profile per axis required")
        self.grid = grid
        self.profiles = profiles
        self.a_samples = tuple(_axis_profile_samples(grid, p, i)
                               for i, p in enumerate(profiles))
        # the per-axis factorization of L is one SVD per axis then, and a
        # general eig otherwise
        self.is_positive = all(np.min(a) > 0.0 for a in self.a_samples)

    # -- matrix-free applications (arrays shaped (..., *grid.n)) ---------
    def apply_D(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        return diff_axis(values, grid_axis, self.grid.h[grid_axis],
                         self.grid.dims)

    def apply_A(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        out = self.apply_D(grid_axis, values)
        out *= self.a_samples[grid_axis]
        return out

    def apply_A_transpose(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        # (diag(a) D)^T = D^T diag(a) = -D diag(a)
        return -self.apply_D(grid_axis, self.a_samples[grid_axis] * values)

    def apply_L(self, values: np.ndarray) -> np.ndarray:
        """L = -sum_l A_l^2 (the scalar part of T^2 with the sign making it
        positive semidefinite for constant coefficients)."""
        out = np.zeros_like(values)
        for ax in range(self.grid.dims):
            out -= self.apply_A(ax, self.apply_A(ax, values))
        return out

    def apply_T(self, values):
        """T v = sum_l e_l * (A_l v) (`sum_T`) on quaternion arrays shaped
        (..., 4, *grid.n); a QuatField maps to a QuatField."""
        if isinstance(values, QuatField):
            return QuatField(values.grid, self.apply_T(values.components))
        flat = (*values.shape[:values.ndim - self.grid.dims], -1)
        return sum_T([self.apply_A(ax, values).reshape(flat)
                      for ax in range(self.grid.dims)]).reshape(values.shape)

    # -- dense materializations ------------------------------------------
    def _axis_D(self, grid_axis: int) -> np.ndarray:
        """The n_l x n_l central difference of one axis."""
        n = self.grid.n[grid_axis]
        h = self.grid.h[grid_axis]
        return (np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / (2 * h)

    def dense_D(self, grid_axis: int) -> np.ndarray:
        return self._kron_embed(self._axis_D(grid_axis), grid_axis)

    def dense_A(self, grid_axis: int) -> np.ndarray:
        a = self.a_samples[grid_axis].reshape(-1)
        return self._kron_embed(a[:, None] * self._axis_D(grid_axis), grid_axis)

    def dense_L(self) -> np.ndarray:
        self._check_dense()
        return self._dense_L_cache

    @cached_property
    def _dense_L_cache(self) -> np.ndarray:
        L = np.zeros((self.grid.N, self.grid.N))
        for ax in range(self.grid.dims):
            A = self.dense_A(ax)
            L -= A @ A
        return L

    def _kron_embed(self, m: np.ndarray, grid_axis: int) -> np.ndarray:
        self._check_dense()
        out = np.array([[1.0]])
        for ax in range(self.grid.dims):
            out = np.kron(out, m if ax == grid_axis else np.eye(self.grid.n[ax]))
        return out

    def _check_dense(self):
        if self.grid.N > DENSE_CAP:
            raise ValueError(f"dense materialization capped at N <= {DENSE_CAP}")

    # -- per-axis spectral factorization ----------------------------------
    @cached_property
    def spectral(self) -> AxisFactorization:
        """The factorization of L = W V diag(Lambda) V^T W^{-1}.

        With r = a_l^{1/2} and W = (x)_l diag(r), W^{-1} A_l W = K_l = r D_l r
        is skew, so L = -sum A_l^2 is similar to the symmetric Kronecker sum
        of the K_l^T K_l.  The centered D_l couples even nodes only to odd
        ones, so K_l^T K_l is B B^T on the even nodes and B^T B on the odd
        ones, B = K_l[0::2, 1::2]: one `_axis_svd` of B per axis, its two
        families scattered into the transforms by parity.  Each positive
        lambda comes once per sublattice, and the null space of B^T gives an
        odd axis lambda = 0, so the eigenvalues are exactly 0 only at the
        parity null mode of all-odd grids.

        A set with a sample <= 0 has no such similarity, but L is still the
        Kronecker sum of the L_l = -(diag(a_l) D_l)^2, whose parity blocks
        `_axis_eig` factors by a general eig (complex factors where a block
        has complex eigenvalues).  It pins the structural 0 of an odd axis,
        so on every set the parity null mode is the last element of Lambda
        and exactly 0 (`null_mask`); no other eigenvalue need be 0.
        """
        factor = _axis_svd if self.is_positive else _axis_eig
        factors = []
        for ax, n in enumerate(self.grid.n):
            a = self.a_samples[ax].reshape(-1)
            (lam_o, fwd_o, inv_o), (lam_e, fwd_e, inv_e) = factor(
                a[0::2], self._axis_D(ax)[0::2, 1::2], a[1::2])
            m = len(lam_o)
            dtype = np.result_type(fwd_o, fwd_e)
            fwd, inv = np.zeros((n, n), dtype), np.zeros((n, n), dtype)
            fwd[:m, 1::2], inv[1::2, :m] = fwd_o, inv_o
            fwd[m:, 0::2], inv[0::2, m:] = fwd_e, inv_e
            factors.append((np.concatenate((lam_o, lam_e)), fwd, inv))
        return AxisFactorization(factors, self.grid.has_parity_null)


def sum_T(a_v) -> np.ndarray:
    """sum_l e_l * (A_l v) from the list a_v of the A_l v, quaternion arrays
    shaped (..., 4, N): one matmul of each left table over the components,
    added in axis order."""
    acc = _E_TABLES[1] @ a_v[0]
    for table, a in zip(_E_TABLES[2:], a_v[1:]):
        acc += table @ a
    return acc


def constant_operators(grid: Grid, value: float = 1.0) -> Operators:
    profiles = tuple(constant_profile(ax + 1, value, L)
                     for ax, L in enumerate(grid.domain.lengths))
    return Operators(grid, profiles)


class StaggeredOperators:
    """Mimetic (staggered) discretization of T for real inputs.

    Per axis, A_l = diag(a_l at faces) D_l maps primal nodes i*h_l to the
    faces (i + 1/2) h_l, with D_l the compact difference (zero ghosts), and
    A'_l = diag(a_l at nodes) G_l, G_l = -D_l^T, maps faces back.  Then

        L_D = -sum_l A'_l A_l                  on the nodes,
        L_l = -A_l A'_l - sum_{m != l} A'_m A_m on the faces normal to axis l,

    and A_l L_D = L_l A_l holds exactly: the discrete d L_D = L_N d that puts
    the flux of a Dirichlet field in the Neumann space.  L_D is the compact
    3-point operator, positive definite, with no parity null mode.

    One SVD per axis, S_l = a_f^{1/2} D_l a_p^{1/2} = U_l Sigma_l V_l^T,
    diagonalizes both families for every separable coefficient: S_l^T S_l is
    the symmetrized node operator and S_l S_l^T the face one, whose extra
    column of U_l spans its null space (eigenvalue 0).  `spectral` (the node
    family, L_D) and `face_spectral(l)` (L_l) apply any function of those
    operators through the factors.
    """

    def __init__(self, grid: Grid, profiles):
        profiles = tuple(profiles)
        if len(profiles) != grid.dims:
            raise ValueError("one coefficient profile per axis required")
        self.grid = grid
        self.profiles = profiles

        def samples(p, x):
            return np.asarray(p.a(x), dtype=float) + np.zeros(len(x))

        self.a_nodes = tuple(samples(p, x) for p, x in zip(profiles, grid.axes))
        self.a_faces = tuple(samples(p, x)
                             for p, x in zip(profiles, grid.dual_axes))

    def _along(self, vec: np.ndarray, grid_axis: int) -> np.ndarray:
        """Reshape a per-axis vector to broadcast along that grid axis."""
        return vec.reshape([-1] + [1] * (self.grid.dims - 1 - grid_axis))

    def apply_A(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        """A_l: n_l primal values along that axis to n_l + 1 face values."""
        d = np.diff(values, axis=grid_axis - self.grid.dims, prepend=0.0,
                    append=0.0) / self.grid.h[grid_axis]
        return self._along(self.a_faces[grid_axis], grid_axis) * d

    def apply_A_dual(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        """A'_l = diag(a_l) G_l: n_l + 1 face values to n_l primal values."""
        g = np.diff(values, axis=grid_axis - self.grid.dims)
        return (self._along(self.a_nodes[grid_axis], grid_axis) * g
                / self.grid.h[grid_axis])

    def apply_L(self, values: np.ndarray,
                face_axis: int | None = None) -> np.ndarray:
        """L_D on node arrays, or L_l on arrays on the faces normal to
        face_axis; shapes (..., *grid) with the grid axes last."""
        out = np.zeros_like(values)
        for ax in range(self.grid.dims):
            if ax == face_axis:
                out -= self.apply_A(ax, self.apply_A_dual(ax, values))
            else:
                out -= self.apply_A_dual(ax, self.apply_A(ax, values))
        return out

    @cached_property
    def _svds(self) -> tuple:
        """Per axis `_axis_svd` of S_l = a_f^{1/2} D_l a_p^{1/2}: the node
        and the face family."""
        return tuple(
            _axis_svd(a_f,
                      np.diff(np.eye(n), axis=0, prepend=0.0, append=0.0) / h,
                      a_p)
            for n, h, a_p, a_f in zip(self.grid.n, self.grid.h, self.a_nodes,
                                      self.a_faces))

    @cached_property
    def spectral(self) -> AxisFactorization:
        """The node family: the factorization of L_D."""
        return AxisFactorization(node for node, _ in self._svds)

    def face_spectral(self, grid_axis: int) -> AxisFactorization:
        """The face family of that axis: the factorization of L_l on the
        faces normal to it, with the null space of S_l S_l^T (the extra
        column of U_l) at eigenvalue 0."""
        factors = list(self.spectral.factors)
        factors[grid_axis] = self._svds[grid_axis][1]
        return AxisFactorization(factors, self.grid.dims == 1)


# ---------------------------------------------------------------------------
# Norms


def norms(field: QuatField, ops: Operators | None = None) -> dict:
    """l2, the derivative seminorm sum_l ||D_l u||^2 over all components, and
    the H^1 norm they induce (h1^2 = l2^2 + d_norm^2)."""
    if ops is None:
        ops = constant_operators(field.grid)
    vol = field.grid.cell_volume
    l2_sq = vol * float(np.sum(field.components ** 2))
    d_sq = 0.0
    for ax in range(field.grid.dims):
        d = ops.apply_D(ax, field.components)
        d_sq += vol * float(np.sum(d ** 2))
    return {"l2": math.sqrt(l2_sq), "d_norm": math.sqrt(d_sq),
            "h1": math.sqrt(l2_sq + d_sq)}
