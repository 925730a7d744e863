"""Box domains, interior grids, quaternion-valued grid functions, and the
discrete operators: per-axis first derivatives D_l, coefficient operators
A_l = diag(a_l) D_l, the vector operator T = sum_l e_l A_l, and the
pseudo-resolvent Q_s = |s|^2 I - sum_l A_l^2.

A_l^2 always means composing the discrete A_l with itself.  That choice makes
Q = T^2 + |s|^2 an exact identity of the discrete algebra (T^2 really is the
scalar operator -sum A_l^2, cross terms cancel through exact matrix
commutation), so every resolvent identity downstream is exact rather than
O(h^2).  The price: the composed second difference is wide (stride 2h).  On
grids with every n_l odd it has an exact null vector — the alternating
tensor pattern zeta = (1,0,1,...) ⊗ ... — because the centered stencil never
couples the two index parities.  Both facts are load-bearing for the solver
layer, which deflates that mode analytically.

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
everything else (quaternion inputs, the resolvent workspaces, `build_matrix`,
evolution and the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coeff import CoefficientProfile, constant_profile
from .quat import Quaternion, left_mult_table

_E_TABLES = [left_mult_table(q) for q in
              (Quaternion(1.0), Quaternion(0, 1, 0, 0),
               Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1))]

DEFAULT_CAPS = {1: (2048,), 2: (128, 128), 3: (24, 24, 24)}
# largest N for a dense N x N matrix: the build_matrix/evolve operators, the
# dense L and LU of Q_s that serve coefficient sets with a sample <= 0, and
# test references; positive sets take their spectrum from the factorization
DENSE_CAP = 5000


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

    def __init__(self, domain: BoxDomain, n, enforce_caps: bool = True):
        self.domain = domain
        self.n = tuple(int(v) for v in (n if hasattr(n, "__len__") else (n,)))
        if len(self.n) != domain.dims:
            raise ValueError("one interior count per axis required")
        if any(v < 1 for v in self.n):
            raise ValueError("interior counts must be >= 1")
        if enforce_caps:
            caps = DEFAULT_CAPS[domain.dims]
            if any(v > c for v, c in zip(self.n, caps)):
                raise ValueError(
                    f"grid {self.n} exceeds the desk-scale cap {caps}; "
                    "pass enforce_caps=False to override")
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

    def node_coordinates(self) -> np.ndarray:
        """(N, dims) array in lexicographic (C-order) node order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @cached_property
    def has_parity_null(self) -> bool:
        """True iff the composed second difference annihilates the alternating
        tensor pattern exactly — happens exactly when every n_l is odd."""
        return all(v % 2 == 1 for v in self.n)

    @cached_property
    def parity_null_vector(self) -> np.ndarray | None:
        """The exact null pattern zeta (unnormalized), or None."""
        if not self.has_parity_null:
            return None
        zeta = 1.0
        for v in self.n:
            axis = np.zeros(v)
            axis[::2] = 1.0
            zeta = np.multiply.outer(zeta, axis)
        return np.asarray(zeta)

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.n == other.n
                and self.domain.lengths == other.domain.lengths)

    def __hash__(self):
        return hash((self.n, self.domain.lengths))

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
        table = left_mult_table(q)
        return QuatField(self.grid, np.einsum("ab,b...->a...", table,
                                              self.components))


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


def lincomb(coeffs, fields) -> QuatField:
    acc = np.zeros_like(fields[0].components)
    for c, f in zip(coeffs, fields):
        acc += c * f.components
    return QuatField(fields[0].grid, acc)


# ---------------------------------------------------------------------------
# Difference operators on raw arrays (shape (..., n_1, ..., n_d); the axis
# argument below counts grid axes, the leading dimensions ride along)


def diff_axis(values: np.ndarray, grid_axis: int, h: float,
              ndim_grid: int) -> np.ndarray:
    """Central difference (u_{i+1} - u_{i-1}) / (2h) with zero ghosts."""
    ax = values.ndim - ndim_grid + grid_axis
    out = np.zeros_like(values)
    n = values.shape[ax]
    src_up = [slice(None)] * values.ndim
    src_dn = [slice(None)] * values.ndim
    dst_up = [slice(None)] * values.ndim
    dst_dn = [slice(None)] * values.ndim
    dst_up[ax] = slice(0, n - 1)   # receives u_{i+1}
    src_up[ax] = slice(1, n)
    dst_dn[ax] = slice(1, n)       # receives -u_{i-1}
    src_dn[ax] = slice(0, n - 1)
    out[tuple(dst_up)] = values[tuple(src_up)]
    out[tuple(dst_dn)] -= values[tuple(src_dn)]
    out /= (2.0 * h)
    return out


def _axis_profile_samples(grid: Grid, profile: CoefficientProfile,
                          grid_axis: int) -> np.ndarray:
    a = np.asarray(profile.a(grid.axes[grid_axis]), dtype=float)
    a = a + np.zeros(grid.n[grid_axis])
    shape = [1] * grid.dims
    shape[grid_axis] = grid.n[grid_axis]
    return a.reshape(shape)


class Operators:
    """Bundles the per-axis discrete operators for one (grid, coefficients)
    pair; all applications are matrix-free.  On positive coefficients the
    per-axis spectral factorization of L (`eigenvalues`, `apply_symbol`) is
    the one source of its spectrum: the symbols, the resolvent solves, the
    closed form and the spectrum probe all use it.  Dense materialization
    (N <= DENSE_CAP) serves a set with a sample <= 0 (the LU of Q_s, the
    spectrum probe) and test references."""

    def __init__(self, grid: Grid, profiles):
        profiles = tuple(profiles)
        if len(profiles) != grid.dims:
            raise ValueError("one coefficient profile per axis required")
        self.grid = grid
        self.profiles = profiles
        self.a_samples = tuple(_axis_profile_samples(grid, p, i)
                               for i, p in enumerate(profiles))
        self.is_constant = all(p.is_constant for p in profiles)
        # the per-axis spectral factorization of L exists only then; the
        # resolvent workspaces pick it, or a dense LU of Q_s, from this flag
        self.is_positive = all(np.min(a) > 0.0 for a in self.a_samples)

    # -- matrix-free applications (arrays shaped (..., *grid.n)) ---------
    def apply_D(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        return diff_axis(values, grid_axis, self.grid.h[grid_axis],
                         self.grid.dims)

    def apply_A(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        return self.a_samples[grid_axis] * self.apply_D(grid_axis, values)

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
        """T v = sum_l e_l * (A_l v), componentwise via the left tables, on
        quaternion arrays shaped (..., 4, *grid.n); a QuatField maps to a
        QuatField."""
        if isinstance(values, QuatField):
            return QuatField(values.grid, self.apply_T(values.components))
        idx = "xyz"[: self.grid.dims]
        mix = f"ab,...b{idx}->...a{idx}"
        acc = np.zeros_like(values)
        for ax in range(self.grid.dims):
            acc += np.einsum(mix, _E_TABLES[ax + 1], self.apply_A(ax, values))
        return acc

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
    def _factors(self) -> tuple:
        """Per axis (lambda, fwd, inv) with L = W V diag(Lambda) V^T W^{-1}.

        With r = a_l^{1/2} and W = (x)_l diag(r), W^{-1} A_l W = K_l = r D_l r
        is skew, so L = -sum A_l^2 is similar to the symmetric Kronecker sum
        of the K_l^T K_l.  One SVD per axis, K_l = U Sigma V_l^T, gives
        K_l^T K_l = V_l Sigma^2 V_l^T without squaring the condition number:
        lambda = sigma^2, fwd = V_l^T diag(1/r), inv = diag(r) V_l.  The
        kernel of an odd axis (its parity pattern, exact) gets lambda = 0.
        """
        if not self.is_positive:
            raise ValueError("the spectral factorization of L needs "
                             "coefficients positive at every node")
        out = []
        for ax in range(self.grid.dims):
            r = np.sqrt(self.a_samples[ax].reshape(-1))
            _, sigma, vt = np.linalg.svd(r[:, None] * self._axis_D(ax) * r)
            lam = sigma ** 2
            if self.grid.n[ax] % 2:
                lam[-1] = 0.0  # singular values come sorted descending
            out.append((lam, vt / r, r[:, None] * vt.T))
        return tuple(out)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues Lambda of L, shape grid.n, laid out as the coefficient
        array that `apply_symbol` scales.  Exactly 0 only at the parity null
        mode of all-odd grids."""
        lam = np.zeros(self.grid.n)
        for ax, (mu, _, _) in enumerate(self._factors):
            shape = [1] * self.grid.dims
            shape[ax] = -1
            lam = lam + mu.reshape(shape)
        return lam

    def apply_symbol(self, symbol: np.ndarray, values: np.ndarray,
                     transpose: bool = False) -> np.ndarray:
        """f(L) values (or f(L)^T values), with symbol = f(eigenvalues());
        values shaped (..., *grid.n)."""
        fwd = [f for _, f, _ in self._factors]
        inv = [i for _, _, i in self._factors]
        if transpose:  # (inv S fwd)^T = fwd^T S inv^T
            fwd, inv = [m.T for m in inv], [m.T for m in fwd]
        return _tensor_apply(inv, symbol * _tensor_apply(fwd, values))

    # -- null-mode data ----------------------------------------------------
    @cached_property
    def null_pair(self):
        """(zeta, eta): exact right/left null vectors of every A_l on all-odd
        grids (A_l zeta = 0 and eta^T A_l = 0 in exact arithmetic, eta =
        zeta / prod_l a_l), or None.  Q_s maps zeta to |s|^2 zeta exactly."""
        zeta = self.grid.parity_null_vector
        if zeta is None:
            return None
        denom = np.ones(self.grid.n)
        for ax in range(self.grid.dims):
            denom = denom * self.a_samples[ax]
        return zeta, zeta / denom


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
    column of U_l spans its null space (eigenvalue 0).  `apply_symbol` applies
    any function of L_D or L_l through those factors.
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
    def _svd(self) -> tuple:
        """Per axis (sigma^2, U, V) of S_l = a_f^{1/2} D_l a_p^{1/2}."""
        out = []
        for n, h, a_p, a_f in zip(self.grid.n, self.grid.h, self.a_nodes,
                                  self.a_faces):
            d = np.diff(np.eye(n), axis=0, prepend=0.0, append=0.0) / h
            s = np.sqrt(a_f)[:, None] * d * np.sqrt(a_p)[None, :]
            u, sigma, vt = np.linalg.svd(s)
            out.append((sigma ** 2, u, vt.T))
        return tuple(out)

    def _factors(self, face_axis: int | None):
        """Per axis (eigenvalues, forward map, inverse map) of one family."""
        out = []
        for ax, (sigma2, u, v) in enumerate(self._svd):
            if ax == face_axis:
                root = np.sqrt(self.a_faces[ax])
                out.append((np.append(sigma2, 0.0), u.T / root,
                            root[:, None] * u))
            else:
                root = np.sqrt(self.a_nodes[ax])
                out.append((sigma2, v.T / root, root[:, None] * v))
        return out

    def eigenvalues(self, face_axis: int | None = None) -> np.ndarray:
        """Eigenvalues of L_D (or of L_l on the faces normal to face_axis),
        laid out as the coefficient array that `apply_symbol` scales."""
        lam = 0.0
        for ax, (mu, _, _) in enumerate(self._factors(face_axis)):
            lam = lam + self._along(mu, ax)
        return np.asarray(lam)

    def apply_symbol(self, symbol: np.ndarray, values: np.ndarray,
                     face_axis: int | None = None) -> np.ndarray:
        """f(L_D) values (or f(L_l) on the faces normal to face_axis), with
        symbol = f(eigenvalues(face_axis)); values shaped (..., *grid)."""
        factors = self._factors(face_axis)
        out = _tensor_apply([fwd for _, fwd, _ in factors], values)
        return _tensor_apply([inv for _, _, inv in factors], symbol * out)


def _tensor_apply(mats, values: np.ndarray) -> np.ndarray:
    """Apply mats[l] along grid axis l of values shaped (..., *grid)."""
    dims = len(mats)
    for ax, m in enumerate(mats):
        values = np.moveaxis(np.tensordot(m, values, axes=([1], [ax - dims])),
                             0, ax - dims)
    return values


# ---------------------------------------------------------------------------
# Pseudo-resolvent assembly


class LinearSystem:
    """Q = |s|^2 I - sum_l A_l^2, acting componentwise on quaternion fields.

    Equals the matrix of T^2 + |s|^2 on each component exactly; for purely
    imaginary s the commutative-calculus polynomial s^2 I + sum A_l^2 is the
    negative of this matrix up to rounding in |s|^2 (s^2 = -|s|^2 there).
    """

    def __init__(self, ops: Operators, s_mod_sq: float):
        self.ops = ops
        self.grid = ops.grid
        self.t2 = float(s_mod_sq)

    def matvec(self, values: np.ndarray) -> np.ndarray:
        return self.t2 * values + self.ops.apply_L(values)

    def dense(self) -> np.ndarray:
        return self.t2 * np.eye(self.grid.N) + self.ops.dense_L()


def assemble_Q(ops: Operators, s: Quaternion) -> LinearSystem:
    """Pseudo-resolvent system at a purely imaginary s (Re(s) = 0, s != 0)."""
    if s.w != 0.0:
        raise ValueError("Q_s assembly restricted to purely imaginary s")
    m2 = s.x * s.x + s.y * s.y + s.z * s.z
    if m2 == 0.0:
        raise ValueError("s must be nonzero")
    return LinearSystem(ops, m2)


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
