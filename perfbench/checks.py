"""Output checks for every op, and the independent references they use.

The references never call into `sfrac`.  They rest on one identity: with
A_l = diag(a_l) D_l and W = (x)_l diag(a_l)^(1/2), every W^-1 A_l W =
a^(1/2) D a^(1/2) is skew, so L = -sum_l A_l^2 = W V Lambda V^T W^-1 with V
and Lambda from one symmetric eigendecomposition per axis.  That gives the
closed form of P_alpha for separable variable coefficients (scal =
1/2 L^(alpha/2) v, vec_l = 1/2 L^((alpha-1)/2) A_l v, the parity null mode
sent to zero) and the discrete spectrum of L.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import EVOLVE_SNAPSHOT_EVERY, EVOLVE_STEPS, Op, initial_values

# relative gap above which an output counts as wrong
REFERENCE_TOL = 1e-6
# eigenvalues below this share of the largest are the exact parity null mode
_NULL_CUTOFF_REL = 1e-10


class CheckFailed(Exception):
    """An artifact is missing, malformed, non-finite or wrong.  `digits`
    carries the accuracy the artifact still reports, if any; `verify_failed`
    names the checks a verify.json reports as failing."""

    def __init__(self, message: str, digits: float | None = None,
                 verify_failed: tuple = ()):
        super().__init__(message)
        self.digits = digits
        self.verify_failed = verify_failed


def digits(gap: float) -> float:
    """Correct decimal digits of a relative gap, capped at 17."""
    return -math.log10(max(gap, 1e-17))


# ---------------------------------------------------------------------------
# Reading artifacts


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from exc
    _require_finite(payload, os.path.basename(path))
    return payload


def _require_finite(obj, where: str):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _require_finite(value, f"{where}:{key}")
    elif isinstance(obj, list):
        for value in obj:
            _require_finite(value, where)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise CheckFailed(f"{where} is not finite")


def read_csv(path: str, header: str) -> np.ndarray:
    try:
        with open(path) as fh:
            first = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from exc
    if first != header:
        raise CheckFailed(f"{os.path.basename(path)}: header {first!r}")
    if not np.all(np.isfinite(rows)):
        raise CheckFailed(f"{os.path.basename(path)} has non-finite values")
    return rows


# ---------------------------------------------------------------------------
# Reference operator


def _along(mat: np.ndarray, arr: np.ndarray, grid_axis: int, dims: int):
    """Apply `mat` along one grid axis of arr shaped (..., n_1, ..., n_d)."""
    ax = arr.ndim - dims + grid_axis
    return np.moveaxis(np.tensordot(mat, arr, axes=([1], [ax])), 0, ax)


class ReferenceOperator:
    """The discrete L = -sum A_l^2 of the program, diagonalized per axis."""

    def __init__(self, n, lengths, coefficients):
        self.dims = len(n)
        self.n = tuple(n)
        self.D, self.A, self.V, roots, lams = [], [], [], [], []
        for nl, L, coeff in zip(n, lengths, coefficients):
            h = L / (nl + 1)
            x = np.arange(1, nl + 1) * h
            a = coeff.values(x)
            d = (np.eye(nl, k=1) - np.eye(nl, k=-1)) / (2.0 * h)
            r = np.sqrt(a)
            k = r[:, None] * d * r[None, :]
            lam, vec = np.linalg.eigh(k.T @ k)
            self.D.append(d)
            self.A.append(a[:, None] * d)
            self.V.append(vec)
            roots.append(r)
            lams.append(lam)
        self.w = self._outer(roots)
        self.lam = np.zeros(self.n)
        for ax, lam in enumerate(lams):
            shape = [1] * self.dims
            shape[ax] = len(lam)
            self.lam = self.lam + lam.reshape(shape)
        self.keep = self.lam > _NULL_CUTOFF_REL * float(self.lam.max())

    def _outer(self, vectors) -> np.ndarray:
        out = np.ones(())
        for v in vectors:
            out = np.multiply.outer(out, v)
        return out

    def power(self, p: float, values: np.ndarray) -> np.ndarray:
        """L^p on the complement of the null mode, for arrays (..., *n)."""
        safe = np.where(self.keep, self.lam, 1.0)
        scale = np.where(self.keep, safe ** p, 0.0)
        u = values / self.w
        for ax in range(self.dims):
            u = _along(self.V[ax].T, u, ax, self.dims)
        u = u * scale
        for ax in range(self.dims):
            u = _along(self.V[ax], u, ax, self.dims)
        return u * self.w

    def apply_A(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        return _along(self.A[grid_axis], values, grid_axis, self.dims)

    def apply_D(self, grid_axis: int, values: np.ndarray) -> np.ndarray:
        return _along(self.D[grid_axis], values, grid_axis, self.dims)

    def p_alpha(self, alpha: float, v: np.ndarray) -> np.ndarray:
        """Components (scal, vec_1, vec_2, vec_3) of P_alpha(T) v."""
        out = np.zeros((4, *self.n))
        out[0] = 0.5 * self.power(alpha / 2.0, v)
        for ax in range(self.dims):
            out[ax + 1] = 0.5 * self.power((alpha - 1.0) / 2.0,
                                           self.apply_A(ax, v))
        return out

    def spectrum_points(self) -> np.ndarray:
        """The sorted points +-sqrt(mu) over the eigenvalues mu of L."""
        r = np.sqrt(np.maximum(self.lam.reshape(-1), 0.0))
        return np.sort(np.concatenate([-r, r]))


def _reference(op: Op) -> ReferenceOperator:
    cfg = op.config
    return ReferenceOperator(cfg["grid"]["n"], cfg["domain"]["lengths"],
                             op.coefficients)


def _mesh(op: Op):
    cfg = op.config
    axes = [np.arange(1, n + 1) * L / (n + 1)
            for n, L in zip(cfg["grid"]["n"], cfg["domain"]["lengths"])]
    return np.meshgrid(*axes, indexing="ij")


def _rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


# ---------------------------------------------------------------------------
# Per-task checks.  Each returns the digits of agreement with a reference
# (None when the task has none) and raises CheckFailed on a wrong output.


def check_palpha(op: Op, out_dir: str):
    ref = _reference(op)
    rows = read_csv(os.path.join(out_dir, "fields.csv"),
                    "x1,x2,x3,q0,q1,q2,q3")
    if rows.shape != (int(np.prod(ref.n)), 7):
        raise CheckFailed(f"fields.csv has shape {rows.shape}")
    _check_report(out_dir)
    lengths = op.config["domain"]["lengths"]
    v = initial_values(_mesh(op), lengths, *op.initial)
    want = ref.p_alpha(op.config["alpha"], v).reshape(4, -1)
    gap = _rel_gap(rows[:, 3:].T, want)
    if gap > REFERENCE_TOL:
        raise CheckFailed(f"fields.csv off the closed form by {gap:.3g}")
    return digits(gap)


def check_evolve(op: Op, out_dir: str):
    """Trace shape and monotone decay, then every snapshot against the
    Crank-Nicolson map of the reference generator, raised to the snapshot
    interval by repeated squaring."""
    tcfg = op.config["time"]
    trace = read_csv(os.path.join(out_dir, "trace.csv"), "t,l2")
    if trace.shape != (EVOLVE_STEPS + 1, 2):
        raise CheckFailed(f"trace.csv has shape {trace.shape}")
    l2 = trace[:, 1]
    rises = np.flatnonzero(l2[1:] > l2[:-1] * (1.0 + 1e-12))
    if rises.size:
        raise CheckFailed(f"l2 trace increases at step {rises[0] + 1}")
    if abs(trace[-1, 0] - tcfg["t_end"]) > 1e-9 * tcfg["t_end"]:
        raise CheckFailed(f"trace ends at t={trace[-1, 0]!r}")
    _check_report(out_dir)

    snaps = []
    for j in range(EVOLVE_STEPS // EVOLVE_SNAPSHOT_EVERY + 1):
        rows = read_csv(os.path.join(out_dir, f"snap_{j}.csv"), "x1,x2,x3,v")
        snaps.append(rows[:, 3])
    if os.path.exists(os.path.join(out_dir, f"snap_{len(snaps)}.csv")):
        raise CheckFailed("more snapshots than expected")

    ref = _reference(op)
    N = int(np.prod(ref.n))
    basis = np.eye(N).reshape(N, *ref.n)
    alpha = op.config["alpha"]
    G = np.zeros((N, N))
    for ax in range(ref.dims):
        m_vec = 0.5 * ref.power((alpha - 1.0) / 2.0, ref.apply_A(ax, basis))
        G += ref.apply_D(ax, m_vec).reshape(N, N).T
    dt = tcfg["dt"]
    eye = np.eye(N)
    step = np.linalg.solve(eye - 0.5 * dt * G, eye + 0.5 * dt * G)
    jump = np.linalg.matrix_power(step, EVOLVE_SNAPSHOT_EVERY)
    x = snaps[0]
    gap = 0.0
    for snap in snaps[1:]:
        x = jump @ x
        gap = max(gap, _rel_gap(snap, x))
    if gap > REFERENCE_TOL:
        raise CheckFailed(f"snapshots off the reference evolution by {gap:.3g}")
    return digits(gap)


def _check_report(out_dir: str):
    report = read_json(os.path.join(out_dir, "report.json"))
    if report.get("pass") is not True:
        raise CheckFailed("report.json does not pass")


def check_check(op: Op, out_dir: str):
    _check_report(out_dir)
    return None


def check_spectrum(op: Op, out_dir: str):
    probe = read_json(os.path.join(out_dir, "spectrum.json"))
    points = np.asarray(probe.get("points", []), dtype=float)
    want = _reference(op).spectrum_points()
    if points.shape != want.shape:
        raise CheckFailed(f"spectrum.json has {points.size} points, "
                          f"expected {want.size}")
    if probe.get("sphere_radii"):
        raise CheckFailed("spectrum.json reports spectral spheres")
    gap = float(np.max(np.abs(points - want)) / np.max(np.abs(want)))
    if gap > REFERENCE_TOL:
        raise CheckFailed(f"spectrum points off the reference by {gap:.3g}")
    return None


def check_verify(op: Op, out_dir: str):
    """verify.json must pass; its closed-form gap, present for constant
    coefficients, gives the digits."""
    result = read_json(os.path.join(out_dir, "verify.json"))
    checks = result.get("checks", {})
    gap = checks.get("closed_form_gap", {}).get("value")
    if result.get("pass") is not True:
        failed = tuple(sorted(k for k, c in checks.items() if not c.get("pass")))
        raise CheckFailed("verify.json fails " + ",".join(failed),
                          None if gap is None else digits(gap), failed)
    return None if gap is None else digits(gap)


CHECKS = {
    "check": check_check,
    "spectrum": check_spectrum,
    "palpha": check_palpha,
    "evolve": check_evolve,
    "verify": check_verify,
}
