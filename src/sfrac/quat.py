"""Quaternion arithmetic, imaginary units and the left-multiplication table.

Conventions: Hamilton multiplication table (e1*e2 = e3, e2*e3 = e1,
e3*e1 = e2), components stored as (w, x, y, z) = scalar + e1,e2,e3 parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # -- algebra ---------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return qmul(self, _coerce(other))

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return qmul(_coerce(other), self)

    # -- structure -------------------------------------------------------
    @property
    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    @property
    def modulus(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    @property
    def imag_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def components(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __repr__(self):
        return (f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})")


def _coerce(v) -> Quaternion:
    if isinstance(v, Quaternion):
        return v
    if isinstance(v, (int, float)):
        return Quaternion(float(v))
    raise TypeError(f"cannot interpret {type(v).__name__} as quaternion")


ONE = Quaternion(1.0)
E1 = Quaternion(0.0, 1.0, 0.0, 0.0)
E2 = Quaternion(0.0, 0.0, 1.0, 0.0)
E3 = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


@dataclass(frozen=True)
class ImaginaryUnit:
    """A point of the unit 2-sphere of imaginary quaternions; squares to -1."""

    direction: Quaternion

    def __post_init__(self):
        d = self.direction
        if d.w != 0.0:
            raise ValueError("imaginary unit must have zero scalar part")
        n = d.imag_norm
        if not math.isclose(n, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"imaginary unit must have modulus 1, got {n!r}")
        if n != 1.0:  # renormalize the sub-ulp residue so direction**2 == -1
            object.__setattr__(self, "direction",
                               Quaternion(0.0, d.x / n, d.y / n, d.z / n))

    def scale(self, t: float) -> Quaternion:
        d = self.direction
        return Quaternion(0.0, d.x * t, d.y * t, d.z * t)


J_E1 = ImaginaryUnit(E1)
J_E2 = ImaginaryUnit(E2)


def unit_from_components(x: float, y: float, z: float) -> ImaginaryUnit:
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("zero vector cannot define an imaginary unit")
    return ImaginaryUnit(Quaternion(0.0, x / n, y / n, z / n))


def left_mult_table(u) -> np.ndarray:
    """4x4 real matrix M with (u*v) components = M @ (v components).

    Accepts a Quaternion or an ImaginaryUnit; covers 1, e1, e2, e3 and any
    other quaternion alike.
    """
    if isinstance(u, ImaginaryUnit):
        u = u.direction
    u = _coerce(u)
    w, x, y, z = u.w, u.x, u.y, u.z
    return np.array([
        [w, -x, -y, -z],
        [x,  w, -z,  y],
        [y,  z,  w, -x],
        [z, -y,  x,  w],
    ])


def left_mul(u, arr: np.ndarray) -> np.ndarray:
    """u * v for every quaternion value v of arr, shaped (4, ...): one
    matmul of the 4x4 table with arr, the axes after the components
    flattened."""
    return (left_mult_table(u) @ arr.reshape(4, -1)).reshape(arr.shape)
