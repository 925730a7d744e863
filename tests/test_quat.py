import math

import numpy as np
import pytest

from sfrac.quat import (E1, E2, E3, ImaginaryUnit, J_E1, ONE, Quaternion,
                        left_mul, left_mult_table, qmul, unit_from_components)


def assert_close(a: Quaternion, b: Quaternion, tol=1e-12):
    assert (a - b).modulus <= tol * max(1.0, a.modulus, b.modulus)


class TestAlgebra:
    def test_hamilton_table(self):
        assert qmul(E1, E2) == E3
        assert qmul(E2, E3) == E1
        assert qmul(E3, E1) == E2
        for e in (E1, E2, E3):
            assert qmul(e, e) == Quaternion(-1.0)

    def test_anticommutation(self):
        for a, b in ((E1, E2), (E2, E3), (E3, E1)):
            assert qmul(a, b) == -qmul(b, a)

    def test_difference_of_squares(self):
        # (1+e1)(1-e1) = 1 - e1^2 = 2
        p = qmul(ONE + E1, ONE - E1)
        assert p == Quaternion(2.0)

    def test_unit_imaginary_squares_to_minus_one(self):
        j = unit_from_components(1.0, 1.0, 1.0).direction
        assert_close(qmul(j, j), Quaternion(-1.0), tol=1e-15)

    def test_modulus_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = Quaternion(*rng.standard_normal(4))
            b = Quaternion(*rng.standard_normal(4))
            assert math.isclose(qmul(a, b).modulus, a.modulus * b.modulus,
                                rel_tol=1e-14)

    def test_conj_antihomomorphism(self):
        rng = np.random.default_rng(8)
        a = Quaternion(*rng.standard_normal(4))
        b = Quaternion(*rng.standard_normal(4))
        assert_close(qmul(a, b).conj, qmul(b.conj, a.conj), tol=1e-15)

    def test_conj_times_self_is_modulus_squared(self):
        q = Quaternion(1.0, -2.0, 3.0, 0.5)
        assert_close(qmul(q.conj, q), Quaternion(q.modulus ** 2), tol=1e-15)


class TestImaginaryUnit:
    def test_rejects_scalar_part(self):
        with pytest.raises(ValueError):
            ImaginaryUnit(Quaternion(0.1, 1.0, 0.0, 0.0))

    def test_rejects_wrong_modulus(self):
        with pytest.raises(ValueError):
            ImaginaryUnit(Quaternion(0.0, 0.5, 0.0, 0.0))

    def test_renormalizes_subulp_residue(self):
        j = unit_from_components(1.0, 1.0, 1.0)
        sq = qmul(j.direction, j.direction)
        assert abs(sq.w + 1.0) < 5e-16 and sq.imag_norm < 5e-16

    def test_scale(self):
        assert J_E1.scale(-2.5) == Quaternion(0, -2.5, 0, 0)


class TestLeftMultTable:
    def test_identity(self):
        assert np.array_equal(left_mult_table(ONE), np.eye(4))

    def test_e1_action(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(left_mult_table(E1) @ v,
                              np.array([-2.0, 1.0, -4.0, 3.0]))

    def test_representation_property(self):
        assert np.array_equal(left_mult_table(E1) @ left_mult_table(E2),
                              left_mult_table(E3))

    def test_transpose_is_conjugate(self):
        q = Quaternion(0.5, -1.0, 2.0, 0.25)
        assert np.array_equal(left_mult_table(q).T, left_mult_table(q.conj))

    def test_matches_qmul(self):
        rng = np.random.default_rng(21)
        u = Quaternion(*rng.standard_normal(4))
        v = Quaternion(*rng.standard_normal(4))
        assert np.allclose(left_mult_table(u) @ v.components(),
                           qmul(u, v).components(), atol=1e-15)

    def test_accepts_imaginary_unit(self):
        assert np.array_equal(left_mult_table(J_E1), left_mult_table(E1))


class TestLeftMul:
    """left_mul on stacks against qmul point by point, which shares no
    array kernel with it."""

    @staticmethod
    def per_point(u, arr):
        moved = np.moveaxis(arr, 0, -1)
        ref = np.array([qmul(u, Quaternion(*p)).components()
                        for p in moved.reshape(-1, 4)])
        return np.moveaxis(ref.reshape(moved.shape), -1, 0)

    # each stack is drawn with its components on axis `axis` and moved to
    # the front, so the cases past axis 0 are non-contiguous inputs
    @pytest.mark.parametrize("axis, shape", [
        (0, (4, 6)), (0, (4, 3, 5)), (1, (7, 4, 9)), (1, (5, 4, 3, 2)),
        (1, (3, 4, 2, 3, 2)), (2, (2, 3, 4, 5))])
    def test_matches_qmul_per_point(self, axis, shape):
        rng = np.random.default_rng(17)
        arr = np.moveaxis(rng.standard_normal(shape), axis, 0)
        general = Quaternion(*rng.standard_normal(4))
        out = left_mul(general, arr)
        assert out.shape == arr.shape
        # the 4x4 product may fuse multiply and add, qmul does not
        tol = 8 * np.finfo(float).eps * general.modulus * np.max(np.abs(arr))
        assert np.max(np.abs(out - self.per_point(general, arr))) <= tol
        # an axis unit only permutes and negates components: exact
        for unit in (J_E1, E2, E3 * -1.0):
            q = unit.direction if isinstance(unit, ImaginaryUnit) else unit
            assert np.array_equal(left_mul(unit, arr),
                                  self.per_point(q, arr))
