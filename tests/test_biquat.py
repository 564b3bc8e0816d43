"""Algebra of complex quaternions against the basis multiplication table."""

import numpy as np
import pytest

from riccati3d.biquat import (
    Biquaternion,
    _inverse,
    _product,
    E1,
    E2,
    E3,
    ONE,
    conj_h,
    cross,
    inverse,
    max_component_diff,
    modulus_sq,
    mul,
    right_mul,
)
from riccati3d.errors import ZeroDivisor

EPS = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
BASIS = [ONE, E1, E2, E3]


def test_basis_table_exhaustive():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            got = mul(BASIS[p], BASIS[q])
            if p == q:
                expect = Biquaternion(-1)
            elif (p, q) in EPS:
                expect = BASIS[EPS[(p, q)]]
            else:
                expect = -BASIS[EPS[(q, p)]]
            assert max_component_diff(got, expect) == 0.0


def test_e1e2_is_e3():
    assert mul(E1, E2) == E3


def test_one_plus_e1_times_one_minus_e1():
    out = mul(ONE + E1, ONE - E1)
    assert max_component_diff(out, Biquaternion(2)) == 0.0


def test_conjugate_of_e2():
    assert conj_h(E2) == -E2


def test_scalar_vector_split_reassembles():
    x = Biquaternion(1 + 2j, 3, 4 - 1j, 5j)
    rebuilt = Biquaternion.from_scalar_vector(x.scalar, x.vector)
    assert rebuilt == x


def test_modulus_of_zero_divisor_vanishes():
    z = Biquaternion(1j, 1)          # i + e1
    assert modulus_sq(z) == 0
    assert modulus_sq(Biquaternion(2, 0, 0, 3)) == pytest.approx(13)


def test_modulus_is_product_with_conjugate():
    x = Biquaternion(1 + 1j, 2, -3j, 0.5)
    prod = mul(x, conj_h(x))
    assert prod.q0 == pytest.approx(modulus_sq(x))
    assert max(abs(prod.q1), abs(prod.q2), abs(prod.q3)) < 1e-15


def test_inverse_values():
    assert max_component_diff(inverse(E1), -E1) == 0.0
    assert max_component_diff(inverse(Biquaternion(2)), Biquaternion(0.5)) == 0.0
    x = Biquaternion(1.5, -0.3 + 1j, 0.7, 2j)
    assert max_component_diff(mul(x, inverse(x)), ONE) < 1e-12
    assert max_component_diff(mul(inverse(x), x), ONE) < 1e-12


def test_zero_divisor_rejected_at_any_scale():
    for scale in (1.0, 1e-8, 1e8):
        with pytest.raises(ZeroDivisor):
            inverse(scale * Biquaternion(1j, 1))


def test_batched_inverse_names_every_zero_divisor():
    # columns: invertible, the zero divisor i + e1, invertible, zero
    A = np.array([[2, 1j, 1.5, 0], [0, 1, -0.3 + 1j, 0], [0, 0, 0.7, 0], [0, 0, 2j, 0]],
                 dtype=complex)
    with pytest.raises(ZeroDivisor) as err:
        _inverse(A)
    assert err.value.index == 1
    assert err.value.where.tolist() == [False, True, False, True]
    assert str(err.value) == "biquaternion has (near-)zero modulus |a|^2 = 0j"
    with pytest.raises(ZeroDivisor) as err:
        inverse(Biquaternion(1j, 1))
    assert str(err.value) == "biquaternion has (near-)zero modulus |a|^2 = 0j"
    assert err.value.where is None


def test_batched_bodies_match_the_biquaternion_ops():
    rng = np.random.default_rng(4)
    A, B = rng.uniform(-1, 1, (2, 4, 50)) + 1j * rng.uniform(-1, 1, (2, 4, 50))
    prod, inv = np.array(_product(A, B)), np.array(_inverse(A))
    for i in range(50):
        a, b = Biquaternion(*A[:, i]), Biquaternion(*B[:, i])
        # numpy's complex products and quotients may round differently from
        # Python's: measured at most 5e-16 and 9e-16 (relative) here
        assert max_component_diff(Biquaternion(*prod[:, i]), mul(a, b)) <= 2e-15
        assert max_component_diff(Biquaternion(*inv[:, i]), inverse(a)) <= (
            4e-15 * inverse(a).max_abs())


def test_right_mul_differs_from_left():
    m = right_mul(E1)
    assert m(E2) == -E3          # e2 e1 = -e3
    assert mul(E1, E2) == E3     # e1 e2 = +e3
    y = Biquaternion(0.3, 1 - 1j, 2, 0.5j)
    assert m(ONE) == E1
    assert max_component_diff(right_mul(ONE)(y), y) == 0.0


def test_complex_unit_commutes():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vals = rng.uniform(-1, 1, 16)
        a = Biquaternion(*(complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)))
        b = Biquaternion(*(complex(vals[8 + 2 * i], vals[9 + 2 * i]) for i in range(4)))
        assert max_component_diff(mul(1j * a, b), 1j * mul(a, b)) < 1e-14


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        Biquaternion(float("nan"))
    with pytest.raises(ValueError):
        Biquaternion(0, complex(0, float("inf")))


def test_cross_product_complex_bilinear():
    a = np.array([1 + 1j, 0, 2], dtype=complex)
    b = np.array([0, 1, -1j], dtype=complex)
    got = cross(a, b)
    want = np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])
    assert np.allclose(got, want, atol=0)
