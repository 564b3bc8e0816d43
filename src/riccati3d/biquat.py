"""Complex quaternion (biquaternion) arithmetic.

Elements of H(C) are stored as four complex coefficients of the basis
e0, e1, e2, e3 with e0 = 1 and

    e_p e_q = -delta_pq + eps_pqr e_r,      p, q, r in {1, 2, 3},

the complex unit i commuting with everything.  All operations are pure and
the values immutable, so everything here is thread-safe.

``mul``, ``conj_h`` and ``inverse`` wrap one body each over components
(``_product``, ``_conj``, ``_inverse``): four complex numbers, or the rows
of a ``(4, *S)`` array for a batch, whose complex products numpy may round
differently (its loops may fuse a multiply and an add).
"""

from __future__ import annotations

import cmath
import functools
from typing import Callable, Iterable

import numpy as np

from .errors import ZeroDivisor, _item, _raise_at

__all__ = [
    "Biquaternion",
    "ONE",
    "E1",
    "E2",
    "E3",
    "mul",
    "conj_h",
    "modulus_sq",
    "inverse",
    "right_mul",
    "max_component_diff",
]

EPS_INV = 1e-12  # inverse's zero guard, relative to the squared largest coefficient


class Biquaternion:
    """Immutable biquaternion q0 + q1 e1 + q2 e2 + q3 e3, q_i complex."""

    __slots__ = ("q0", "q1", "q2", "q3")

    def __init__(self, q0=0j, q1=0j, q2=0j, q3=0j):
        q0, q1, q2, q3 = complex(q0), complex(q1), complex(q2), complex(q3)
        if not (cmath.isfinite(q0) and cmath.isfinite(q1) and cmath.isfinite(q2)
                and cmath.isfinite(q3)):
            raise ValueError(f"non-finite biquaternion coefficients: {(q0, q1, q2, q3)}")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "q3", q3)

    def __setattr__(self, name, value):
        raise AttributeError("Biquaternion is immutable")

    # -- structure -----------------------------------------------------------

    @classmethod
    def from_scalar_vector(cls, scalar, vec) -> "Biquaternion":
        v = np.asarray(vec, dtype=complex)
        return cls(scalar, v[0], v[1], v[2])

    @classmethod
    def from_vector(cls, vec) -> "Biquaternion":
        return cls.from_scalar_vector(0j, vec)

    @property
    def scalar(self) -> complex:
        """Sc x = q0."""
        return self.q0

    @property
    def vector(self) -> np.ndarray:
        """Vec x = (q1, q2, q3) as a complex array."""
        return np.array([self.q1, self.q2, self.q3], dtype=complex)

    @property
    def components(self):
        return (self.q0, self.q1, self.q2, self.q3)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(self.q0 + other.q0, self.q1 + other.q1,
                                self.q2 + other.q2, self.q3 + other.q3)
        if isinstance(other, (int, float, complex)):
            return Biquaternion(self.q0 + other, self.q1, self.q2, self.q3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(self.q0 - other.q0, self.q1 - other.q1,
                                self.q2 - other.q2, self.q3 - other.q3)
        if isinstance(other, (int, float, complex)):
            return Biquaternion(self.q0 - other, self.q1, self.q2, self.q3)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Biquaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return mul(self, other)
        if isinstance(other, (int, float, complex)):
            return Biquaternion(self.q0 * other, self.q1 * other,
                                self.q2 * other, self.q3 * other)
        return NotImplemented

    def __rmul__(self, other):
        # complex scalars are central, so left and right scaling agree
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return Biquaternion(self.q0 / other, self.q1 / other,
                                self.q2 / other, self.q3 / other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Biquaternion):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return (f"Biquaternion({self.q0!r}, {self.q1!r}, "
                f"{self.q2!r}, {self.q3!r})")

    def max_abs(self) -> float:
        return max(abs(self.q0), abs(self.q1), abs(self.q2), abs(self.q3))


ONE = Biquaternion(1)
E1 = Biquaternion(0, 1)
E2 = Biquaternion(0, 0, 1)
E3 = Biquaternion(0, 0, 0, 1)


def _product(a, b):
    """Components of a·b from the components of a and b."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def _conj(a):
    """Components of conj_h(a)."""
    a0, a1, a2, a3 = a
    return (a0, -a1, -a2, -a3)


def _modulus_sq(a):
    a0, a1, a2, a3 = a
    return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3


def _inverse(a):
    """Components of inverse(a).  Over a batch, ZeroDivisor names the first
    element that has no inverse in ``index`` and all of them in ``where``."""
    m = _modulus_sq(a)
    size = [abs(c) for c in a]
    scale = (functools.reduce(np.maximum, size) if type(m) is np.ndarray else max(size)) ** 2
    _raise_at((scale == 0.0) | (abs(m) <= EPS_INV * scale), ZeroDivisor,
              lambda i: f"biquaternion has (near-)zero modulus |a|^2 = {_item(m, i)}")
    return tuple(c / m for c in _conj(a))


def mul(a: Biquaternion, b: Biquaternion) -> Biquaternion:
    """Biquaternion product a·b.

    Equals a0 b0 - <a, b> + a0 b_vec + b0 a_vec + a_vec x b_vec with the
    complex-bilinear inner and cross products.  Noncommutative.
    """
    return Biquaternion(*_product(a.components, b.components))


def conj_h(a: Biquaternion) -> Biquaternion:
    """Quaternionic conjugate: negate the vector part (complex parts untouched)."""
    return Biquaternion(*_conj(a.components))


def modulus_sq(a: Biquaternion) -> complex:
    """|a|^2 = a·conj_h(a) = q0^2 + q1^2 + q2^2 + q3^2, a complex number.

    Not a norm: biquaternions have zero divisors with |a|^2 = 0.
    """
    return _modulus_sq(a.components)


def inverse(a: Biquaternion) -> Biquaternion:
    """Two-sided inverse conj_h(a)/|a|^2.

    Raises ZeroDivisor when |a|^2 is smaller than EPS_INV relative to the
    squared largest coefficient, so rescaling a never flips invertibility.
    """
    return Biquaternion(*_inverse(a.components))


def right_mul(x: Biquaternion) -> Callable[[Biquaternion], Biquaternion]:
    """Operator M^x of right multiplication: M^x(y) = y·x."""
    def operator(y: Biquaternion) -> Biquaternion:
        return mul(y, x)
    return operator


def max_component_diff(a: Biquaternion, b: Biquaternion) -> float:
    """Largest absolute componentwise difference, for tolerance-based tests."""
    return (a - b).max_abs()


def cross(a: Iterable[complex], b: Iterable[complex]) -> np.ndarray:
    """Complex-bilinear cross product of two 3-vectors."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])
