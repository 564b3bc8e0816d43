"""Lie point symmetries of the spatial Riccati equation (real slice).

The ten-parameter generator, the single determining equation on the
potential q, the invariant-potential families, the one-parameter group
actions G_1..G_10 and transported solutions.  This module operates on real
u, v, w, q and rejects complex inputs.

Transport conventions: ``pushforward_solution`` is the generic (and
normative) transport: it acts on (point, value) pairs through the group and
its inverse.  ``transport_solution`` produces the closed-form transported
fields; for the conical groups (k = 8, 9, 10) the published displays are
ambiguous about which coordinates the value-transform lines refer to and
carry two typographical slips, so the default reading ("reconciled")
evaluates those lines at the pre-image point, which reproduces the
pushforward exactly.  ``literal_text=True`` keeps the query-point reading
and the slips, for discrepancy reporting.

Batches: ``group_act`` takes one point with Q of shape (3,), or a Point3 of
equal-shape arrays (shape S) with Q of shape (3, *S).  The transported
fields and the invariant potentials are vectorized (see the ``fields``
module), so ``F.batch`` calls each once, and their excluded-set
predicates broadcast, as every predicate must.  One body serves a point and a
batch: the on-axis (``_AXIS_TOL``) and pole (``_POLE_TOL``) cases are masks,
every denominator is replaced by 1.0 where it is not used before anything
is divided, and dot and matrix products take the same BLAS call per point
(``riccati._dot``, ``_matvec``), so a batch gives the pointwise values bit
for bit.  A PoleError names the first point whose denominator vanishes
(``index``) and every such point (``where``), with the message the call at
that point alone raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, NonRealPotential, PoleError
from .fields import (
    DEFAULT_SCHEME,
    BoxDomain,
    DiffScheme,
    Point3,
    ScalarField,
    VectorField,
    _batched,
    _first,
    _item,
    grad,
)
from .riccati import _dot

__all__ = [
    "GeneratorParams",
    "GroupElement",
    "alpha",
    "c_pairing",
    "vhat_apply",
    "determining_residual",
    "invariant_potential",
    "group_act",
    "transport_solution",
    "pushforward_solution",
    "single_parameter",
    "rotation_matrix",
]

_AXIS_TOL = 1e-14  # |y^2 + z^2| at or below this counts as on-axis
_POLE_TOL = 1e-14


@dataclass(frozen=True)
class GeneratorParams:
    """Coefficients a1..a10 of the general symmetry generator."""

    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    a5: float = 0.0
    a6: float = 0.0
    a7: float = 0.0
    a8: float = 0.0
    a9: float = 0.0
    a10: float = 0.0


@dataclass(frozen=True)
class GroupElement:
    """One-parameter group member: label k in 1..10 and real parameter lambda."""

    k: int
    lam: float

    def __post_init__(self):
        if not 1 <= self.k <= 10:
            raise ValueError(f"group label k = {self.k} outside 1..10")
        if not math.isfinite(self.lam):
            raise ValueError(f"group parameter lambda must be finite, got {self.lam!r}")

    def inverse(self) -> "GroupElement":
        return GroupElement(self.k, -self.lam)


def single_parameter(k: int) -> GeneratorParams:
    """GeneratorParams whose flow is exactly the printed group G_k.

    The printed rotation groups G_4..G_6 flow along the negatives of the
    tabulated vector fields, hence the sign flips here.
    """
    table = {
        1: {"a9": 1.0},
        2: {"a10": 1.0},
        3: {"a8": 1.0},
        4: {"a7": -1.0},
        5: {"a4": 1.0},
        6: {"a6": -1.0},
        7: {"a5": 1.0},
        8: {"a1": 1.0},
        9: {"a2": 1.0},
        10: {"a3": 1.0},
    }
    return GeneratorParams(**table[k])


def alpha(x: float, r: float, lam: float) -> float:
    """alpha(x, r, lambda) = r^2 lambda^2 - 2 x lambda + 1.

    Off the x-axis the discriminant 4x^2 - 4r^2 is negative, so alpha has no
    real roots there.
    """
    return r * r * lam * lam - 2.0 * x * lam + 1.0


def c_pairing(x, y) -> float:
    """c(x, y) = 1 - 2 <x, y>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 - 2.0 * float(x @ y)


def _as_real_vector(Qval) -> np.ndarray:
    """Q as real floats, component axis first: shape (3,) at one point,
    (3, *S) for a batch.  ValueError where an imaginary part exceeds
    1e-10 * max(1, largest component modulus) at its point."""
    arr = np.asarray(Qval)
    if np.iscomplexobj(arr):
        scale = np.fmax(1.0, np.abs(arr).max(axis=0))
        if (np.abs(arr.imag).max(axis=0) > 1e-10 * scale).any():
            raise ValueError("symmetry module operates on real-valued Q")
        arr = arr.real
    return np.asarray(arr, dtype=float)


def vhat_apply(params: GeneratorParams, p: Point3, Qval) -> Tuple[float, ...]:
    """Evaluate the ten-parameter generator: (xi, eta, tau, phi, psi, zeta)."""
    x, y, z = Point3(*p)
    u, v, w = _as_real_vector(Qval)
    a = params
    dil = 1.0 - 2.0 * (x * u + y * v + z * w)
    xi = (a.a1 * (x * x - (y * y + z * z)) + 2 * a.a2 * x * y + 2 * a.a3 * x * z
          - a.a4 * z + a.a5 * x - a.a6 * y + a.a9)
    eta = (2 * a.a1 * x * y + a.a2 * (y * y - (x * x + z * z)) + 2 * a.a3 * y * z
           + a.a5 * y + a.a6 * x - a.a7 * z + a.a10)
    tau = (2 * a.a1 * x * z + 2 * a.a2 * y * z + a.a3 * (z * z - (x * x + y * y))
           + a.a4 * x + a.a5 * z + a.a7 * y + a.a8)
    phi = (a.a1 * dil + 2 * a.a2 * (x * v - y * u) + 2 * a.a3 * (x * w - z * u)
           - a.a4 * w - a.a5 * u - a.a6 * v)
    psi = (2 * a.a1 * (y * u - x * v) + a.a2 * dil - 2 * a.a3 * (z * v - y * w)
           - a.a5 * v + a.a6 * u - a.a7 * w)
    zeta = (2 * a.a1 * (z * u - x * w) + 2 * a.a2 * (z * v - y * w) + a.a3 * dil
            + a.a4 * u - a.a5 * w + a.a7 * v)
    return (xi, eta, tau, phi, psi, zeta)


def determining_residual(params: GeneratorParams, q: ScalarField, p: Point3,
                         scheme: DiffScheme = DEFAULT_SCHEME) -> float:
    """Left side of the remaining determining equation on the potential q.

    Zero exactly when the generator with these parameters is a symmetry for
    this q.  The potential must be real-valued.
    """
    p = Point3(*p)
    x, y, z = p
    a = params

    def _real(value: complex, what: str) -> float:
        if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
            raise NonRealPotential(f"{what} has imaginary part {value.imag} at {p}")
        return value.real

    qv = _real(q(p), "q")
    qx, qy, qz = (_real(g, "grad q") for g in grad(q, p, scheme))

    coef_x = (a.a1 * (y * y + z * z - x * x) - 2 * a.a2 * x * y - 2 * a.a3 * x * z
              + a.a4 * z - a.a5 * x + a.a6 * y - a.a9)
    coef_y = (-2 * a.a1 * x * y + a.a2 * (x * x + z * z - y * y) - 2 * a.a3 * y * z
              - a.a5 * y - a.a6 * x + a.a7 * z - a.a10)
    coef_z = (-2 * a.a1 * x * z - 2 * a.a2 * y * z + a.a3 * (x * x + y * y - z * z)
              - a.a4 * x - a.a5 * z - a.a7 * y - a.a8)
    return (coef_x * qx + coef_y * qy + coef_z * qz
            - 2.0 * (a.a5 + 2.0 * (a.a1 * x + a.a2 * y + a.a3 * z)) * qv)


def invariant_potential(k: int, F: Callable[[float, float], float],
                        margin: float = 1e-6) -> ScalarField:
    """Potential family of the Table row k, built from a two-argument F.

    k = 1..3: F of the two coordinates transverse to the translation;
    k = 4..6: F(axis coordinate, transverse radius);
    k = 7:    x^-2 F(y/x, z/x);
    k = 8..10: r^-4 F of the two inverted coordinates (x/r^2, y/r^2, z/r^2
    without the row's own axis).

    The field is vectorized, so F must broadcast over arrays (a constant
    return is broadcast).  Rows 7..10 exclude their singular set (|x| or r at
    most ``margin``); over a batch, the DomainError raised there names the
    first singular point (``index``) and every one (``where``).
    """
    if not 1 <= k <= 10:
        raise ValueError(f"k = {k} outside 1..10")

    if k <= 6:
        axis = (k - 1) % 3
        i, j = (a for a in range(3) if a != axis)
        if k <= 3:
            return ScalarField(lambda p: F(p[i], p[j]), vectorized=True)
        return ScalarField(lambda p: F(p[axis], np.hypot(p[i], p[j])), vectorized=True)
    if k == 7:
        def eval7(p: Point3):
            x = p.x
            bad = abs(x) <= margin
            if bad is not False and (n := _first(bad)) is not None:
                raise DomainError(f"dilation potential singular at x = {_item(x, n)}",
                                  index=n, where=bad)
            return F(p.y / x, p.z / x) / (x * x)
        return ScalarField(eval7, BoxDomain.unbounded(lambda p: abs(p.x) <= margin),
                           vectorized=True)

    i, j = (a for a in range(3) if a != k - 8)

    def eval_conical(p: Point3):
        r2 = p.x * p.x + p.y * p.y + p.z * p.z
        bad = r2 <= margin * margin
        if bad is not False and (n := _first(bad)) is not None:
            raise DomainError(f"conical potential singular at r = {math.sqrt(_item(r2, n))}",
                              index=n, where=bad)
        return F(p[i] / r2, p[j] / r2) / (r2 * r2)

    return ScalarField(eval_conical, BoxDomain.unbounded(
        lambda p: p.x * p.x + p.y * p.y + p.z * p.z <= margin * margin), vectorized=True)


def rotation_matrix(k: int, lam: float) -> np.ndarray:
    """R_1, R_2, R_3 for the rotation groups k = 4, 5, 6 as printed."""
    c, s = math.cos(lam), math.sin(lam)
    if k == 4:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    if k == 5:
        return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    if k == 6:
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"rotation label {k} not in 4..6")


def _matvec(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for X of shape (3,) or (3, *S).  A batch takes the pointwise
    BLAS product once per point (a stacked matmul), so both round alike (an
    elementwise sum may not)."""
    if X.ndim == 1:
        return M @ X
    cols = np.ascontiguousarray(X.reshape(3, -1).T)[:, :, None]
    return np.matmul(M, cols)[:, :, 0].T.reshape(X.shape)


def _point(P: Point3, i: int) -> Point3:
    """Point i of a batch as a Point3 of Python floats; P itself at one point."""
    return Point3(*(_item(c, i) for c in P))


def _off_domain(domain: BoxDomain, P: Point3):
    """``not domain.ok(P)``: a bool at one point, a mask over a batch."""
    return ~domain.ok_mask(P) if _batched(P) else not domain.ok(P)


_NO_POLES = (False, False)


def _conical_act(axis: int, X: np.ndarray, Q: np.ndarray, lam: float):
    """Shared implementation of G_8 (axis=0), G_9 (axis=1), G_10 (axis=2);
    see ``_act``.  A point off the axis goes through alpha, one on it
    (``_AXIS_TOL``) moves along the axis through 1 - x*lambda."""
    o1, o2 = (i for i in range(3) if i != axis)
    off = X[o1] ** 2 + X[o2] ** 2 > _AXIS_TOL
    r2 = _dot(X, X)
    xa, ua = X[axis], Q[axis]
    c = 1.0 - 2.0 * _dot(X, Q)
    a = r2 * lam * lam - 2.0 * xa * lam + 1.0
    d = 1.0 - xa * lam
    poles = (off & (abs(a) <= _POLE_TOL), ~off & (abs(d) <= _POLE_TOL))
    # 1.0 stands in for the denominator of the other case and at a pole
    a = np.where(off & ~poles[0], a, 1.0)
    d = np.where(off | poles[1], 1.0, d)

    image = np.where(off, X / a, 0.0)
    image[axis] = np.where(off, (xa - lam * r2) / a, xa / d)
    bracket = 2.0 * ua * lam + c * lam * lam
    newQ = np.where(off, a * Q + X * bracket, Q * d * d)
    newQ[axis] = np.where(off, ua + c * lam - (r2 * ua + c * xa) * lam * lam,
                          d * (ua + lam * (1.0 - xa * ua)))
    return image, newQ, poles


def _act(g: GroupElement, X: np.ndarray, Q: np.ndarray):
    """G_k on coordinates X and real values Q, float arrays of shape (3,) or
    (3, *S): (image, new Q, poles).  ``poles`` is a pair of masks (bools at
    one point) holding where a conical group's alpha (off the axis) or
    1 - x*lambda (on it) vanishes; the image and Q there are placeholders."""
    k, lam = g.k, g.lam
    if k in (1, 2, 3):
        shifted = [X[i] + (lam if i == k - 1 else 0.0) for i in range(3)]
        return np.array(shifted), Q.copy(), _NO_POLES
    if k in (4, 5, 6):
        R = rotation_matrix(k, lam)
        return _matvec(R, X), _matvec(R, Q), _NO_POLES
    if k == 7:
        s = math.exp(lam)
        return X * s, Q / s, _NO_POLES
    return _conical_act(k - 8, X, Q, lam)


def group_act(g: GroupElement, p: Point3, Qval) -> Tuple[Point3, np.ndarray]:
    """Apply the one-parameter group G_k with parameter lambda to (p, Q(p)).

    lambda = 0 is the identity; composition is additive in lambda.  p is one
    point with Q of shape (3,), or a Point3 of equal-shape arrays of shape S
    with Q of shape (3, *S).  The conical groups raise PoleError where their
    denominators vanish, naming the first such point (``index``) and every
    one of them (``where``).
    """
    p = Point3(*p)
    image, Q, poles = _act(g, np.asarray(p, dtype=float), _as_real_vector(Qval))
    bad = poles[0] | poles[1]
    if bad is not False and (i := _first(bad)) is not None:
        what = "alpha" if _item(poles[0], i) else "1 - x*lambda"
        raise PoleError(f"{what} vanished for G_{g.k} at {_point(p, i)}, lambda={g.lam}",
                        index=i, where=bad)
    return Point3(*image), Q


def _preimage(g: GroupElement, p: Point3) -> Point3:
    return group_act(g.inverse(), p, np.zeros((3,) + np.shape(p[0])))[0]


def pushforward_solution(g: GroupElement, Q: VectorField) -> VectorField:
    """Generic transport: the value of Q at the pre-image, pushed through G_k.

    Serves as the oracle for the printed transported-solution formulas.
    """
    inverse = g.inverse()

    def eval_at(p: Point3) -> np.ndarray:
        pre = _preimage(g, p)
        return group_act(g, pre, _as_real_vector(Q.batch(pre)))[1].astype(complex)

    def excluded(p: Point3):
        X = np.asarray(p, dtype=float)
        pre, _, poles = _act(inverse, X, np.zeros_like(X))
        return poles[0] | poles[1] | _off_domain(Q.domain, Point3(*pre))

    return VectorField(eval_at, BoxDomain.unbounded(excluded), vectorized=True)


def _conical_transport(axis: int, Q: VectorField, lam: float, literal: bool):
    """Closed-form transported solution for the conical groups.

    Reconciled reading: the value-transform lines are evaluated at the
    pre-image point (and the lone alpha(-z,...) argument of the printed
    k = 8 display is read as alpha(-x,...)), which is exactly the
    pushforward.  Literal reading keeps the query-point coordinates and the
    printed axis-case forms.
    """
    o1, o2 = (i for i in range(3) if i != axis)
    # on the axis the pre-image moves along it; the literal text puts the
    # moving coordinate in the third slot whatever the axis
    slot = 2 if literal else axis

    def preimage(X: np.ndarray):
        """(pre-image, off-axis mask, |X|^2, on-axis denominator, poles).  Off
        the axis the pre-image goes through alpha(-x_a, r, lam), on it
        through 1 + x_a lam; ``poles`` holds where that vanishes, and the
        pre-image there is a placeholder."""
        off = X[o1] ** 2 + X[o2] ** 2 > _AXIS_TOL
        r2 = _dot(X, X)
        xa = X[axis]
        den = r2 * lam * lam + 2.0 * xa * lam + 1.0  # alpha(-x_a, r, lam)
        d = 1.0 + xa * lam
        poles = np.where(off, abs(den) <= _POLE_TOL, abs(d) <= _POLE_TOL)
        # 1.0 stands in for the denominator of the other case and at a pole
        den = np.where(off & ~poles, den, 1.0)
        d = np.where(off | poles, 1.0, d)
        pre = X / den
        pre[axis] = (xa + lam * r2) / den
        pre = np.where(off, pre, 0.0)
        pre[slot] = np.where(off, pre[slot], xa / d)
        return pre, off, r2, d, poles

    def eval_at(p: Point3) -> np.ndarray:
        X = np.asarray(p, dtype=float)
        pre, off, r2, d, bad = preimage(X)
        if (i := _first(bad)) is not None:
            raise PoleError(f"pre-image undefined at {_point(p, i)}, lambda={lam}",
                            index=i, where=bad)
        xa = X[axis]
        Qp = _as_real_vector(Q.batch(Point3(*pre)))

        if literal:  # query-point coordinates in the value lines, as printed
            ref, rr2 = X, r2
        else:
            ref, rr2 = pre, _dot(pre, pre)
        c = 1.0 - 2.0 * _dot(ref, Qp)
        a = rr2 * lam * lam - 2.0 * ref[axis] * lam + 1.0
        bracket = 2.0 * Qp[axis] * lam + c * lam * lam
        out_off = a * Qp + ref * bracket
        out_off[axis] = (Qp[axis] + c * (lam - ref[axis] * lam * lam)
                         - rr2 * lam * lam * Qp[axis])
        # on the axis, as printed: the prefactors use the query coordinate
        mu = 1.0 - xa * lam if literal else 1.0 / d
        out_on = mu * mu * Qp
        out_on[axis] = mu * mu * Qp[axis] + mu * lam
        return np.where(off, out_off, out_on).astype(complex)

    def excluded(p: Point3):
        pre, _, _, _, poles = preimage(np.asarray(p, dtype=float))
        return poles | _off_domain(Q.domain, Point3(*pre))

    return VectorField(eval_at, BoxDomain.unbounded(excluded), vectorized=True)


def transport_solution(g: GroupElement, Q: VectorField,
                       literal_text: bool = False) -> VectorField:
    """Closed-form transported solution for the group G_k.

    Requires Q to solve the Riccati equation for a potential of the matching
    invariant family if the result is to solve it too.  See the module
    docstring for the literal_text switch on the conical rows.
    """
    k, lam = g.k, g.lam
    if k >= 8:
        return _conical_transport(k - 8, Q, lam, literal_text)

    if k in (1, 2, 3):
        shift = np.zeros(3)
        shift[k - 1] = lam

        def preimage(p: Point3) -> Point3:
            return Point3(*(c - s for c, s in zip(p, shift)))

        def value(pre: Point3):
            return Q.batch(pre)
    elif k in (4, 5, 6):
        R = rotation_matrix(k, lam)

        def preimage(p: Point3) -> Point3:
            return Point3(*_matvec(R.T, np.asarray(p, dtype=float)))

        def value(pre: Point3):
            return _matvec(R, _as_real_vector(Q.batch(pre))).astype(complex)
    else:
        s = math.exp(-lam)

        def preimage(p: Point3) -> Point3:
            return Point3(p.x * s, p.y * s, p.z * s)

        def value(pre: Point3):
            return s * Q.batch(pre)

    return VectorField(lambda p: value(preimage(p)), BoxDomain.unbounded(
        lambda p: _off_domain(Q.domain, preimage(p))), vectorized=True)
