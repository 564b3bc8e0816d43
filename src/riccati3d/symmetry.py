"""Lie point symmetries of the spatial Riccati equation (real slice).

The ten-parameter generator, the single determining equation on the
potential q, the invariant-potential families, the one-parameter group
actions G_1..G_10 and transported solutions.  This module operates on real
u, v, w, q and rejects complex inputs.

Transport conventions: ``pushforward_solution`` is the generic (and
normative) transport: it acts on (point, value) pairs through the group and
its inverse.  ``transport_solution`` produces the closed-form transported
fields.  Both take the pre-image g^-1(p), its poles and their excluded set
from one pull-back (``_pullback``: ``_act`` at ``g.inverse()``), so only
their value lines differ, and both raise DomainError naming the query
point where Q is not finite at a far pre-image (``_Q_at``).  For the
conical groups (k = 8, 9, 10) the published displays are ambiguous about
which coordinates the value-transform lines refer to and carry two
typographical slips, so the default reading ("reconciled") evaluates those lines at the pre-image
point, which reproduces the pushforward exactly.  ``literal_text=True``
keeps the query-point reading and the slips, for discrepancy reporting;
on the axis it also puts the pre-image's moving coordinate in the third
slot, as printed.

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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, NonRealPotential, PoleError, _item, _raise_at
from .fields import (
    DEFAULT_SCHEME,
    BoxDomain,
    DiffScheme,
    Point3,
    ScalarField,
    VectorField,
    _batched,
    _point,
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
_SINGULAR_TOL = 1e-6  # |x| or r at or below this is singular for rows 7..10


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


def _check_label(k) -> None:
    """Reject a group label that is not an int in 1..10 (a bool is not one)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= 10:
        raise ValueError(f"group label k must be an int in 1..10, got {k!r}")


@dataclass(frozen=True)
class GroupElement:
    """One-parameter group member: label k in 1..10 and real parameter lambda."""

    k: int
    lam: float

    def __post_init__(self):
        _check_label(self.k)
        if not math.isfinite(self.lam):
            raise ValueError(f"group parameter lambda must be finite, got {self.lam!r}")
        if self.k == 7:  # the dilation scales by exp(lambda) and exp(-lambda)
            try:
                math.exp(abs(self.lam))
            except OverflowError:
                raise ValueError(f"dilation parameter lambda = {self.lam!r} overflows "
                                 "exp(lambda) or exp(-lambda)") from None

    def inverse(self) -> "GroupElement":
        return GroupElement(self.k, -self.lam)


def single_parameter(k: int) -> GeneratorParams:
    """GeneratorParams whose flow is exactly the printed group G_k.

    The printed rotation groups G_4..G_6 flow along the negatives of the
    tabulated vector fields, hence the sign flips here.
    """
    _check_label(k)
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


def _real(p: Point3, what: str, *values):
    """The real parts of values (q, or the components of grad q, at p),
    unless an imaginary part exceeds 1e-12 max(1, |value|): NonRealPotential
    naming the first such point of a batch (``index``, with the first such
    value there) and every one (``where``)."""
    bad = [abs(v.imag) > 1e-12 * np.maximum(1.0, abs(v)) for v in values]

    def message(i):
        value = next(v for v, b in zip(values, bad) if _item(b, i))
        return f"{what} has imaginary part {_item(value.imag, i)} at {_point(p, i)}"

    _raise_at(functools.reduce(np.logical_or, bad), NonRealPotential, message)
    return [v.real for v in values]


def determining_residual(params: GeneratorParams, q: ScalarField, p: Point3,
                         scheme: DiffScheme = DEFAULT_SCHEME):
    """Left side of the remaining determining equation on the potential q.

    Zero exactly when the generator with these parameters is a symmetry for
    this q.  The potential must be real-valued.  A float at one point, an
    array of shape S over a batch of shape S (equal bit for bit to the
    pointwise values when q is vectorized exactly, as the invariant
    potentials are); the reality checks of q and then of grad q each run
    over the whole batch.
    """
    p = Point3(*p)
    x, y, z = p
    a = params
    qv, = _real(p, "q", q.batch(p))
    qx, qy, qz = _real(p, "grad q", *grad(q, p, scheme))
    xi, eta, tau = vhat_apply(params, p, np.zeros(3))[:3]
    return (-xi * qx - eta * qy - tau * qz
            - 2.0 * (a.a5 + 2.0 * (a.a1 * x + a.a2 * y + a.a3 * z)) * qv)


def invariant_potential(k: int, F: Callable[[float, float], float]) -> ScalarField:
    """Potential family of the Table row k, built from a two-argument F.

    k = 1..3: F of the two coordinates transverse to the translation;
    k = 4..6: F(axis coordinate, transverse radius);
    k = 7:    x^-2 F(y/x, z/x);
    k = 8..10: r^-4 F of the two inverted coordinates (x/r^2, y/r^2, z/r^2
    without the row's own axis).

    The field is vectorized, so F must broadcast over arrays (a constant
    return is broadcast).  Rows 7..10 exclude their singular set (|x| or r at
    most ``_SINGULAR_TOL``); over a batch, the DomainError raised there names
    the first singular point (``index``) and every one (``where``).
    """
    _check_label(k)
    if k <= 6:
        axis = (k - 1) % 3
        i, j = (a for a in range(3) if a != axis)
        if k <= 3:
            return ScalarField(lambda p: F(p[i], p[j]), vectorized=True)
        return ScalarField(lambda p: F(p[axis], np.hypot(p[i], p[j])), vectorized=True)
    if k == 7:
        def eval7(p: Point3):
            x = p.x
            _raise_at(abs(x) <= _SINGULAR_TOL, DomainError,
                      lambda n: f"dilation potential singular at x = {_item(x, n)}")
            return F(p.y / x, p.z / x) / (x * x)
        return ScalarField(eval7, BoxDomain.unbounded(lambda p: abs(p.x) <= _SINGULAR_TOL),
                           vectorized=True)

    i, j = (a for a in range(3) if a != k - 8)

    def eval_conical(p: Point3):
        r2 = p.x * p.x + p.y * p.y + p.z * p.z
        _raise_at(r2 <= _SINGULAR_TOL * _SINGULAR_TOL, DomainError,
                  lambda n: f"conical potential singular at r = {math.sqrt(_item(r2, n))}")
        return F(p[i] / r2, p[j] / r2) / (r2 * r2)

    return ScalarField(eval_conical, BoxDomain.unbounded(
        lambda p: p.x * p.x + p.y * p.y + p.z * p.z <= _SINGULAR_TOL * _SINGULAR_TOL),
        vectorized=True)


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


def _off_domain(domain: BoxDomain, P: Point3):
    """``not domain.ok(P)``: a bool at one point, a mask over a batch."""
    return ~domain.ok_mask(P) if _batched(P) else not domain.ok(P)


_NO_POLES = (False, False)


def _off_axis(axis: int, X: np.ndarray):
    """Where X lies off the coordinate axis ``axis`` (beyond ``_AXIS_TOL``)."""
    o1, o2 = (i for i in range(3) if i != axis)
    return X[o1] ** 2 + X[o2] ** 2 > _AXIS_TOL


def _conical_act(axis: int, X: np.ndarray, Q: np.ndarray, lam: float):
    """Shared implementation of G_8 (axis=0), G_9 (axis=1), G_10 (axis=2);
    see ``_act``.  A point off the axis goes through alpha, one on it
    (``_AXIS_TOL``) moves along the axis through 1 - x*lambda."""
    off = _off_axis(axis, X)
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
    if k in (1, 2, 3):  # the other coordinates are copied, so -0.0 stays -0.0
        image = X.copy()
        image[k - 1] += lam
        return image, Q.copy(), _NO_POLES
    if k in (4, 5, 6):
        R = rotation_matrix(k, lam)
        return _matvec(R, X), _matvec(R, Q), _NO_POLES
    with np.errstate(over="ignore", invalid="ignore"):  # callers raise where it overflowed
        if k == 7:
            s = math.exp(lam)
            return X * s, Q / s, _NO_POLES
        return _conical_act(k - 8, X, Q, lam)


def _check_finite(g: GroupElement, p: Point3, what: str, *values) -> None:
    """DomainError at the points of p where a value, (3,) or (3, *S), is not finite."""
    _raise_at(~np.all([np.isfinite(v).all(axis=0) for v in values], axis=0), DomainError,
              lambda i: f"{what} of {_point(p, i)} under G_{g.k}, lambda={g.lam}, is not finite")


def group_act(g: GroupElement, p: Point3, Qval) -> Tuple[Point3, np.ndarray]:
    """Apply the one-parameter group G_k with parameter lambda to (p, Q(p)).

    lambda = 0 is the identity; composition is additive in lambda.  p is one
    point with Q of shape (3,), or a Point3 of equal-shape arrays of shape S
    with Q of shape (3, *S).  The conical groups raise PoleError where their
    denominators vanish, naming the first such point (``index``) and every
    one of them (``where``); DomainError does so where the image or Q overflows.
    """
    p = Point3(*p)
    image, Q, poles = _act(g, np.asarray(p, dtype=float), _as_real_vector(Qval))
    _raise_at(poles[0] | poles[1], PoleError, lambda i: (
        f"{'alpha' if _item(poles[0], i) else '1 - x*lambda'} vanished for G_{g.k} "
        f"at {_point(p, i)}, lambda={g.lam}"))
    _check_finite(g, p, "image", image, Q)
    return Point3(*image), Q


def _pullback(g: GroupElement, X: np.ndarray):
    """g's pre-image of coordinates X, (3,) or (3, *S), through ``_act`` with
    g's inverse, and the mask (a bool at one point) where it is undefined;
    the pre-image there is a placeholder."""
    pre, _, poles = _act(g.inverse(), X, np.zeros_like(X))
    return pre, poles[0] | poles[1]


def _preimage(g: GroupElement, p: Point3) -> Point3:
    """p's pre-image under g, with the errors of ``transport_solution`` (naming g)."""
    pre, bad = _pullback(g, np.asarray(p, dtype=float))
    _raise_at(bad, PoleError, lambda i: f"pre-image undefined at {_point(p, i)}, lambda={g.lam}")
    _check_finite(g, p, "pre-image", pre)
    return Point3(*pre)


def _pulled_back(g: GroupElement, domain: BoxDomain,
                 place=lambda X, pre: pre) -> BoxDomain:
    """Excluded set of a field moved by g from one on ``domain``: where the
    pre-image is undefined or, placed as the field's evaluator places it
    (the literal conical reading moves it), off ``domain``."""
    def excluded(p: Point3):
        X = np.asarray(p, dtype=float)
        pre, bad = _pullback(g, X)
        return bad | _off_domain(domain, Point3(*place(X, pre)))

    return BoxDomain.unbounded(excluded)


def _Q_at(g: GroupElement, Q: VectorField, p: Point3, pre) -> np.ndarray:
    """Q at ``pre``, p's pre-image as an evaluator places it.  A pre-image
    near a pole of the pull-back lies far out, where Q may overflow inside
    the moved field's domain: DomainError naming the query point p (and,
    over a batch, its index and every such point in ``where``)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # raised below
        value = Q.batch(Point3(*pre))
    _check_finite(g, p, "Q at the pre-image", value)
    return value


def pushforward_solution(g: GroupElement, Q: VectorField) -> VectorField:
    """Generic transport: the value of Q at the pre-image, pushed through G_k.

    Serves as the oracle for the printed transported-solution formulas.
    """
    def eval_at(p: Point3) -> np.ndarray:
        pre = _preimage(g, p)
        return group_act(g, pre, _Q_at(g, Q, p, pre))[1].astype(complex)

    return VectorField(eval_at, _pulled_back(g, Q.domain), vectorized=True)


def _conical_transport(g: GroupElement, Q: VectorField, literal: bool):
    """Closed-form transported solution for the conical groups.

    Reconciled reading: the value-transform lines are evaluated at the
    pre-image point (and the lone alpha(-z,...) argument of the printed
    k = 8 display is read as alpha(-x,...)), which is exactly the
    pushforward.  Literal reading keeps the query-point coordinates and the
    printed axis-case forms.
    """
    axis, lam = g.k - 8, g.lam

    def placed(X: np.ndarray, pre: np.ndarray) -> np.ndarray:
        """On the axis the pre-image moves along it; the literal text puts
        the moving coordinate in the third slot whatever the axis."""
        if literal:
            pre[[axis, 2]] = np.where(_off_axis(axis, X), pre[[axis, 2]], pre[[2, axis]])
        return pre

    def eval_at(p: Point3) -> np.ndarray:
        X = np.asarray(p, dtype=float)
        pre = placed(X, np.asarray(_preimage(g, p)))
        off = _off_axis(axis, X)
        Qp = _as_real_vector(_Q_at(g, Q, p, pre))

        if literal:  # query-point coordinates in the value lines, as printed
            ref, rr2 = X, _dot(X, X)
        else:
            ref, rr2 = pre, _dot(pre, pre)
        c = 1.0 - 2.0 * _dot(ref, Qp)
        a = rr2 * lam * lam - 2.0 * ref[axis] * lam + 1.0
        bracket = 2.0 * Qp[axis] * lam + c * lam * lam
        out_off = a * Qp + ref * bracket
        out_off[axis] = (Qp[axis] + c * (lam - ref[axis] * lam * lam)
                         - rr2 * lam * lam * Qp[axis])
        xa = X[axis]
        # on the axis, as printed: the prefactors use the query coordinate
        mu = 1.0 - xa * lam if literal else 1.0 / np.where(off, 1.0, 1.0 + xa * lam)
        out_on = mu * mu * Qp
        out_on[axis] = mu * mu * Qp[axis] + mu * lam
        return np.where(off, out_off, out_on).astype(complex)

    return VectorField(eval_at, _pulled_back(g, Q.domain, placed), vectorized=True)


def transport_solution(g: GroupElement, Q: VectorField,
                       literal_text: bool = False) -> VectorField:
    """Closed-form transported solution for the group G_k.

    Requires Q to solve the Riccati equation for a potential of the matching
    invariant family if the result is to solve it too.  See the module
    docstring for the literal_text switch on the conical rows.
    """
    k, lam = g.k, g.lam
    if k >= 8:
        return _conical_transport(g, Q, literal_text)

    if k in (1, 2, 3):
        def value(Qpre: np.ndarray):
            return Qpre
    elif k in (4, 5, 6):
        R = rotation_matrix(k, lam)

        def value(Qpre: np.ndarray):
            return _matvec(R, _as_real_vector(Qpre)).astype(complex)
    else:
        s = math.exp(-lam)

        def value(Qpre: np.ndarray):
            return s * Qpre

    def eval_at(p: Point3) -> np.ndarray:
        return value(_Q_at(g, Q, p, _preimage(g, p)))

    return VectorField(eval_at, _pulled_back(g, Q.domain), vectorized=True)
