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
    grad,
)

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
    arr = np.asarray(Qval)
    if np.iscomplexobj(arr):
        scale = max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr.imag))) > 1e-10 * scale:
            raise ValueError("symmetry module operates on real-valued Q")
        arr = arr.real
    return np.asarray(arr, dtype=float).reshape(3)


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
    """
    if not 1 <= k <= 10:
        raise ValueError(f"k = {k} outside 1..10")

    def hyp(a: float, b: float) -> float:
        return math.hypot(a, b)

    if k == 1:
        return ScalarField(lambda p: complex(F(p.y, p.z)))
    if k == 2:
        return ScalarField(lambda p: complex(F(p.x, p.z)))
    if k == 3:
        return ScalarField(lambda p: complex(F(p.x, p.y)))
    if k == 4:
        return ScalarField(lambda p: complex(F(p.x, hyp(p.y, p.z))))
    if k == 5:
        return ScalarField(lambda p: complex(F(p.y, hyp(p.x, p.z))))
    if k == 6:
        return ScalarField(lambda p: complex(F(p.z, hyp(p.x, p.y))))
    if k == 7:
        def eval7(p: Point3) -> complex:
            if abs(p.x) <= margin:
                raise DomainError(f"dilation potential singular at x = {p.x}")
            return complex(F(p.y / p.x, p.z / p.x) / (p.x * p.x))
        return ScalarField(eval7, BoxDomain.unbounded(lambda p: abs(p.x) <= margin))

    pairs = {8: (1, 2), 9: (0, 2), 10: (0, 1)}[k]

    def eval_conical(p: Point3) -> complex:
        r2 = p.x * p.x + p.y * p.y + p.z * p.z
        if r2 <= margin * margin:
            raise DomainError(f"conical potential singular at r = {math.sqrt(r2)}")
        coords = (p.x / r2, p.y / r2, p.z / r2)
        return complex(F(coords[pairs[0]], coords[pairs[1]]) / (r2 * r2))

    return ScalarField(eval_conical, BoxDomain.unbounded(
        lambda p: p.x * p.x + p.y * p.y + p.z * p.z <= margin * margin))


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


def _conical_act(axis: int, p: Point3, Q: np.ndarray, lam: float):
    """Shared implementation of G_8 (axis=0), G_9 (axis=1), G_10 (axis=2)."""
    coords = np.asarray(p, dtype=float)
    others = [i for i in range(3) if i != axis]
    off_axis_sq = coords[others[0]] ** 2 + coords[others[1]] ** 2
    r2 = float(coords @ coords)
    xa = coords[axis]
    ua = Q[axis]
    c = 1.0 - 2.0 * float(coords @ Q)

    if off_axis_sq > _AXIS_TOL:
        a = r2 * lam * lam - 2.0 * xa * lam + 1.0
        if abs(a) <= _POLE_TOL:
            raise PoleError(f"alpha vanished for G_{8 + axis} at {p}, lambda={lam}")
        newc = coords / a
        newc[axis] = (xa - lam * r2) / a
        newQ = np.empty(3)
        bracket = 2.0 * ua * lam + c * lam * lam
        for i in others:
            newQ[i] = a * Q[i] + coords[i] * bracket
        newQ[axis] = ua + c * lam - (r2 * ua + c * xa) * lam * lam
        return Point3(*newc), newQ

    d = 1.0 - xa * lam
    if abs(d) <= _POLE_TOL:
        raise PoleError(f"1 - x*lambda vanished for G_{8 + axis} at {p}, lambda={lam}")
    newc = np.zeros(3)
    newc[axis] = xa / d
    newQ = np.empty(3)
    for i in others:
        newQ[i] = Q[i] * d * d
    newQ[axis] = d * (ua + lam * (1.0 - xa * ua))
    return Point3(*newc), newQ


def group_act(g: GroupElement, p: Point3, Qval) -> Tuple[Point3, np.ndarray]:
    """Apply the one-parameter group G_k with parameter lambda to (p, Q(p)).

    lambda = 0 is the identity; composition is additive in lambda.  The
    conical groups raise PoleError where their denominators vanish.
    """
    p = Point3(*p)
    Q = _as_real_vector(Qval)
    k, lam = g.k, g.lam

    if k in (1, 2, 3):
        shift = [0.0, 0.0, 0.0]
        shift[k - 1] = lam
        return Point3(p.x + shift[0], p.y + shift[1], p.z + shift[2]), Q.copy()
    if k in (4, 5, 6):
        R = rotation_matrix(k, lam)
        return Point3(*(R @ np.asarray(p))), R @ Q
    if k == 7:
        s = math.exp(lam)
        return Point3(p.x * s, p.y * s, p.z * s), Q / s
    return _conical_act(k - 8, p, Q, lam)


def _preimage(g: GroupElement, p: Point3) -> Point3:
    return group_act(g.inverse(), p, np.zeros(3))[0]


def pushforward_solution(g: GroupElement, Q: VectorField) -> VectorField:
    """Generic transport: the value of Q at the pre-image, pushed through G_k.

    Serves as the oracle for the printed transported-solution formulas.
    """
    def eval_at(p: Point3) -> np.ndarray:
        pre = _preimage(g, Point3(*p))
        _, out = group_act(g, pre, _as_real_vector(Q(pre)))
        return out.astype(complex)

    def excluded(p: Point3) -> bool:
        try:
            pre = _preimage(g, Point3(*p))
        except PoleError:
            return True
        return not Q.domain.ok(pre)

    return VectorField(eval_at, BoxDomain.unbounded(excluded))


def _conical_transport(axis: int, Q: VectorField, lam: float, literal: bool):
    """Closed-form transported solution for the conical groups.

    Reconciled reading: the value-transform lines are evaluated at the
    pre-image point (and the lone alpha(-z,...) argument of the printed
    k = 8 display is read as alpha(-x,...)), which is exactly the
    pushforward.  Literal reading keeps the query-point coordinates and the
    printed axis-case forms.
    """
    def eval_at(p: Point3) -> np.ndarray:
        p = Point3(*p)
        coords = np.asarray(p, dtype=float)
        others = [i for i in range(3) if i != axis]
        off_axis_sq = coords[others[0]] ** 2 + coords[others[1]] ** 2
        r2 = float(coords @ coords)
        xa = coords[axis]

        if off_axis_sq > _AXIS_TOL:
            den = r2 * lam * lam + 2.0 * xa * lam + 1.0  # alpha(-x_a, r, lam)
            if abs(den) <= _POLE_TOL:
                raise PoleError(f"pre-image undefined at {p}, lambda={lam}")
            pre = coords / den
            pre[axis] = (xa + lam * r2) / den
            Qp = _as_real_vector(Q(Point3(*pre)))
            if literal:
                # query-point coordinates in the value lines, as printed
                ref, rr2 = coords, r2
            else:
                ref, rr2 = pre, float(pre @ pre)
            c = 1.0 - 2.0 * float(ref @ Qp)
            a = rr2 * lam * lam - 2.0 * ref[axis] * lam + 1.0
            bracket = 2.0 * Qp[axis] * lam + c * lam * lam
            out = np.empty(3)
            for i in others:
                out[i] = a * Qp[i] + ref[i] * bracket
            out[axis] = (Qp[axis] + c * (lam - ref[axis] * lam * lam)
                         - rr2 * lam * lam * Qp[axis])
            return out.astype(complex)

        d = 1.0 + xa * lam
        if abs(d) <= _POLE_TOL:
            raise PoleError(f"pre-image undefined at {p}, lambda={lam}")
        pre_axis = xa / d
        if literal:
            # printed: the moving coordinate sits in the third slot and the
            # prefactors use the query coordinate
            pre_pt = Point3(0.0, 0.0, pre_axis)
            mu = 1.0 - xa * lam
        else:
            pre_c = np.zeros(3)
            pre_c[axis] = pre_axis
            pre_pt = Point3(*pre_c)
            mu = 1.0 / d
        Qp = _as_real_vector(Q(pre_pt))
        out = np.empty(3)
        for i in others:
            out[i] = mu * mu * Qp[i]
        out[axis] = mu * mu * Qp[axis] + mu * lam
        return out.astype(complex)

    def excluded(p: Point3) -> bool:
        coords = np.asarray(p, dtype=float)
        r2 = float(coords @ coords)
        xa = coords[axis]
        den = r2 * lam * lam + 2.0 * xa * lam + 1.0
        if abs(den) <= _POLE_TOL:
            return True
        pre = coords / den
        pre[axis] = (xa + lam * r2) / den
        return not Q.domain.ok(Point3(*pre))

    return VectorField(eval_at, BoxDomain.unbounded(excluded))


def transport_solution(g: GroupElement, Q: VectorField,
                       literal_text: bool = False) -> VectorField:
    """Closed-form transported solution for the group G_k.

    Requires Q to solve the Riccati equation for a potential of the matching
    invariant family if the result is to solve it too.  See the module
    docstring for the literal_text switch on the conical rows.
    """
    k, lam = g.k, g.lam

    if k in (1, 2, 3):
        shift = np.zeros(3)
        shift[k - 1] = lam

        def eval_translate(p: Point3) -> np.ndarray:
            c = np.asarray(p, dtype=float) - shift
            return Q(Point3(*c))

        return VectorField(eval_translate, BoxDomain.unbounded(
            lambda p: not Q.domain.ok(Point3(*(np.asarray(p, float) - shift)))))

    if k in (4, 5, 6):
        R = rotation_matrix(k, lam)

        def eval_rotate(p: Point3) -> np.ndarray:
            pre = R.T @ np.asarray(p, dtype=float)
            return (R @ _as_real_vector(Q(Point3(*pre)))).astype(complex)

        return VectorField(eval_rotate, BoxDomain.unbounded(
            lambda p: not Q.domain.ok(Point3(*(R.T @ np.asarray(p, float))))))

    if k == 7:
        s = math.exp(-lam)

        def eval_dilate(p: Point3) -> np.ndarray:
            pre = Point3(p.x * s, p.y * s, p.z * s)
            return s * Q(pre)

        return VectorField(eval_dilate, BoxDomain.unbounded(
            lambda p: not Q.domain.ok(Point3(p.x * s, p.y * s, p.z * s))))

    return _conical_transport(k - 8, Q, lam, literal_text)
