"""Transforms and identities around D Q + |Q|^2 = q.

Everything here works pointwise on fields: residual operations return the
defect of an identity at one point, transform operations return new fields
whose evaluators chain finite differences and quadratures of the inputs.
``riccati_residual``, ``schrodinger_residual`` and the ``Q`` of ``cole_hopf``
also take a batch of points (a Point3 of equal-shape arrays, see the
``fields`` module) and then return arrays, component axis first.

Sign convention note: the factorization of -Delta + q implemented by
``factorization_residual`` uses the operator pair (D - M^Q)(D + Q C_H) and
its conjugate mirror (D_r - Q)(D_r + M^Q C_H).  These are the variants that
annihilate exactly the solutions of D Q + |Q|^2 = q used everywhere else in
this package (the opposite-sign pair annihilates solutions of the
sign-flipped equation instead; both conventions circulate in the
literature).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .biquat import Biquaternion, conj_h, cross, inverse, mul
from .errors import NotPureVector, ZeroCrossing
from .fields import (
    DEFAULT_QUAD,
    DEFAULT_SCHEME,
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
    _batched,
    _curl,
    _first,
    _item,
    _jacobian,
    dirac_left,
    dirac_right,
    div,
    grad,
    laplacian,
    operator_A,
    operator_rot_B,
    rot,
)

__all__ = [
    "RiccatiInstance",
    "SchrodingerInstance",
    "riccati_residual",
    "schrodinger_residual",
    "cole_hopf",
    "inverse_cole_hopf",
    "factorization_residual",
    "vekua_residual",
    "component_residuals",
    "w_equation_residual",
    "build_W_prop2",
    "build_W_from_W0",
    "build_W0_from_W",
    "euler_residual",
    "q_from_scw",
    "w_from_q_pair",
    "picard_lhs",
]

EPS_ZERO = 1e-10


@dataclass(frozen=True)
class RiccatiInstance:
    """A pure-vector field Q and potential q claimed to satisfy D Q + |Q|^2 = q."""

    Q: VectorField
    q: ScalarField


@dataclass(frozen=True)
class SchrodingerInstance:
    """A scalar field psi and potential q claimed to satisfy (-Delta + q) psi = 0."""

    psi: ScalarField
    q: ScalarField


def _nonzero(value, eps: float, what: str):
    """value, unless |value| <= eps somewhere (a value or a batch of them)."""
    bad = abs(value) <= eps
    if bad is not False and (i := _first(bad)) is not None:
        raise ZeroCrossing(f"{what} = {_item(value, i)} is below the zero guard {eps}",
                           index=i, where=bad)
    return value


def _dot(U: np.ndarray, V: np.ndarray):
    """sum_k U[k] V[k] over the leading component axis.  One point takes
    ``U @ V``; a batch takes the same BLAS dot once per point (a stacked
    matmul), so both round alike (an elementwise sum may not)."""
    if U.ndim == 1:
        return U @ V
    shape = U.shape[1:]
    U, V = U.reshape(3, -1).T, V.reshape(3, -1).T
    return np.matmul(U[:, None, :], V[:, :, None]).reshape(shape)


def riccati_residual(inst: RiccatiInstance, p: Point3,
                     scheme: DiffScheme = DEFAULT_SCHEME):
    """Scalar and vector defects (-div Q + |Q|^2 - q, rot Q) at p.

    Both vanish exactly when Q solves the equation; both come from one
    Jacobian, whose stencil is checked before Q is evaluated anywhere.  For
    a batch of points of shape S the defects are arrays of shapes S and
    (3, *S), equal bit for bit to the pointwise ones when Q and q are
    vectorized exactly (as the catalog's are).
    """
    p = Point3(*p)
    J = _jacobian(inst.Q, p, scheme)
    Qp = inst.Q.batch(p)
    scalar = -(J[0, 0] + J[1, 1] + J[2, 2]) + _dot(Qp, Qp) - inst.q.batch(p)
    return (scalar if _batched(p) else complex(scalar)), _curl(J)


def schrodinger_residual(inst: SchrodingerInstance, p: Point3,
                         scheme: DiffScheme = DEFAULT_SCHEME):
    """(-Delta + q) psi at p, or over a batch of points."""
    p = Point3(*p)
    value = -laplacian(inst.psi, p, scheme) + inst.q.batch(p) * inst.psi.batch(p)
    return value if _batched(p) else complex(value)


def cole_hopf(inst: SchrodingerInstance, scheme: DiffScheme = DEFAULT_SCHEME,
              eps_zero: float = EPS_ZERO) -> RiccatiInstance:
    """Q = -D psi / psi (the gradient quotient, since psi is scalar).

    The returned field raises ZeroCrossing on the nodal set of psi.  It is
    vectorized: over a batch it evaluates psi and its stencil through
    ``psi.batch``, and ZeroCrossing names the first point below the guard.
    """
    psi = inst.psi

    def Q_eval(p: Point3) -> np.ndarray:
        value = _nonzero(psi.batch(p), eps_zero, "psi")
        return -grad(psi, p, scheme) / value

    return RiccatiInstance(VectorField(Q_eval, psi.domain, vectorized=True), inst.q)


def inverse_cole_hopf(inst: RiccatiInstance, base: Point3, C: complex = 0j,
                      quad: QuadratureSpec = DEFAULT_QUAD,
                      curl_check: bool = True) -> SchrodingerInstance:
    """psi = exp(-A[Q]) with the path constant chosen so psi(base) = exp(-C)."""
    A = operator_A(inst.Q, Point3(*base), C, quad, curl_check=curl_check)
    psi = ScalarField(lambda p: np.exp(-A.batch(p)), inst.Q.domain, vectorized=True)
    return SchrodingerInstance(psi, inst.q)


def _probe_pair(psi: ScalarField, inst: RiccatiInstance, scheme: DiffScheme):
    """(D + Q C_H) psi = D_r psi + psi Q = grad psi + psi Q (psi scalar)."""
    def inner(p: Point3) -> Biquaternion:
        g = grad(psi, p, scheme)
        return Biquaternion.from_vector(g + psi(p) * inst.Q(p))
    dom = psi.domain.intersect(inst.Q.domain)
    return QuaternionField(inner, dom)


def factorization_residual(psi: ScalarField, inst: RiccatiInstance, p: Point3,
                           scheme: DiffScheme = DEFAULT_SCHEME):
    """Defect of both factorization lines of -Delta + q on the probe psi.

    left  = (D   - M^Q)(D   + Q C_H) psi - (-Delta + q) psi
    right = (D_r - Q  )(D_r + M^Q C_H) psi - (-Delta + q) psi

    Both vanish (for arbitrary smooth scalar probes psi) iff Q solves the
    Riccati equation at p; C_H does not act on the scalar probe.
    """
    p = Point3(*p)
    G = _probe_pair(psi, inst, scheme)
    Qp = Biquaternion.from_vector(inst.Q(p))
    Gp = G(p)
    target = Biquaternion(-laplacian(psi, p, scheme) + inst.q(p) * psi(p))
    left = dirac_left(G, p, scheme) - mul(Gp, Qp) - target
    right = dirac_right(G, p, scheme) - mul(Qp, Gp) - target
    return left, right


def vekua_residual(W: QuaternionField, phi: ScalarField, p: Point3,
                   scheme: DiffScheme = DEFAULT_SCHEME,
                   eps_zero: float = EPS_ZERO) -> Biquaternion:
    """(D - (D phi / phi) C_H) W at p."""
    p = Point3(*p)
    value = _nonzero(phi(p), eps_zero, "phi")
    a = Biquaternion.from_vector(grad(phi, p, scheme) / value)
    return dirac_left(W, p, scheme) - mul(a, conj_h(W(p)))


def component_residuals(W0: ScalarField, Wv: VectorField, phi: ScalarField,
                        p: Point3, scheme: DiffScheme = DEFAULT_SCHEME,
                        eps_zero: float = EPS_ZERO):
    """Componentwise conditions on a Vekua solution W = W0 + Wv.

    c1 = div[phi^2 grad(W0/phi)],  c2 = rot[phi^-2 rot(phi Wv)].
    """
    p = Point3(*p)
    ratio = ScalarField(lambda t: W0.batch(t) / _nonzero(phi.batch(t), eps_zero, "phi"),
                        W0.domain, vectorized=True)
    prod = VectorField(lambda t: phi.batch(t) * Wv.batch(t), Wv.domain, vectorized=True)

    def sigma(s: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(s), eps_zero, "phi")
        return value * value * grad(ratio, s, scheme)

    def tau(s: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(s), eps_zero, "phi")
        return rot(prod, s, scheme) / (value * value)

    dom = W0.domain.intersect(phi.domain)
    c1 = div(VectorField(sigma, dom, vectorized=True), p, scheme)
    c2 = rot(VectorField(tau, dom.intersect(Wv.domain), vectorized=True), p, scheme)
    return complex(c1), c2


def w_equation_residual(w, phi: ScalarField, p: Point3,
                        scheme: DiffScheme = DEFAULT_SCHEME,
                        eps_zero: float = EPS_ZERO) -> Biquaternion:
    """(D + M^{D phi / phi}) w at p for a purely vectorial w."""
    p = Point3(*p)
    if isinstance(w, QuaternionField):
        wp = w(p)
        if abs(wp.scalar) > 1e-12 * max(1.0, wp.max_abs()):
            raise NotPureVector(f"w has scalar part {wp.scalar} at {p}")
        w = VectorField(lambda t: w(t).vector, w.domain)
    value = _nonzero(phi(p), eps_zero, "phi")
    a = Biquaternion.from_vector(grad(phi, p, scheme) / value)
    return dirac_left(w, p, scheme) + mul(Biquaternion.from_vector(w(p)), a)


def _grad_or_zero(h: Optional[ScalarField], p: Point3, scheme: DiffScheme) -> np.ndarray:
    if h is None:
        return np.zeros(3, dtype=complex)
    return grad(h, p, scheme)


def build_W_prop2(w: VectorField, phi: ScalarField, h: Optional[ScalarField],
                  base: Point3, region: BoxDomain,
                  quad: QuadratureSpec = DEFAULT_QUAD,
                  scheme: DiffScheme = DEFAULT_SCHEME,
                  C: complex = 0j, eps_zero: float = EPS_ZERO,
                  cells=None):
    """Solutions built from a purely vectorial w with (D + M^{D phi/phi}) w = 0.

    Returns (W, W0, Q):
      W  = (phi A[w/phi] - phi^-1 rot B[phi w] + grad h / phi) / 2
      W0 = phi A[w/phi] / 2                      (solves the Schrodinger eq.)
      Q  = -phi^-1 (grad phi + w / A[w/phi])     (solves the Riccati eq.)

    h is an arbitrary harmonic function (None means 0); C is the additive
    constant of the path reconstruction A.  rot B is evaluated analytically
    (``operator_rot_B``), not by finite differences of the potential.  W0
    and Q are vectorized, so a batch (a stencil's points included) takes one
    A[w/phi] call.
    """
    base = Point3(*base)
    dom = w.domain.intersect(phi.domain)

    ratio = VectorField(lambda t: w.batch(t) / _nonzero(phi.batch(t), eps_zero, "phi"),
                        dom, vectorized=True)
    Aw = operator_A(ratio, base, C, quad)
    rot_B = operator_rot_B(VectorField(lambda t: phi.batch(t) * w.batch(t), dom,
                                       vectorized=True), region, quad, cells=cells)

    def W0_eval(p: Point3):
        return 0.5 * phi.batch(p) * Aw.batch(p)

    def W_eval(p: Point3) -> Biquaternion:
        value = _nonzero(phi(p), eps_zero, "phi")
        vec = 0.5 * (-rot_B(p) + _grad_or_zero(h, p, scheme)) / value
        return Biquaternion.from_scalar_vector(W0_eval(p), vec)

    def Q_eval(p: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(p), eps_zero, "phi")
        a = _nonzero(Aw.batch(p), eps_zero, "A[w/phi]")
        return -(grad(phi, p, scheme) + w.batch(p) / a) / value

    return (QuaternionField(W_eval, dom), ScalarField(W0_eval, dom, vectorized=True),
            VectorField(Q_eval, dom, vectorized=True))


def build_W_from_W0(W0: ScalarField, phi: ScalarField, h: Optional[ScalarField],
                    region: BoxDomain, quad: QuadratureSpec = DEFAULT_QUAD,
                    scheme: DiffScheme = DEFAULT_SCHEME,
                    eps_zero: float = EPS_ZERO, cells=None) -> QuaternionField:
    """Complete a Schrodinger solution W0 to a Vekua solution W = W0 + Wv.

    Wv = -phi^-1 {rot B[phi^2 grad(W0/phi)] + grad h}, with rot B evaluated
    analytically (``operator_rot_B``).  The integrand is vectorized, so the
    grid build differences W0/phi over whole chunks of cells; W0 and phi may
    be vectorized or pointwise fields.
    """
    dom = W0.domain.intersect(phi.domain)
    def nonzero_phi(t: Point3):
        return _nonzero(phi.batch(t), eps_zero, "phi")

    ratio = ScalarField(lambda s: W0.batch(s) / nonzero_phi(s), dom, vectorized=True)
    rot_B = operator_rot_B(VectorField(lambda t: nonzero_phi(t) ** 2 * grad(ratio, t, scheme),
                                       dom, vectorized=True), region, quad, cells=cells)

    def W_eval(p: Point3) -> Biquaternion:
        value = _nonzero(phi(p), eps_zero, "phi")
        vec = -(rot_B(p) + _grad_or_zero(h, p, scheme)) / value
        return Biquaternion.from_scalar_vector(W0(p), vec)

    return QuaternionField(W_eval, dom)


def build_W0_from_W(Wv: VectorField, phi: ScalarField, base: Point3,
                    quad: QuadratureSpec = DEFAULT_QUAD,
                    scheme: DiffScheme = DEFAULT_SCHEME,
                    C: complex = 0j, eps_zero: float = EPS_ZERO) -> ScalarField:
    """Recover the scalar part matching a vector part Wv of a Vekua solution.

    W0 = -phi A[phi^-2 rot(phi Wv)] with the path constant C of A.
    """
    dom = Wv.domain.intersect(phi.domain)
    prod = VectorField(lambda s: phi.batch(s) * Wv.batch(s), dom, vectorized=True)

    def integrand(t: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(t), eps_zero, "phi")
        return rot(prod, t, scheme) / (value * value)

    A = operator_A(VectorField(integrand, dom, vectorized=True), Point3(*base), C, quad)
    return ScalarField(lambda p: -phi.batch(p) * A.batch(p), dom, vectorized=True)


def euler_residual(W: QuaternionField, Q1: VectorField, p: Point3,
                   scheme: DiffScheme = DEFAULT_SCHEME) -> Biquaternion:
    """D W + Q1 conj_h(W) at p (defect of the first-order reduction)."""
    p = Point3(*p)
    Q1p = Biquaternion.from_vector(Q1(p))
    return dirac_left(W, p, scheme) + mul(Q1p, conj_h(W(p)))


def q_from_scw(W: QuaternionField, scheme: DiffScheme = DEFAULT_SCHEME,
               eps_zero: float = EPS_ZERO) -> VectorField:
    """Q = -D(Sc W)/Sc W, the gradient quotient of the scalar part."""
    scw = ScalarField(lambda p: W(p).scalar, W.domain)

    def Q_eval(p: Point3) -> np.ndarray:
        value = _nonzero(scw(p), eps_zero, "Sc W")
        return -grad(scw, p, scheme) / value

    return VectorField(Q_eval, W.domain)


def w_from_q_pair(inst: RiccatiInstance, inst1: RiccatiInstance,
                  h: Optional[ScalarField], base: Point3, region: BoxDomain,
                  quad: QuadratureSpec = DEFAULT_QUAD,
                  scheme: DiffScheme = DEFAULT_SCHEME,
                  check_points: Optional[Sequence[Point3]] = None,
                  cells=None) -> QuaternionField:
    """Solution of D W = -Q1 conj_h(W) assembled from two Riccati solutions.

    W = exp(-A[Q]) - exp(A[Q1]) { rot B[exp(-2 A[Q1]) grad(exp(-A[Q - Q1]))]
                                  + grad h }.

    The scalar part is exactly exp(-A[Q]) (the brace term is purely
    vectorial), independent of the volume quadrature.  Both instances must
    share one potential; when check_points are supplied, |q - q1| is sampled
    there and a mismatch above 1e-8 is rejected.

    Because rot(Q - Q1) = 0 for two solutions of one equation, the gradient
    in the brace integrand is evaluated through the exact chain rule
    grad(exp(-A[G])) = -G exp(-A[G]), which avoids differencing a quadrature
    inside the volume integral; rot B itself is evaluated analytically
    (``operator_rot_B``).  The brace integrand is vectorized, so the grid
    build evaluates it, with both A's inside it, over whole chunks of cells;
    Q and Q1 may be vectorized or pointwise fields.
    """
    base = Point3(*base)
    if check_points is not None:
        for pt in check_points:
            gap = abs(inst.q(Point3(*pt)) - inst1.q(Point3(*pt)))
            if gap > 1e-8:
                raise ValueError(
                    f"instances have different potentials: |q - q1| = {gap} at {pt}")

    Q, Q1 = inst.Q, inst1.Q
    dom = Q.domain.intersect(Q1.domain)
    diffQ = VectorField(lambda t: Q.batch(t) - Q1.batch(t), dom, vectorized=True)
    A_Q = operator_A(Q, base, 0j, quad)
    A_Q1 = operator_A(Q1, base, 0j, quad)
    A_diff = operator_A(diffQ, base, 0j, quad)

    def integrand(t: Point3) -> np.ndarray:
        return (np.exp(-2.0 * A_Q1.batch(t) - A_diff.batch(t))
                * (Q1.batch(t) - Q.batch(t)))

    rot_B = operator_rot_B(VectorField(integrand, dom, vectorized=True), region, quad,
                           cells=cells)

    def W_eval(p: Point3) -> Biquaternion:
        vec = -cmath.exp(A_Q1(p)) * (rot_B(p) + _grad_or_zero(h, p, scheme))
        return Biquaternion.from_scalar_vector(cmath.exp(-A_Q(p)), vec)

    return QuaternionField(W_eval, dom)


def picard_lhs(Q1: VectorField, Q2: VectorField, Q3: VectorField, Q4: VectorField,
               p: Point3, scheme: DiffScheme = DEFAULT_SCHEME,
               division: str = "right", include_cross_terms: bool = True,
               eps_inv: float = 1e-12) -> Biquaternion:
    """Four-solution identity: the cross-ratio style combination

        T(1,2) + T(3,4) - T(1,4) - T(3,2),
        T(a,b) = [D(Qa - Qb) - 2 Qa x Qb] / (Qa - Qb),

    which vanishes when all four fields solve the Riccati equation with one
    common potential.  Quotients are right division X (Qa-Qb)^-1 by default
    ("left" multiplies by the inverse from the left instead);
    include_cross_terms=False drops the noncommutativity corrections, which
    breaks the identity and is exposed for sensitivity experiments.
    """
    if division not in ("right", "left"):
        raise ValueError(f"division must be 'right' or 'left', got {division!r}")
    p = Point3(*p)
    fields = (Q1, Q2, Q3, Q4)

    def term(ia: int, ib: int) -> Biquaternion:
        Qa, Qb = fields[ia], fields[ib]
        va, vb = Qa(p), Qb(p)
        Y = Biquaternion.from_vector(va - vb)
        diff_field = VectorField(lambda t: Qa.batch(t) - Qb.batch(t),
                                 Qa.domain.intersect(Qb.domain), vectorized=True)
        X = dirac_left(diff_field, p, scheme)
        if include_cross_terms:
            X = X - 2.0 * Biquaternion.from_vector(cross(va, vb))
        Yinv = inverse(Y, eps_inv)
        return mul(X, Yinv) if division == "right" else mul(Yinv, X)

    return term(0, 1) + term(2, 3) - term(0, 3) - term(2, 1)
