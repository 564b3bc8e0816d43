"""Transforms and identities around D Q + |Q|^2 = q.

Everything here works pointwise on fields: residual operations return the
defect of an identity at one point, transform operations return new fields
whose evaluators chain finite differences and quadratures of the inputs.
Every residual operation, the ``Q`` of ``cole_hopf`` and of ``q_from_scw``
also take a batch of points (a Point3 of equal-shape arrays, see the
``fields`` module) and then return arrays, component axis first.  One body
serves a point and a batch: at a point the components are Python complex
numbers (``_parts``) and the result is the Biquaternion, complex number or
array the pointwise call has always returned, bit for bit; over a batch
the same ``biquat._product``/``_conj`` and ``fields._dirac_sum`` lines run
on arrays, whose complex products numpy may round differently in the last
bits.  The guards (ZeroCrossing, NotPureVector) follow ``errors._raise_at``.

``build_W_prop2``, ``build_W_from_W0`` and ``w_from_q_pair`` assemble
their W in one place (``_built_W``): it takes a batch and carries a jet
(its exact first derivative, from rot B's Jacobian by the product rule;
see ``fields._Field``), from which ``vekua_residual`` and
``euler_residual`` take both W(p) and D W.

Sign convention note: the factorization of -Delta + q implemented by
``factorization_residual`` uses the operator pair (D - M^Q)(D + Q C_H) and
its conjugate mirror (D_r - Q)(D_r + M^Q C_H).  These are the variants that
annihilate exactly the solutions of D Q + |Q|^2 = q used everywhere else in
this package (the opposite-sign pair annihilates solutions of the
sign-flipped equation instead; both conventions circulate in the
literature).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .biquat import Biquaternion, _conj, _inverse, _product, cross
from .errors import NotPureVector, ZeroCrossing, _item, _raise_at
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
    _d1,
    _derivatives,
    _dirac_sum,
    _jacobian,
    _laplacian_and_centre,
    _point,
    _stacked,
    _stencil,
    _vector_part,
    dirac_left,
    div,
    grad,
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

EPS_ZERO = 1e-10  # a divisor of modulus at or below this raises ZeroCrossing


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


def _nonzero(value, what: str):
    """value, unless |value| <= EPS_ZERO somewhere (a value or a batch of them)."""
    _raise_at(abs(value) <= EPS_ZERO, ZeroCrossing,
              lambda i: f"{what} = {_item(value, i)} is below the zero guard {EPS_ZERO}")
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


def _parts(v, batched: bool):
    """The components of v, axis first: a batch's arrays, or at one point
    Python complex numbers (a Biquaternion's, or an array's), whose
    arithmetic the pointwise residuals have always used."""
    if batched:
        return v
    return v.components if isinstance(v, Biquaternion) else v.tolist()


def _assembled(parts, batched: bool):
    """Four components as a Biquaternion at one point, (4, *S) over a batch."""
    return np.array(parts) if batched else Biquaternion(*parts)


def riccati_residual(inst: RiccatiInstance, p: Point3,
                     scheme: DiffScheme = DEFAULT_SCHEME):
    """Scalar and vector defects (-div Q + |Q|^2 - q, rot Q) at p.

    Both vanish exactly when Q solves the equation; both come from one
    Jacobian, whose stencil is checked before Q is evaluated anywhere.  For
    a batch of points of shape S the defects are arrays of shapes S and
    (3, *S), equal bit for bit to the pointwise ones when Q and q are
    vectorized exactly (as the catalog's are).
    """
    return _centre_and_residual(inst, Point3(*p), scheme)[2:]


def _centre_and_residual(inst: RiccatiInstance, p: Point3, scheme: DiffScheme):
    """Q(p), q(p) and the two defects of ``riccati_residual``, for callers
    that export Q or q too: Q is evaluated once per stencil point and once at
    p, q once at p."""
    J = _jacobian(inst.Q, p, scheme)
    Qp, qp = inst.Q.batch(p), inst.q.batch(p)
    scalar = -(J[0, 0] + J[1, 1] + J[2, 2]) + _dot(Qp, Qp) - qp
    return Qp, qp, (scalar if _batched(p) else complex(scalar)), _curl(J)


def schrodinger_residual(inst: SchrodingerInstance, p: Point3,
                         scheme: DiffScheme = DEFAULT_SCHEME):
    """(-Delta + q) psi at p, or over a batch of points."""
    return _schrodinger_centre(inst, Point3(*p), scheme)[1]


def _schrodinger_centre(inst: SchrodingerInstance, p: Point3, scheme: DiffScheme,
                        qp=None):
    """psi(p) and ``schrodinger_residual``, for callers that export psi too:
    psi is evaluated once per stencil point, p included.  ``qp``, when
    given, is q(p), which is then not evaluated again."""
    lap, psi_p = _laplacian_and_centre(inst.psi, p, scheme)
    value = -lap + (inst.q.batch(p) if qp is None else qp) * psi_p
    return psi_p, (value if _batched(p) else complex(value))


def cole_hopf(inst: SchrodingerInstance,
              scheme: DiffScheme = DEFAULT_SCHEME) -> RiccatiInstance:
    """Q = -D psi / psi (the gradient quotient, since psi is scalar).

    The returned field raises ZeroCrossing on the nodal set of psi.  It is
    vectorized: over a batch it evaluates psi and its stencil through
    ``psi.batch``, and ZeroCrossing names the first point below the guard.
    """
    psi = inst.psi

    def Q_eval(p: Point3) -> np.ndarray:
        value = _nonzero(psi.batch(p), "psi")
        return -grad(psi, p, scheme) / value

    return RiccatiInstance(VectorField(Q_eval, psi.domain, vectorized=True), inst.q)


def inverse_cole_hopf(inst: RiccatiInstance, base: Point3, C: complex = 0j,
                      quad: QuadratureSpec = DEFAULT_QUAD) -> SchrodingerInstance:
    """psi = exp(-A[Q]) with the path constant chosen so psi(base) = exp(-C).

    Q is assumed curl-free; ``riccati_residual``'s vector part rot Q checks
    that."""
    A = operator_A(inst.Q, Point3(*base), C, quad)
    psi = ScalarField(lambda p: np.exp(-A.batch(p)), inst.Q.domain, vectorized=True)
    return SchrodingerInstance(psi, inst.q)


def factorization_residual(psi: ScalarField, inst: RiccatiInstance, p: Point3,
                           scheme: DiffScheme = DEFAULT_SCHEME):
    """Defect of both factorization lines of -Delta + q on the probe psi.

    left  = (D   - M^Q)(D   + Q C_H) psi - (-Delta + q) psi
    right = (D_r - Q  )(D_r + M^Q C_H) psi - (-Delta + q) psi

    Both vanish (for arbitrary smooth scalar probes psi) iff Q solves the
    Riccati equation at p; C_H does not act on the scalar probe.  The inner
    factor G = (D + Q C_H) psi = grad psi + psi Q is a pure vector, so both
    D G and D_r G come from one stencil of G (``_dirac_sum`` of its
    derivatives): G is evaluated 13 times per point, its centre included.
    Two Biquaternions at one point; over a batch of shape S, two (4, *S)
    component arrays.
    """
    p = Point3(*p)
    batched = _batched(p)
    G = VectorField(lambda t: grad(psi, t, scheme) + psi.batch(t) * inst.Q.batch(t),
                    psi.domain.intersect(inst.Q.domain), vectorized=True)
    Qp = (0j, *_parts(inst.Q.batch(p), batched))
    Gp = (0j, *_parts(G.batch(p), batched))
    target = _schrodinger_centre(SchrodingerInstance(psi, inst.q), p, scheme)[1]
    deriv = _derivatives(G, p, scheme)

    def line(side: int, GQ):
        D = _parts(_dirac_sum(deriv, (3,), batched, side), batched)
        out = [d - m for d, m in zip(D, GQ)]
        out[0] = out[0] - target
        return _assembled(out, batched)

    return line(1, _product(Gp, Qp)), line(-1, _product(Qp, Gp))


def vekua_residual(W: QuaternionField, phi: ScalarField, p: Point3,
                   scheme: DiffScheme = DEFAULT_SCHEME):
    """(D - (D phi / phi) C_H) W at p: a Biquaternion, or its (4, *S)
    components over a batch of shape S."""
    p = Point3(*p)
    batched = _batched(p)
    value = _nonzero(phi.batch(p), "phi")
    a = _parts(grad(phi, p, scheme) / value, batched)
    Wp, DW = _value_and_dirac(W, p, scheme)
    return _assembled([d - m for d, m in zip(DW, _product((0j, *a), _conj(Wp)))], batched)


def _value_and_dirac(W: QuaternionField, p: Point3, scheme: DiffScheme):
    """W(p) and D W as components (``_parts``): both from one ``jet(p)``
    once W's stencil is checked, or ``dirac_left`` and then W(p) when W has
    no jet."""
    batched = _batched(p)
    if W.jet is None:
        DW = dirac_left(W, p, scheme)
        value = W.batch(p)
    else:
        _stencil(W.domain, p, scheme)
        value, deriv = W.jet(p)
        DW = _dirac_sum(deriv, W._lead, batched, 1)
    return _parts(value, batched), _parts(DW, batched)


def component_residuals(W0: ScalarField, Wv: VectorField, phi: ScalarField,
                        p: Point3, scheme: DiffScheme = DEFAULT_SCHEME):
    """Componentwise conditions on a Vekua solution W = W0 + Wv.

    c1 = div[phi^2 grad(W0/phi)],  c2 = rot[phi^-2 rot(phi Wv)]: a complex
    number and a 3-vector at one point, arrays of shapes S and (3, *S) over
    a batch of shape S.
    """
    p = Point3(*p)
    ratio = ScalarField(lambda t: W0.batch(t) / _nonzero(phi.batch(t), "phi"),
                        W0.domain, vectorized=True)
    prod = VectorField(lambda t: phi.batch(t) * Wv.batch(t), Wv.domain, vectorized=True)

    def sigma(s: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(s), "phi")
        return value * value * grad(ratio, s, scheme)

    def tau(s: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(s), "phi")
        return rot(prod, s, scheme) / (value * value)

    dom = W0.domain.intersect(phi.domain)
    c1 = div(VectorField(sigma, dom, vectorized=True), p, scheme)
    c2 = rot(VectorField(tau, dom.intersect(Wv.domain), vectorized=True), p, scheme)
    return c1, c2


def w_equation_residual(w, phi: ScalarField, p: Point3,
                        scheme: DiffScheme = DEFAULT_SCHEME):
    """(D + M^{D phi / phi}) w at p for a purely vectorial w: a
    Biquaternion, or its (4, *S) components over a batch of shape S.

    A QuaternionField w is evaluated once at p, for the scalar-part check
    (NotPureVector) and the product; its vector part is differenced (or its
    jet taken)."""
    p = Point3(*p)
    batched = _batched(p)
    wp = None  # w(p), once known
    if isinstance(w, QuaternionField):
        wq = _parts(w.batch(p), batched)
        size = [abs(c) for c in wq]
        scale = functools.reduce(np.maximum, size, 1.0) if batched else max(1.0, *size)
        _raise_at(size[0] > 1e-12 * scale, NotPureVector,
                  lambda i: f"w has scalar part {_item(wq[0], i)} at {_point(p, i)}")
        w, wp = _vector_part(w), wq[1:]
    value = _nonzero(phi.batch(p), "phi")
    a = _parts(grad(phi, p, scheme) / value, batched)
    Dw = _parts(dirac_left(w, p, scheme), batched)
    if wp is None:
        wp = _parts(w.batch(p), batched)
    return _assembled([d + m for d, m in zip(Dw, _product((0j, *wp), (0j, *a)))], batched)


def _built_W(scalar: ScalarField, factor: ScalarField, sign: float, rot_B: VectorField,
             h: Optional[ScalarField], dom: BoxDomain, scheme: DiffScheme) -> QuaternionField:
    """W = scalar + factor (rot B + sign grad h) on dom met with h's domain
    (h = None means 0): the assembly of the built Vekua solutions.

    The evaluator broadcasts: a batch calls ``factor`` and ``scalar`` once
    and makes one rot B value pass per point.  The jet applies the product
    rule to rot B's exact Jacobian and the stencils of ``factor``,
    ``scalar`` and grad h, so a derivative of W is one pass over the cells.
    """
    grad_h = None
    if h is not None:
        dom = dom.intersect(h.domain)
        grad_h = VectorField(lambda t: sign * grad(h, t, scheme), h.domain, vectorized=True)

    def evaluate(p: Point3) -> np.ndarray:
        f, R = factor.batch(p), rot_B.batch(p)
        vec = f * (R if grad_h is None else R + grad_h.batch(p))
        return np.concatenate((np.expand_dims(scalar.batch(p), 0), vec))

    def jet(p: Point3):
        f, (R, dR) = factor.batch(p), rot_B.jet(p)
        if grad_h is not None:
            R, dR = R + grad_h.batch(p), dR + _derivatives(grad_h, p, scheme)
        d_vec = grad(factor, p, scheme)[:, None] * R + f * dR
        return (np.concatenate((np.expand_dims(scalar.batch(p), 0), f * R)),
                np.concatenate((np.expand_dims(grad(scalar, p, scheme), 1), d_vec), axis=1))

    W = _BuiltW(evaluate, dom, vectorized=True, jet=jet)
    W.scalar = scalar
    return W


class _BuiltW(QuaternionField):
    """A W of ``_built_W``, which keeps its scalar part for ``_scalar_part``."""

    __slots__ = ("scalar",)


def _scalar_part(W: QuaternionField) -> ScalarField:
    """Sc W as a vectorized field on W's domain: a built W's scalar part,
    read without rot B, or any other W's first component."""
    fn = W.scalar.batch if isinstance(W, _BuiltW) else (lambda t: W.batch(t)[0])
    return ScalarField(fn, W.domain, vectorized=True)


def build_W_prop2(w: VectorField, phi: ScalarField, h: Optional[ScalarField],
                  base: Point3, region: BoxDomain,
                  quad: QuadratureSpec = DEFAULT_QUAD,
                  scheme: DiffScheme = DEFAULT_SCHEME,
                  C: complex = 0j, cells=None):
    """Solutions built from a purely vectorial w with (D + M^{D phi/phi}) w = 0.

    Returns (W, W0, Q):
      W  = (phi A[w/phi] - phi^-1 rot B[phi w] + grad h / phi) / 2
      W0 = phi A[w/phi] / 2                      (solves the Schrodinger eq.)
      Q  = -phi^-1 (grad phi + w / A[w/phi])     (solves the Riccati eq.)

    h is an arbitrary harmonic function (None means 0); C is the additive
    constant of the path reconstruction A.  W is ``_built_W`` with scalar
    part W0 and factor -1/(2 phi); rot B is evaluated analytically
    (``operator_rot_B``).  W0 and Q are vectorized, so a batch (a stencil's
    points included) takes one A[w/phi] call.
    """
    base = Point3(*base)
    dom = w.domain.intersect(phi.domain)

    ratio = VectorField(lambda t: w.batch(t) / _nonzero(phi.batch(t), "phi"),
                        dom, vectorized=True)
    Aw = operator_A(ratio, base, C, quad)
    rot_B = operator_rot_B(VectorField(lambda t: phi.batch(t) * w.batch(t), dom,
                                       vectorized=True), region, quad, cells=cells)

    def W0_eval(p: Point3):
        return 0.5 * phi.batch(p) * Aw.batch(p)

    W0 = ScalarField(W0_eval, dom, vectorized=True)
    factor = ScalarField(lambda t: -0.5 / _nonzero(phi.batch(t), "phi"), dom,
                         vectorized=True)

    def Q_eval(p: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(p), "phi")
        a = _nonzero(Aw.batch(p), "A[w/phi]")
        return -(grad(phi, p, scheme) + w.batch(p) / a) / value

    return (_built_W(W0, factor, -1.0, rot_B, h, dom, scheme), W0,
            VectorField(Q_eval, dom, vectorized=True))


def build_W_from_W0(W0: ScalarField, phi: ScalarField, h: Optional[ScalarField],
                    region: BoxDomain, quad: QuadratureSpec = DEFAULT_QUAD,
                    scheme: DiffScheme = DEFAULT_SCHEME,
                    cells=None) -> QuaternionField:
    """Complete a Schrodinger solution W0 to a Vekua solution W = W0 + Wv.

    Wv = -phi^-1 {rot B[phi^2 grad(W0/phi)] + grad h}: ``_built_W`` with
    factor -1/phi, rot B evaluated analytically (``operator_rot_B``).  The
    integrand is vectorized, so the grid build differences W0/phi over
    whole chunks of cells; W0 and phi may be vectorized or pointwise fields.
    """
    dom = W0.domain.intersect(phi.domain)
    def nonzero_phi(t: Point3):
        return _nonzero(phi.batch(t), "phi")

    ratio = ScalarField(lambda s: W0.batch(s) / nonzero_phi(s), dom, vectorized=True)
    rot_B = operator_rot_B(VectorField(lambda t: nonzero_phi(t) ** 2 * grad(ratio, t, scheme),
                                       dom, vectorized=True), region, quad, cells=cells)
    factor = ScalarField(lambda t: -1.0 / nonzero_phi(t), dom, vectorized=True)
    return _built_W(W0, factor, 1.0, rot_B, h, dom, scheme)


def build_W0_from_W(Wv: VectorField, phi: ScalarField, base: Point3,
                    quad: QuadratureSpec = DEFAULT_QUAD,
                    scheme: DiffScheme = DEFAULT_SCHEME,
                    C: complex = 0j) -> ScalarField:
    """Recover the scalar part matching a vector part Wv of a Vekua solution.

    W0 = -phi A[phi^-2 rot(phi Wv)] with the path constant C of A.  When Wv
    has a jet, so has phi Wv (by the product rule, with a stencil of phi),
    and rot(phi Wv) is taken from it.
    """
    dom = Wv.domain.intersect(phi.domain)

    def prod_jet(s: Point3):
        v, d = Wv.jet(s)
        f = phi.batch(s)
        return f * v, grad(phi, s, scheme)[:, None] * v + f * d

    prod = VectorField(lambda s: phi.batch(s) * Wv.batch(s), dom, vectorized=True,
                       jet=None if Wv.jet is None else prod_jet)

    def integrand(t: Point3) -> np.ndarray:
        value = _nonzero(phi.batch(t), "phi")
        return rot(prod, t, scheme) / (value * value)

    A = operator_A(VectorField(integrand, dom, vectorized=True), Point3(*base), C, quad)
    return ScalarField(lambda p: -phi.batch(p) * A.batch(p), dom, vectorized=True)


def euler_residual(W: QuaternionField, Q1: VectorField, p: Point3,
                   scheme: DiffScheme = DEFAULT_SCHEME):
    """D W + Q1 conj_h(W) at p (defect of the first-order reduction): a
    Biquaternion, or its (4, *S) components over a batch of shape S."""
    p = Point3(*p)
    batched = _batched(p)
    Q1p = (0j, *_parts(Q1.batch(p), batched))
    Wp, DW = _value_and_dirac(W, p, scheme)
    return _assembled([d + m for d, m in zip(DW, _product(Q1p, _conj(Wp)))], batched)


def q_from_scw(W: QuaternionField, scheme: DiffScheme = DEFAULT_SCHEME) -> VectorField:
    """Q = -D(Sc W)/Sc W, the gradient quotient of the scalar part (of a
    built W read without rot B, see ``_scalar_part``)."""
    scw = _scalar_part(W)

    def Q_eval(p: Point3) -> np.ndarray:
        value = _nonzero(scw.batch(p), "Sc W")
        return -grad(scw, p, scheme) / value

    return VectorField(Q_eval, W.domain, vectorized=True)


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
    (``operator_rot_B``), and W is ``_built_W`` with factor -exp(A[Q1]).
    The brace integrand is vectorized, so the grid build evaluates it, with
    both A's inside it, over whole chunks of cells; Q and Q1 may be
    vectorized or pointwise fields.
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
    scalar = ScalarField(lambda t: np.exp(-A_Q.batch(t)), dom, vectorized=True)
    factor = ScalarField(lambda t: -np.exp(A_Q1.batch(t)), dom, vectorized=True)
    return _built_W(scalar, factor, 1.0, rot_B, h, dom, scheme)


def picard_lhs(Q1: VectorField, Q2: VectorField, Q3: VectorField, Q4: VectorField,
               p: Point3, scheme: DiffScheme = DEFAULT_SCHEME,
               include_cross_terms: bool = True):
    """Four-solution identity: the cross-ratio style combination

        T(1,2) + T(3,4) - T(1,4) - T(3,2),
        T(a,b) = [D(Qa - Qb) - 2 Qa x Qb] / (Qa - Qb),

    which vanishes when all four fields solve the Riccati equation with one
    common potential.  Quotients are right divisions X (Qa-Qb)^-1, the side
    on which the proof cancels; include_cross_terms=False drops the
    noncommutativity corrections, which breaks the identity and is exposed
    for sensitivity experiments.

    A Biquaternion at one point; over a batch of points of shape S, its
    (4, *S) components, within a few ulps of the pointwise values (the
    products of complex arrays may round differently).  Each field is
    evaluated once at p and once per stencil point, stacked over a batch
    (every term's stencil, p included, checked first), and D(Qa - Qb) is
    differenced from those values.
    """
    p = Point3(*p)
    batched = _batched(p)
    fields = (Q1, Q2, Q3, Q4)
    pairs = ((0, 1), (2, 3), (0, 3), (2, 1))
    for ia, ib in pairs:  # every term's stencil; all four have the same points
        stencil, P = _stencil(fields[ia].domain.intersect(fields[ib].domain), p, scheme,
                              include_center=True)
    # at[f](q): field f at stencil point q (over a batch, q's index in P)
    at = [Q.batch if P is None else _stacked(Q, P) for Q in fields]
    centre = [f(p if P is None else 0) for f in at]
    values = [[[f(q) for q in pts] for _, pts in stencil] for f in at]  # [f][axis][point]

    def term(ia: int, ib: int):
        va, vb = centre[ia], centre[ib]
        # _d1 over the differences themselves, as points evaluated to their values
        deriv = np.array([_d1(lambda v: v, h, [a - b for a, b in zip(fa, fb)])
                          for (h, _), fa, fb in zip(stencil, values[ia], values[ib])],
                         dtype=complex)
        X = _parts(_dirac_sum(deriv, (3,), batched, 1), batched)
        if include_cross_terms:  # X - 2 (Qa x Qb); the scalar part is unchanged
            c = _parts(cross(va, vb), batched)
            X = (X[0], X[1] - c[0] * 2.0, X[2] - c[1] * 2.0, X[3] - c[2] * 2.0)
        return _product(X, _inverse((0j, *_parts(va - vb, batched))))

    total = [a + b - c - d for a, b, c, d in zip(*(term(*pair) for pair in pairs))]
    return _assembled(total, batched)
