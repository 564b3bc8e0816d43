"""Fields on subdomains of R^3 and their differential/integral operators.

Conventions
-----------
* Fields carry closed-form evaluators plus a box domain with an optional
  excluded-set predicate; grids exist only as CLI export artifacts.  The
  predicate must broadcast over a Point3 of arrays (see ``BoxDomain``), so
  a batch of points is checked with one call of it.
* ``F(p)`` evaluates one point.  ``F.batch(P)`` evaluates a Point3 of
  equal-shape coordinate arrays and returns the component axis first:
  shape ``S`` for a scalar field, ``(3, *S)`` for a vector field and
  ``(4, *S)``, the four biquaternion components, for a quaternion field
  (whose ``F(p)`` is a Biquaternion).  A field built with
  ``vectorized=True`` declares that its evaluator broadcasts over such
  arrays (a constant return is broadcast), so ``batch`` calls it once;
  any other field is called once per point, with Python floats, and an
  error there is raised as the call at that point alone raises it (see
  ``errors.Riccati3dError`` for ``index`` and ``where``).  The volume-grid
  build of B evaluates through ``batch``; operator A calls it once per
  quadrature round, for the nodes of every distinct leg in that round.
* Derivatives are central finite differences (order 2 or 4) with a relative
  step ``h * max(1, |coordinate|)`` per axis.  Every stencil point is checked
  (box, excluded set; else DomainError) before any point is evaluated, and
  ``riccati_residual`` takes -div Q and rot Q from one stencil of Q.
  ``grad``, ``div``, ``rot``, ``laplacian``, ``dirac_left``, ``dirac_right``
  and the stencil also take a batch: the stencil is checked for every target
  with one mask, its points are stacked and evaluated with one ``F.batch``
  call per slice of at most ``_STACK_POINTS`` points (so a small batch pays
  the per-call cost once), and results keep the component axis first.  A bad
  stencil point raises the DomainError the pointwise loop raises at the first
  offending target (points printed as Python floats), with ``index`` naming
  that target and ``where`` every target with a bad stencil point.  A field
  with a ``jet`` (its exact first derivative, see ``_Field``) is not
  differenced: once the stencil is checked, ``grad``, ``div``, ``rot`` and the
  Dirac operators take the jet's derivatives.
* Dual-use evaluators serve ``F(p)`` and ``F.batch`` with one body: guards
  go through ``errors._raise_at`` and transcendental functions are numpy
  ufuncs, which run the same loop for one point and for a batch, so a batch
  gives the values of ``F(p)`` bit for bit.
* ``dirac_left`` is sum_k e_k d_k (the Moisil-Theodoresco operator), equal to
  -div + grad + rot on the scalar/vector split; ``dirac_right`` puts e_k on
  the right and flips the rot sign.  Both difference the field's scalar and
  vector parts as ``grad`` and the Jacobian do, and add each component's
  terms in the order of the sum over e_1, e_2, e_3, so they equal that sum
  of biquaternion products bit for bit.  Over a batch they return the
  ``(4, *S)`` components, each column equal to the Biquaternion at its point
  bit for bit: the assembly only adds, and ``_d1`` only scales complex
  values by real floats, which numpy rounds as Python does.
* The path-reconstruction operator A integrates on the fixed axis-ordered
  path (x-leg, then y-leg, then z-leg) from its base point, with one fixed
  Gauss-Legendre rule for any number of targets (``A(p)`` is the one-target
  batch).  A batch's targets with one x share an x-leg and those with one
  (x, y) a y-leg, compared by bit pattern and integrated once, with the
  values of integrating at each target bit for bit.  The Newtonian volume
  potential B uses midpoint tensor quadrature in which each cell's mass is
  a compact smooth blob of radius ``_BLOB_RADIUS`` cell sides, so B is
  smooth and every derivative of it is meaningful.  B, ``operator_rot_B``
  (its curl in closed form, no finite differences) and rot B's jet (the
  curl's Jacobian) share one grid (the three axes of cell centres and a
  dV-scaled real row, 8 bytes per cell, for each real or imaginary part
  the integrand fills) and one pass per target: a table of kernel columns
  (K; the gradient; gradient and Hessian) and one real einsum contraction
  of the filled rows, whose summation order does not follow the BLAS
  thread count.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .biquat import Biquaternion
from .errors import DomainError, QuadratureFailure, Riccati3dError, _item

__all__ = [
    "Point3",
    "BoxDomain",
    "ScalarField",
    "VectorField",
    "QuaternionField",
    "DiffScheme",
    "QuadratureSpec",
    "diff",
    "grad",
    "div",
    "rot",
    "laplacian",
    "dirac_left",
    "dirac_right",
    "operator_A",
    "operator_B",
    "operator_rot_B",
    "vec3",
]


class Point3(NamedTuple):
    x: float
    y: float
    z: float


_INF = float("inf")


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with an optional excluded-set predicate.

    The predicate must be pure and deterministic; it should be conservative
    (inflated by the stencil width) so derivatives never touch a singularity.
    It takes one point and returns a bool, and it must broadcast: given a
    Point3 of equal-shape arrays of finite floats it returns a bool array of
    that shape, without raising or warning (so it combines with ``&``, ``|``
    and ``~``, not ``and``, ``or`` and ``not``).  ``ok_mask`` calls it once.
    """

    lower: Point3 = Point3(-_INF, -_INF, -_INF)
    upper: Point3 = Point3(_INF, _INF, _INF)
    excluded: Optional[Callable[[Point3], bool]] = None

    def __post_init__(self):
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("BoxDomain requires lower < upper componentwise")

    @classmethod
    def unbounded(cls, excluded: Optional[Callable[[Point3], bool]] = None) -> "BoxDomain":
        return cls(excluded=excluded)

    @classmethod
    def box(cls, lower, upper, excluded=None) -> "BoxDomain":
        return cls(Point3(*lower), Point3(*upper), excluded)

    def in_box(self, p: Point3) -> bool:
        lo, hi = self.lower, self.upper
        return bool(lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
                    and lo[2] <= p[2] <= hi[2])

    def ok(self, p: Point3) -> bool:
        lo, hi = self.lower, self.upper  # in_box, inlined: ok runs per stencil point
        x, y, z = p
        if not (lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1] and lo[2] <= z <= hi[2]):
            return False
        return self.excluded is None or not self.excluded(p)

    def ok_mask(self, P: Point3) -> np.ndarray:
        """``ok`` at every point of a Point3 of equal-shape arrays, with one
        call of the predicate."""
        lo, hi = self.lower, self.upper
        mask = ((lo[0] <= P[0]) & (P[0] <= hi[0]) & (lo[1] <= P[1]) & (P[1] <= hi[1])
                & (lo[2] <= P[2]) & (P[2] <= hi[2]))
        if self.excluded is None:
            return mask
        return mask & ~np.asarray(self.excluded(P), dtype=bool)

    def intersect(self, other: "BoxDomain") -> "BoxDomain":
        """The common box and the union of the excluded sets."""
        lower = Point3(*(max(a, b) for a, b in zip(self.lower, other.lower)))
        upper = Point3(*(min(a, b) for a, b in zip(self.upper, other.upper)))
        a, b = self.excluded, other.excluded
        if a is None or b is None:
            excl = b if a is None else a
        else:
            excl = lambda q: a(q) | b(q)
        return BoxDomain(lower, upper, excl)

    def bounded(self) -> bool:
        return all(math.isfinite(c) for c in (*self.lower, *self.upper))


# The helpers below serve both one point and a batch; they tell the two apart
# by ``type(x) is np.ndarray``, which costs a fraction of ``isinstance`` or
# ``np.ndim`` on the scalar path.

def _batched(p: Point3) -> bool:
    """True when p holds coordinate arrays rather than one point."""
    return type(p[0]) is np.ndarray and p[0].ndim > 0


def _point(P: Point3, i: int) -> Point3:
    """Point i (flat C order) of a batch as a Point3 of Python floats; P
    itself at one point."""
    return Point3(*(_item(c, i) for c in P))


def vec3(x, y, z) -> np.ndarray:
    """Stack three components, component axis first: shape (3,) for scalars,
    (3, *S) when any component is an array of shape S (the others are
    broadcast).  For evaluators that serve both ``F(p)`` and ``F.batch``."""
    if np.ndim(x) == np.ndim(y) == np.ndim(z) == 0:
        return np.array((x, y, z), dtype=complex)
    return np.array(np.broadcast_arrays(x, y, z), dtype=complex)


class _Field:
    """Shared wrapper: a callable evaluator plus its domain.

    ``vectorized=True`` declares that ``fn`` also accepts a Point3 of
    equal-shape float arrays and returns its values component axis first
    (see the module docstring), or a vector field's three components as a
    list in which scalars are broadcast; ``F(p)`` is unaffected.

    ``jet``, when given, is the field's exact first derivative: ``jet(p)``
    returns the values at p (as ``batch`` gives them) and the derivatives
    ``[d_x F, d_y F, d_z F]``, axis first as ``_derivatives`` returns them,
    at one point or over a batch.  The derivative operators check their
    stencil against the domain as before and then take the derivatives
    from ``jet`` instead of differencing ``fn``.
    """

    __slots__ = ("fn", "domain", "vectorized", "jet")
    _lead: tuple = ()  # component shape of one value

    def __init__(self, fn: Callable[[Point3], object], domain: Optional[BoxDomain] = None,
                 vectorized: bool = False, jet: Optional[Callable[[Point3], tuple]] = None):
        self.fn = fn
        self.domain = domain if domain is not None else BoxDomain.unbounded()
        self.vectorized = vectorized
        self.jet = jet

    def __call__(self, p: Point3):
        return self.fn(p)

    def batch(self, P: Point3):
        """Values at a Point3 of equal-shape arrays, component axis first.

        A vectorized field's evaluator is called once, any other field's once
        per point in C order, with Python floats.  A Point3 of scalars gives
        the value at that point (``self(P)``, or a quaternion field's four
        components).  A typed error names its point of the batch in
        ``index``; from the per-point calls it is the first one raised, with
        ``where`` holding at every point that raised the same type.
        """
        if not _batched(P):
            return self(P)
        shape = P[0].shape
        if self.vectorized:
            v = self.fn(P)
            if type(v) is list:  # components, scalars among them broadcast
                v = np.broadcast_arrays(*v)
            v = np.asarray(v, dtype=complex)
            if v.shape == self._lead + shape:
                return v
            v = v.reshape(v.shape + (1,) * (len(self._lead) + len(shape) - v.ndim))
            return np.broadcast_to(v, self._lead + shape)
        out = np.empty(self._lead + (P[0].size,), dtype=complex)
        first = None
        at = self.batch if isinstance(self, QuaternionField) else self  # a point's values
        for n, p in enumerate(zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in P))):
            try:
                out[..., n] = at(Point3(*p))
            except Riccati3dError as exc:
                if first is None:
                    first, where = exc, np.zeros(out.shape[-1], dtype=bool)
                    exc.index = n  # the point of this batch it is about
                where[n] = type(exc) is type(first)
        if first is not None:
            first.where = where.reshape(shape)
            raise first
        return out.reshape(self._lead + shape)


class ScalarField(_Field):
    """Point3 -> complex."""

    def __call__(self, p: Point3) -> complex:
        return complex(self.fn(p))


class VectorField(_Field):
    """Point3 -> 3 complex components, identified with a pure-vector biquaternion."""

    _lead = (3,)

    def __call__(self, p: Point3) -> np.ndarray:
        return np.asarray(self.fn(p), dtype=complex)


class QuaternionField(_Field):
    """Point3 -> Biquaternion.

    ``batch`` gives the four components, axis first: ``(4, *S)``.  A
    vectorized evaluator returns the four components at one point and over
    a batch (a list in which scalars are broadcast, or an array), and
    ``F(p)`` builds the Biquaternion from them; any other evaluator returns
    a Biquaternion.
    """

    _lead = (4,)

    def __call__(self, p: Point3) -> Biquaternion:
        v = self.fn(p)
        if self.vectorized:
            return Biquaternion(*v)
        if not isinstance(v, Biquaternion):
            raise TypeError(f"quaternion field evaluator returned {type(v)!r}")
        return v

    def batch(self, P: Point3) -> np.ndarray:
        if not _batched(P):
            return np.array(self(P).components)
        return super().batch(P)


def _vector_part(W: QuaternionField) -> VectorField:
    """The vector part of W as a vectorized field, with W's jet, if any,
    passed on."""
    def jet(p: Point3):
        v, d = W.jet(p)
        return v[1:], d[:, 1:]

    return VectorField(lambda t: W.batch(t)[1:], W.domain, vectorized=True,
                       jet=None if W.jet is None else jet)


@dataclass(frozen=True)
class DiffScheme:
    """Central finite differences: relative step h, order 2 or 4."""

    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if type(self.h) is bool or not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"DiffScheme.h must be finite and positive, got {self.h!r}")
        if type(self.order) is not int or self.order not in (2, 4):
            raise ValueError(f"DiffScheme.order must be the int 2 or 4, got {self.order!r}")

    def step(self, p: Point3, axis: int):
        """h * max(1, |p[axis]|): a float at one point, an array for a batch."""
        a = abs(p[axis])
        return self.h * (np.maximum(1.0, a) if type(a) is np.ndarray else max(1.0, a))


# numpy's leggauss is tested up to this degree, and builds an n x n matrix
_MAX_GAUSS_ORDER = 100


@dataclass(frozen=True)
class QuadratureSpec:
    """Line and volume quadrature configuration.

    gauss_order is the order of the fixed Gauss-Legendre rule of operator A,
    an int from 1 to ``_MAX_GAUSS_ORDER``.  volume_grid is the midpoint
    resolution per axis of the Newtonian potential.
    """

    gauss_order: int = 12  # the order tools/gauss_order.py's drift rule picks
    volume_grid: int = 64

    def __post_init__(self):
        # type(x) is int, not isinstance: True is an int too
        if type(self.gauss_order) is not int or not 1 <= self.gauss_order <= _MAX_GAUSS_ORDER:
            raise ValueError(f"gauss_order must be an int from 1 to {_MAX_GAUSS_ORDER}, "
                             f"got {self.gauss_order!r}")
        if type(self.volume_grid) is not int:
            raise ValueError(f"volume_grid must be an int, got {self.volume_grid!r}")


DEFAULT_SCHEME = DiffScheme()
DEFAULT_QUAD = QuadratureSpec()


# --------------------------------------------------------------------------
# finite differences

def _stencil_points(p: Point3, scheme: DiffScheme):
    """One ``(h, points)`` pair per axis: p + h, p - h (then p + 2h, p - 2h).

    Each point is p with coordinate ``axis`` replaced by ``p[axis] +- j*h``;
    for a batch, h and each point hold one entry per target.
    """
    x, y, z = p
    reach = (1, 2) if scheme.order == 4 else (1,)
    stencil = []
    for axis in range(3):
        h, c = scheme.step(p, axis), p[axis]
        stencil.append((h, tuple(
            Point3(v, y, z) if axis == 0 else Point3(x, v, z) if axis == 1 else Point3(x, y, v)
            for j in reach for v in (c + j * h, c - j * h))))
    return stencil


def _stencil(domain: BoxDomain, p: Point3, scheme: DiffScheme,
             include_center: bool = False):
    """``(stencil, P)``: ``_stencil_points(p, scheme)``, with the centre (when
    included) and every point checked before any of them is evaluated.

    At one point P is None.  A batch stacks its points (centre first) into
    P, of shape ``(K, *S)``, checked with one mask; its stencil names them
    by index along P's first axis, for ``_stacked(f, P)``.  A bad point
    raises the pointwise check's error at the first offending target, whose
    index it carries, with ``where`` at every target with a bad point.
    """
    stencil = _stencil_points(p, scheme)
    points = ([p] if include_center else []) + [q for _, pts in stencil for q in pts]
    if not _batched(p):
        for q in points:
            if not domain.ok(q):
                raise _stencil_error(q, 0, domain.in_box(q))
        return stencil, None
    P = Point3(*map(np.stack, zip(*points)))
    ok = domain.ok_mask(P).reshape(len(points), -1)
    bad = ~ok.all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))  # the first target with a bad point
        k = int(np.argmin(ok[:, i]))  # its first bad point, in check order
        q = Point3(*(float(c.flat[i]) for c in points[k]))
        raise _stencil_error(q, i, domain.in_box(q), bad.reshape(p[0].shape))
    k, m = int(include_center), len(stencil[0][1])
    return [(h, range(k + a * m, k + a * m + m)) for a, (h, _) in enumerate(stencil)], P


# points per ``F.batch`` call of a stacked stencil: up to 85 targets take one
# call for 12 stencil points, and 1024 or more (the exporter's and the grid
# build's chunks) one call per stencil point, so their peak memory stays put
_STACK_POINTS = 1024


def _stacked(f, P: Point3):
    """f at the points stacked in P, by their index: one ``f.batch`` call per
    slice of P of at most ``_STACK_POINTS`` points and at least one stencil
    point (passed at shape S when alone), each value a view of a result.  A
    typed error names its target: ``index`` modulo the batch size (the first
    raising point in C order is the one that calls per stencil point meet
    first) and ``where`` every target with a raising point in that slice."""
    n, S, values = P[0][0].size, P[0].shape[1:], []
    step = max(1, _STACK_POINTS // n)
    for k in range(0, len(P[0]), step):
        try:
            v = f.batch(Point3(*(c[k] if step == 1 else c[k:k + step] for c in P)))
        except Riccati3dError as exc:
            exc.index = None if exc.index is None else exc.index % n
            exc.where = None if exc.where is None else exc.where.reshape(-1, *S).any(axis=0)
            raise
        values.extend([v] if step == 1 else v.swapaxes(0, len(f._lead)))
    return values.__getitem__


def _stencil_error(q: Point3, index: int, in_box: bool, where=None) -> DomainError:
    if not in_box:
        return DomainError(f"stencil point {q} outside domain box", index=index, where=where)
    return DomainError(f"stencil point {q} in excluded set; shrink h or move p",
                       index=index, where=where)


def _d1(evalf, h: float, pts):
    """First derivative along one axis from its ``(h, points)`` stencil."""
    if len(pts) == 2:
        return (evalf(pts[0]) - evalf(pts[1])) * (0.5 / h)
    f1, fm1, f2, fm2 = map(evalf, pts)
    return (fm2 - f2 + (f1 - fm1) * 8.0) * (1.0 / (12.0 * h))


def _d2(evalf, f0, h: float, pts):
    """Second derivative along one axis; f0 is the value at the centre."""
    if len(pts) == 2:
        return (evalf(pts[0]) + evalf(pts[1]) - f0 * 2.0) * (1.0 / (h * h))
    f1, fm1, f2, fm2 = map(evalf, pts)
    return ((f1 + fm1) * 16.0 - (f2 + fm2) - f0 * 30.0) * (1.0 / (12.0 * h * h))


def _derivatives(f, p: Point3, scheme: DiffScheme) -> np.ndarray:
    """[d_x f, d_y f, d_z f] from one checked stencil, axis first: shape
    (3, *lead, *S) for values of shape lead and a batch of shape S, whose
    stencil f takes in the stacked calls of ``_stacked``.  A quaternion
    field is differenced through its four components; a field with a
    ``jet`` gives its exact derivatives once the stencil is checked."""
    stencil, P = _stencil(f.domain, p, scheme)
    if f.jet is not None:
        return f.jet(p)[1]
    evalf = (_stacked(f, P) if P is not None
             else f.batch if isinstance(f, QuaternionField) else f)
    return np.array([_d1(evalf, *s) for s in stencil], dtype=complex)


def grad(f: ScalarField, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME) -> np.ndarray:
    """Gradient of a scalar field as a 3-vector of complex numbers; (3, *S)
    for a batch of shape S."""
    return _derivatives(f, p, scheme)


def _jacobian(F: VectorField, p: Point3, scheme: DiffScheme) -> np.ndarray:
    """J[i, j] = d F_i / d x_j; shape (3, 3, *S) for a batch of shape S."""
    return _derivatives(F, p, scheme).swapaxes(0, 1)


def div(F: VectorField, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME):
    """Divergence: a complex number at one point, an array of shape S for a
    batch of shape S."""
    J = _jacobian(F, p, scheme)
    value = J[0, 0] + J[1, 1] + J[2, 2]
    return value if _batched(p) else complex(value)


def _curl(J: np.ndarray) -> np.ndarray:
    """rot F from the Jacobian J[i, j] = d F_i / d x_j."""
    return np.array([
        J[2, 1] - J[1, 2],
        J[0, 2] - J[2, 0],
        J[1, 0] - J[0, 1],
    ])


def rot(F: VectorField, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME) -> np.ndarray:
    return _curl(_jacobian(F, p, scheme))


def laplacian(f, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME):
    """Componentwise Laplacian of a scalar, vector or quaternion field (a
    batch of points gives arrays, component axis first)."""
    return _laplacian_and_centre(f, p, scheme)[0]


def _laplacian_and_centre(f, p: Point3, scheme: DiffScheme):
    """``laplacian`` and the value at p it differences, for callers that
    need that value too: f is evaluated once per stencil point, p included
    (over a batch, all of them in the stacked calls of ``_stacked``)."""
    stencil, P = _stencil(f.domain, p, scheme, include_center=True)
    evalf = f if P is None else _stacked(f, P)
    f0 = evalf(p if P is None else 0)
    dxx, dyy, dzz = (_d2(evalf, f0, *s) for s in stencil)
    return dxx + dyy + dzz, f0


def _dirac(f, p: Point3, scheme: DiffScheme, side: int):
    """sum_k e_k d_k f (side 1) or sum_k (d_k f) e_k (side -1): -div + grad
    + side * rot on the scalar/vector split, each component's terms added in
    the order of the sum over e_1, e_2, e_3.  A Biquaternion at one point,
    its (4, *S) components over a batch of shape S."""
    if not isinstance(f, (ScalarField, VectorField, QuaternionField)):
        raise TypeError(f"unsupported field type {type(f)!r}")
    return _dirac_sum(_derivatives(f, p, scheme), f._lead, _batched(p), side)


def _dirac_sum(deriv: np.ndarray, lead: tuple, batched: bool, side: int):
    """``_dirac`` from the derivatives ``deriv`` (axis first) of a field
    whose values have component shape ``lead``."""
    if lead == (4,):
        d = deriv  # d[k] = d_k f: scalar part, vector part
    else:  # the part that a scalar or vector field lacks is zero
        d = np.zeros((3, 4) + deriv.shape[1 + len(lead):], dtype=complex)
        d[:, slice(1, 4) if lead else 0] = deriv
    (g1, x1, y1, z1), (g2, x2, y2, z2), (g3, x3, y3, z3) = d if batched else d.tolist()
    if side < 0:  # the rot terms change sign
        y1, z1, x2, z2, x3, y3 = -y1, -z1, -x2, -z2, -x3, -y3
    # from 0j, as the sum over e_k starts: a sum that cancels to zero is +0
    parts = (0j - x1 - y2 - z3, 0j + g1 + z2 - y3, 0j + g2 - z1 + x3, 0j + y1 - x2 + g3)
    return np.array(parts) if batched else Biquaternion(*parts)


def dirac_left(f, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME):
    """D f = sum_k e_k d_k f = -div f_vec + grad f_0 + rot f_vec: a
    Biquaternion, or (4, *S) components for a batch of shape S."""
    return _dirac(f, p, scheme, 1)


def dirac_right(f, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME):
    """D_r f = sum_k (d_k f) e_k = -div f_vec + grad f_0 - rot f_vec: a
    Biquaternion, or (4, *S) components for a batch of shape S."""
    return _dirac(f, p, scheme, -1)


_DIFF_KINDS = {
    "grad": grad,
    "div": div,
    "rot": rot,
    "laplacian": laplacian,
    "dirac_left": dirac_left,
    "dirac_right": dirac_right,
}


def diff(kind: str, f, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME):
    """Dispatch to one of grad/div/rot/laplacian/dirac_left/dirac_right."""
    try:
        op = _DIFF_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown diff kind {kind!r}; expected one of {sorted(_DIFF_KINDS)}")
    return op(f, p, scheme)


# --------------------------------------------------------------------------
# line quadrature: the rule integrates a batch of intervals [a_i, b_i] of a
# function f(i, T) that takes interval indices and the node parameters T of
# those intervals (one row each) and returns the values at those nodes

@functools.lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


# legs per call of f: the rule sums each round of at most this many legs as
# it evaluates it, so beyond the sums its memory is that of one round
_LINE_CHUNK = 256
# below this order a leg's path is checked at this order's nodes too: the
# middle gap of n nodes is about pi / 2n of the leg (0.126 at 12, 0.048 at 32)
_PATH_CHECK_ORDER = 32


def _gauss_rule(f, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre of the given order, ``_LINE_CHUNK`` intervals per call of f,
    each round summed as it is evaluated: beyond its sums, the memory of one round."""
    nodes, weights = _gauss_nodes(order)
    sums = np.empty(a.size, dtype=complex)
    for i in range(0, a.size, _LINE_CHUNK):
        rnd = slice(i, i + _LINE_CHUNK)
        half = 0.5 * (b[rnd] - a[rnd])
        T = (0.5 * (a[rnd] + b[rnd]))[:, None] + half[:, None] * nodes
        V = f(np.arange(i, i + half.size), T)
        # summed node by node from 0j: accumulate adds in that fixed order
        terms = np.zeros((half.size, weights.size + 1), dtype=complex)
        np.multiply(weights, V, out=terms[:, 1:])
        sums[rnd] = half * np.add.accumulate(terms, axis=1)[:, -1]
    return sums


# --------------------------------------------------------------------------
# operator A: axis-ordered path reconstruction of a scalar potential

def operator_A(F: VectorField, base: Point3, C: complex = 0j,
               quad: QuadratureSpec = DEFAULT_QUAD) -> ScalarField:
    """Reconstruct the potential of a (curl-free) vector field.

    The integration path is fixed: the x-leg at (., base.y, base.z), then the
    y-leg at (x, ., base.z), then the z-leg at (x, y, .).  The returned field
    satisfies phi(base) = C, and grad phi = F wherever F is a gradient.

    Each leg is integrated by Gauss-Legendre of order ``quad.gauss_order``,
    whose nodes are one fixed set mapped onto the leg.  So the quadrature
    error is a smooth function of the end point, and a stencil that
    differences A (``cole_hopf`` of ``inverse_cole_hopf``, the W builders)
    sees the integral, not an error that jumps between neighbouring stencil
    points as an adaptive rule's does with its subdivision pattern.  The
    error grows as a leg nears a singularity of F: at the default order 12,
    -1/x from 1 to 3.6, 5.5 and 7.75 (``w_from_q_pair``'s legs on the tube)
    is off by 1.2e-12, 7.9e-10 and 4.2e-8 (round-off at order 32), and the
    catalog Qs' legs in their sample boxes by round-off.

    One routine integrates the legs of any number of targets, and ``A(p)``
    is ``A.batch`` at the one target p, so the two agree bit for bit.  A
    batch integrates each distinct leg once, at the first of its targets in
    C order: targets whose x has one bit pattern share an x-leg, those whose
    (x, y) has one share a y-leg, and z-legs are not shared.  A leg's nodes
    and sum do not depend on the other legs of its round, so every value is
    unchanged by the sharing.  The rule asks for F in rounds of at most
    ``_LINE_CHUNK`` legs, each one ``F.batch`` call over the nodes of every
    distinct leg in it, by target, then leg, then node.  Before F is
    evaluated, every node of a round is checked against the domain, and
    below order ``_PATH_CHECK_ORDER`` so are that order's nodes on each leg,
    so the path check does not thin out with the order.  F's values are
    checked to be finite.  Either failure raises DomainError naming the
    round's first bad point.  That error, and a typed error raised by F,
    name the first target of the leg it came from (``index``) and, over a
    batch, every target with a leg that has a failing point in that round
    (``where``).
    """
    base = Point3(*base)
    base_coords = np.array(base, dtype=float)
    domain = F.domain
    if not domain.ok(base):
        raise DomainError(f"operator A base point {base} not in domain")
    # the path check's points on [0, 1]: all, or with no excluded set the
    # outer two (a box is convex)
    probes = (0.5 + 0.5 * _gauss_nodes(_PATH_CHECK_ORDER)[0])[
        slice(None) if domain.excluded is not None else [0, -1]]

    def eval_at(P: Point3):
        shape = np.shape(P[0])
        corners = np.stack([np.ravel(c) for c in P], axis=1, dtype=float)  # a row per target
        # rep[t, m]: the first target in C order whose leg m is t's, keyed by the
        # bits of x (x-leg) or of (x, y) (y-leg); each z-leg is its target's own
        n = len(corners)
        targets = np.arange(n)
        rep = targets.repeat(3).reshape(n, 3)
        if n > 1:  # a lone target shares no leg
            bits = corners.view(np.int64)
            order = np.lexsort(bits.T[1::-1])  # by x, then y: an x-group is not in C order
            key = bits[order, :2]
            new = np.ones((n, 2), dtype=bool)  # where a group starts, in sorted order
            np.logical_or.accumulate(key[1:] != key[:-1], axis=1, out=new[1:])
            for m in range(2):  # a group's first target in C order: its least index
                first = np.minimum.reduceat(order, np.flatnonzero(new[:, m]))
                rep[order, m] = first[np.cumsum(new[:, m]) - 1]
        # the kept legs, by target then axis (a zero-length leg is 0j); a leg holds
        # its target's coordinates before its axis fixed and the base's after
        rows, axes = np.nonzero((corners != base_coords) & (rep == targets[:, None]))
        fixed = np.where(np.arange(3) < axes[:, None], corners[rows], base_coords)

        def f(legs: np.ndarray, T: np.ndarray) -> np.ndarray:
            """F's leg component at parameters T, row r on leg legs[r], from
            one F.batch call over the nodes in (target, leg, node) order."""
            k = axes[legs]

            def on_legs(S: np.ndarray) -> Point3:
                return Point3(*(np.where((k == m)[:, None], S, fixed[legs, m, None])
                                for m in range(3)))

            def repoint(exc: Riccati3dError, r: int, bad) -> Riccati3dError:
                """exc about a point of leg row ``r``: ``index`` names its
                target and, over a batch, ``where`` every target sharing a leg
                with a point in ``bad`` (a row per leg)."""
                exc.index, exc.where = int(rows[legs[r]]), None
                if bad is not None and shape:
                    hit = np.zeros((n, 3), dtype=bool)
                    failing = legs[bad.reshape(legs.size, -1).any(axis=1)]
                    hit[rows[failing], axes[failing]] = True
                    exc.where = hit[rep, np.arange(3)].any(axis=1).reshape(shape)
                return exc

            def check(S: np.ndarray, bad: np.ndarray, what: str):
                """Raise DomainError(what + the first point of bad, S its parameters)."""
                if bad.any():
                    r, j = divmod(int(bad.argmax()), S.shape[1])
                    node = Point3(*map(float, (*corners[rows[legs[r]]][:k[r]], S[r, j],
                                               *base[k[r] + 1:])))
                    raise repoint(DomainError(what + str(node)), r, bad)

            nodes = on_legs(T)
            check(T, ~domain.ok_mask(nodes), "integration path crosses excluded set at ")
            if quad.gauss_order < _PATH_CHECK_ORDER:  # sparser nodes than the check's
                S = a[legs, None] + (b[legs] - a[legs])[:, None] * probes
                check(S, ~domain.ok_mask(on_legs(S)), "integration path crosses excluded set at ")
            try:
                V = F.batch(nodes)[k, np.arange(legs.size)]
            except Riccati3dError as exc:
                if exc.index is not None:
                    repoint(exc, exc.index // T.shape[1], exc.where)
                raise
            check(T, ~np.isfinite(V), "line integrand is not finite at ")
            return V

        a, b = base_coords[axes], corners[rows, axes]
        sums = np.zeros((n, 3), dtype=complex)
        sums[rows, axes] = _gauss_rule(f, a, b, quad.gauss_order)
        sums = sums[rep, np.arange(3)]  # every target's legs, a shared one from its kept leg
        return (complex(C) + sums[:, 0] + sums[:, 1] + sums[:, 2]).reshape(shape)

    return ScalarField(eval_at, domain, vectorized=True)


# --------------------------------------------------------------------------
# operator B: Newtonian volume potential

_BUILD_CHUNK = 2048  # cells per integrand batch: bounds the build's scratch memory
_BLOB_RADIUS = 2.2  # radius of each cell's mass blob, in largest cell sides


class _Grid(NamedTuple):
    """A built volume grid: the rows the integrand fills, 8 bytes per cell each."""

    axes: tuple  # three 1-D arrays of cell centres; the cells are their C-order product
    rows: np.ndarray  # (R, C) dV * the filled rows of (Re F, Im F), 0 in excluded cells
    comps: np.ndarray  # (R,) which of Re F_0..2, Im F_0..2 (0..5) each row holds
    a: float  # blob radius


# the table column of 2 g' d_j d_m for each (j, m), in a pass of order 2
_HESSIAN_COLUMNS = np.array([[4, 7, 8], [7, 5, 9], [8, 9, 6]])


class _NewtonianPotential(VectorField):
    """Midpoint-grid discretization of the volume potential B (``order``
    0), or of its curl rot B (``order`` 1, with a ``jet``).

    The grid is built lazily on first evaluation and cached: the cell axes
    and dV times the integrand's real and imaginary rows, each allocated
    when the build first meets a nonzero value in it.  It is built through
    ``F.batch`` over chunks of ``_BUILD_CHUNK`` cell centres in C order, so
    a vectorized integrand is called once per chunk and any other once per
    cell, with the same values either way.  Cells the region's predicate
    excludes are never evaluated and contribute nothing; a non-finite
    integrand value raises DomainError naming the first such cell centre.

    Each cell mass contributes the potential of a compact C^1-density blob
    of radius ``_BLOB_RADIUS`` times the largest cell side instead of a
    point mass: outside that radius the kernel is exactly 1/(4 pi |x-y|),
    inside it is a polynomial, and no cell is dropped.  The discretized
    potential is therefore smooth, so its finite-difference derivatives are
    meaningful (in particular its Laplacian reproduces -F locally).

    ``F(p)``, ``F.batch`` and ``jet`` make one pass per target, in C order
    (``_pass``; targets x cells passes were measured slower).  The kernels
    take their far form on every cell and then overwrite the few cells
    within the blob radius (found with ``flatnonzero``) with the
    polynomial; those cells enter the far form at the radius itself, so a
    target on a cell centre divides by nothing.

    ``cells`` overrides the per-axis cell counts; the default is the cubic
    quad.volume_grid per axis.  Use it to keep cells near-cubic on
    elongated regions.
    """

    __slots__ = ("region", "quad", "cells", "_grid", "_order", "_scratch")

    def __init__(self, F: VectorField, region: BoxDomain, quad: QuadratureSpec,
                 cells: Optional[tuple], order: int):
        if cells is None:
            cells = (quad.volume_grid,) * 3
        if not (isinstance(cells, (tuple, list)) and len(cells) == 3 and all(
                isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 8
                for c in cells)):
            raise QuadratureFailure(f"operator B cells must be three ints >= 8, got {cells!r}")
        if not region.bounded():
            raise QuadratureFailure("operator B needs a bounded region")
        self.region = region
        self.quad = quad
        self.cells = tuple(int(c) for c in cells)
        self._grid = None
        self._order = order
        # each thread's kernel table, reused by its next pass: a new table per
        # target is faulted in afresh whenever the allocator trimmed the last
        self._scratch = threading.local()
        jet = functools.partial(self._per_target, order=2) if order else None
        super().__init__(F, BoxDomain.unbounded(), jet=jet)

    def _ensure_grid(self) -> _Grid:
        """The cell axes and scaled integrand rows, built on first use."""
        if self._grid is not None:
            return self._grid
        lo, hi = self.region.lower, self.region.upper
        steps = [(hi[k] - lo[k]) / self.cells[k] for k in range(3)]
        axes = tuple(lo[k] + (np.arange(self.cells[k]) + 0.5) * steps[k] for k in range(3))
        size = math.prod(self.cells)
        rows, filled = np.zeros((0, size)), np.zeros(6, dtype=bool)
        for start in range(0, size, _BUILD_CHUNK):
            P = Point3(*(axis[i] for axis, i in zip(axes, np.unravel_index(
                np.arange(start, min(start + _BUILD_CHUNK, size)), self.cells))))
            # excluded cells contribute nothing and are never evaluated
            keep = np.flatnonzero(self.region.ok_mask(P))
            if not keep.size:
                continue
            P = Point3(*(c[keep] for c in P))
            block = self.fn.batch(P)
            bad = ~np.isfinite(block).all(axis=0)
            if bad.any():
                raise DomainError("operator B integrand is not finite at cell centre "
                                  f"{Point3(*(float(c[bad][0]) for c in P))}")
            parts = np.concatenate((block.real, block.imag))
            now = filled | parts.any(axis=1)
            if (now != filled).any():  # a row met its first nonzero value
                grown = np.zeros((np.count_nonzero(now), size))
                grown[filled[now]] = rows
                rows, filled = grown, now
            rows[:, start + keep] = parts[filled]
        rows *= steps[0] * steps[1] * steps[2]
        self._grid = _Grid(axes, rows, np.flatnonzero(filled), _BLOB_RADIUS * max(steps))
        return self._grid

    @staticmethod
    def _blob_kernel(r2: np.ndarray, a: float) -> np.ndarray:
        """Potential of a unit-mass C^1 blob of radius a: density proportional
        to (1 - (r/a)^2)^2 inside, so the kernel is exactly 1/(4 pi r)
        outside and a polynomial (C^2-matched) inside."""
        near = np.flatnonzero(r2 < a * a)
        t2 = r2[near] / (a * a)
        out = np.maximum(r2, a * a)  # near cells at the radius: no division by 0
        np.sqrt(out, out=out)
        out *= 4.0 * np.pi
        np.divide(1.0, out, out=out)
        poly = (t2 / 3.0 - 0.4 * t2 * t2 + t2 ** 3 / 7.0
                + (1.0 - t2) ** 3 / 6.0)
        out[near] = (105.0 / (32.0 * np.pi * a)) * poly
        return out

    @staticmethod
    def _blob_kernel_grad(r2: np.ndarray, a: float) -> np.ndarray:
        """K'(r) / r for the kernel K of ``_blob_kernel``, as a function of
        r^2, so that grad K(|d|) = _blob_kernel_grad(|d|^2, a) * d.  Exactly
        -1/(4 pi r^3) outside radius a; both sides equal -1/(4 pi a^3) at
        r = a, and the value stays finite at r = 0."""
        near = np.flatnonzero(r2 < a * a)
        t2 = r2[near] / (a * a)
        out = np.maximum(r2, a * a)  # near cells at the radius: no division by 0
        out *= np.sqrt(out)
        np.divide(-1.0 / (4.0 * np.pi), out, out=out)
        # 1/3 - 0.8 t + 3 t^2/7 - (1 - t)^2/2, in Horner form
        out[near] = (105.0 / (16.0 * np.pi * a ** 3)) * (t2 * (0.2 - t2 / 14.0) - 1.0 / 6.0)
        return out

    @classmethod
    def _blob_kernel_slope(cls, r2: np.ndarray, a: float):
        """g = ``_blob_kernel_grad(r2, a)`` and g' = dg/d(r^2), so that the
        Hessian of K(|d|) is g delta_jm + 2 g' d_j d_m.  g' is exactly
        3/(8 pi r^5) outside radius a, 105/(16 pi a^5) (0.2 - (r/a)^2 / 7)
        inside; both sides equal 3/(8 pi a^5) at r = a."""
        g = cls._blob_kernel_grad(r2, a)
        slope = np.maximum(r2, a * a)  # -1.5 g / r^2 on the far cells
        np.divide(g, slope, out=slope)
        slope *= -1.5
        near = np.flatnonzero(r2 < a * a)
        slope[near] = (105.0 / (16.0 * np.pi * a ** 5)) * (0.2 - r2[near] / (7.0 * a * a))
        return g, slope

    def _pass(self, p: Point3, order: int) -> np.ndarray:
        """One pass over the cells for the target x = p: r^2 = |x - y|^2, a
        table of kernel columns T and one real contraction of the filled rows,
        giving the complex (3, n) sums M[k, c] = sum over cells of F_k dV T_c.
        The contraction is numpy's own einsum loop, not BLAS, so its order of
        summation does not follow the BLAS thread count.

        The columns are K (order 0: B), g d_j (order 1: grad B) or g d_j, g
        and 2 g' d_j d_m (order 2), with d = x - y, g = K'(r)/r
        (``_blob_kernel_grad``) and g' = dg/d(r^2), so that d_j d_m B_k is
        M[k, 3] delta_jm plus M[k, _HESSIAN_COLUMNS[j, m]]
        (``_blob_kernel_slope``).  Order 0 adds r^2 = d_0^2 + d_1^2 + d_2^2
        from the squares along each axis and holds two rows of C floats, r^2
        and K; orders 1 and 2 build the table in place, the offsets first.
        """
        grid = self._ensure_grid()
        n = (1, 3, 10)[order]
        n0, n1, n2 = self.cells
        diff = [p[k] - grid.axes[k] for k in range(3)]  # x - y along each axis
        if order == 0:
            sq = [x * x for x in diff]
            r2 = ((sq[0][:, None] + sq[1]).reshape(-1, 1) + sq[2]).ravel()
            table = self._blob_kernel(r2, grid.a)[None]
        else:
            table = getattr(self._scratch, "table", None)
            if table is None or len(table) < n:
                table = self._scratch.table = np.empty((n, grid.rows.shape[1]))
            table = table[:n]
            d = table[:3]
            planes = d.reshape(3, n0, -1)
            planes[0] = diff[0][:, None]
            first = planes[1:, 0].reshape(2, n1, n2)  # the first plane of cells
            first[0], first[1] = diff[1][:, None], diff[2]
            planes[1:, 1:] = planes[1:, :1]  # copied along the slowest axis
            r2 = np.einsum("ij,ij->j", d, d)
        if order == 1:
            table *= self._blob_kernel_grad(r2, grid.a)
        elif order == 2:
            g, slope = self._blob_kernel_slope(r2, grid.a)
            slope *= 2.0
            e = table[4:7]
            np.multiply(d, slope, out=e)
            np.multiply(e[0], d[1:], out=table[7:9])
            np.multiply(e[1], d[2], out=table[9])
            e *= d
            d *= g
            table[3] = g
        M = np.zeros((6, n))
        M[grid.comps] = np.einsum("rc,nc->rn", grid.rows, table)
        return M[:3] + 1j * M[3:]

    def _at(self, p: Point3, order: int) -> tuple:
        """From one pass at p: (B,) for order 0, (rot B,) for order 1, and
        rot B with its derivatives d_m (rot B)_i, [m, i], for order 2."""
        M = self._pass(p, order)
        if order == 0:
            return (M[:, 0],)
        if order == 1:
            return (_curl(M),)
        H = M[:, _HESSIAN_COLUMNS]  # H[k, j, m] = d_j d_m B_k
        H[:, (0, 1, 2), (0, 1, 2)] += M[:, 3, None]
        return _curl(M[:, :3]), _curl(H).T

    def _per_target(self, P: Point3, order: int) -> tuple:
        """``_at`` at one point, or at each point of a batch of shape S in C
        order: values (3, *S), then for order 2 derivatives (3, 3, *S)."""
        if not _batched(P):
            return self._at(P, order)
        shape = P[0].shape
        leads = ((3,), (3, 3)) if order == 2 else ((3,),)
        out = [np.empty(lead + (P[0].size,), dtype=complex) for lead in leads]
        for n, q in enumerate(zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in P))):
            for o, v in zip(out, self._at(q, order)):
                o[..., n] = v
        return tuple(o.reshape(o.shape[:-1] + shape) for o in out)

    def __call__(self, p: Point3) -> np.ndarray:
        return self._per_target(p, self._order)[0]

    batch = __call__


def operator_B(F: VectorField, region: BoxDomain,
               quad: QuadratureSpec = DEFAULT_QUAD,
               cells: Optional[tuple] = None) -> VectorField:
    """Componentwise Newtonian potential (kernel 1/(4 pi |x - y|)) over region.

    Midpoint tensor quadrature at resolution quad.volume_grid per axis (or
    ``cells``, three ints >= 8, else QuadratureFailure), each cell's mass
    spread over a compact blob of radius ``_BLOB_RADIUS`` cell sides (see
    _NewtonianPotential), so the potential is smooth and may be differenced.
    A value is one pass over the cells per point: the kernel column and one
    real contraction against dV times the cell values.  ``operator_rot_B`` gives
    the curl in closed form.  Evaluation is defined everywhere in R^3 and
    deterministic (fixed summation order).
    """
    return _NewtonianPotential(F, region, quad, cells, 0)


def operator_rot_B(F: VectorField, region: BoxDomain,
                   quad: QuadratureSpec = DEFAULT_QUAD,
                   cells: Optional[tuple] = None) -> VectorField:
    """rot of ``operator_B(F, region, quad, cells)``.

    The curl is computed in closed form from the gradient of the blob
    kernel, instead of by finite differences of the potential (12 full-grid
    sums per point at order 4).  Grid, cell values and blob radius are those
    of operator_B, and so is the pass per point: its kernel columns are
    g d_j, the real contraction gives grad B, and rot B is the curl of that.

    The field's ``jet`` gives rot B and its exact Jacobian
    ``d_m (rot B)_i = sum_c eps_ijk (g delta_jm + 2 g' d_j d_m) F_k(y_c) dV``
    (d = x - y_c, g' = dg/d(r^2)) in one pass per point against a (C, 10)
    table.  It costs about three value passes, where a 4th-order stencil of
    rot B costs 12, and the derivative operators use it for rot B and for
    the solutions built from it.
    """
    return _NewtonianPotential(F, region, quad, cells, 1)
