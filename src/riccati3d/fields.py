"""Fields on subdomains of R^3 and their differential/integral operators.

Conventions
-----------
* Fields carry closed-form evaluators plus a box domain with an optional
  excluded-set predicate; grids exist only as CLI export artifacts.  The
  predicate must broadcast over a Point3 of arrays (see ``BoxDomain``), so
  a batch of points is checked with one call of it.
* ``F(p)`` evaluates one point.  ``F.batch(P)`` evaluates a Point3 of
  equal-shape coordinate arrays and returns the component axis first:
  shape ``S`` for a scalar field, ``(3, *S)`` for a vector field.  A field
  built with ``vectorized=True`` declares that its evaluator broadcasts over
  such arrays (a constant return is broadcast), so ``batch`` calls it once;
  any other field is called once per point, with Python floats, and an
  error there is raised as the call at that point alone raises it (see
  ``errors.Riccati3dError`` for ``index`` and ``where``).  The volume-grid
  build of B and operator A's legs evaluate through ``batch``.
* Derivatives are central finite differences (order 2 or 4) with a relative
  step ``h * max(1, |coordinate|)`` per axis.  Every stencil point is checked
  (box, excluded set; else DomainError) before any point is evaluated, and
  ``riccati_residual`` takes -div Q and rot Q from one stencil of Q.
  ``grad``, ``div``, ``rot``, ``laplacian`` and the stencil also take a
  batch: the stencil is checked for every target with one mask, each of its
  points is one ``F.batch`` call over all targets, and results keep the
  component axis first.  A bad stencil point raises the DomainError the
  pointwise loop raises at the first offending target (points printed as
  Python floats), with ``index`` naming that target and ``where`` every
  target with a bad stencil point.
* Dual-use evaluators serve ``F(p)`` and ``F.batch`` with one body: guards
  go through ``_first`` (a plain comparison at one point, a mask over a
  batch) and transcendental functions are numpy ufuncs, which run the same
  loop for one point and for a batch, so a batch gives the values of
  ``F(p)`` bit for bit.
* ``dirac_left`` is sum_k e_k d_k (the Moisil-Theodoresco operator), equal to
  -div + grad + rot on the scalar/vector split; ``dirac_right`` puts e_k on
  the right and flips the rot sign.
* The path-reconstruction operator A integrates on the fixed axis-ordered
  path (x-leg, then y-leg, then z-leg) from its base point, with one routine
  per line rule for any number of targets (``A(p)`` is the one-target
  batch); the Newtonian volume potential B uses midpoint tensor quadrature
  in which each cell's mass is a compact smooth blob of radius
  ``_BLOB_RADIUS`` cell sides, so B is smooth and every derivative of it is
  meaningful.  ``operator_rot_B`` gives the curl of the same potential in
  closed form, one pass over the cells with the kernel's analytic gradient
  and one real GEMM, so ``rot B`` needs no finite differences.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .biquat import Biquaternion, mul
from .errors import DomainError, QuadratureFailure, Riccati3dError

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


def vec3(x, y, z) -> np.ndarray:
    """Stack three components, component axis first: shape (3,) for scalars,
    (3, *S) when any component is an array of shape S (the others are
    broadcast).  For evaluators that serve both ``F(p)`` and ``F.batch``."""
    if np.ndim(x) == np.ndim(y) == np.ndim(z) == 0:
        return np.array((x, y, z), dtype=complex)
    return np.array(np.broadcast_arrays(x, y, z), dtype=complex)


def _first(bad) -> Optional[int]:
    """Where a guard fails: None if ``bad`` holds nowhere, else the flat
    C-order index of the first point where it holds (0 for one point).
    ``bad`` is a bool at one point and a bool array for a batch.  Guards
    read ``if bad is not False and (i := _first(bad)) is not None``, so that
    one point with a plain float comparison makes no call."""
    if type(bad) is np.ndarray:
        return int(bad.argmax()) if bad.any() else None
    return 0 if bad else None


def _item(a, i: int):
    """Value i (flat C order) of a batch as a Python scalar; ``a`` itself at
    one point."""
    return a.flat[i].item() if type(a) is np.ndarray else a


class _Field:
    """Shared wrapper: a callable evaluator plus its domain.

    ``vectorized=True`` declares that ``fn`` also accepts a Point3 of
    equal-shape float arrays and returns its values component axis first
    (see the module docstring), or a vector field's three components as a
    list in which scalars are broadcast; ``F(p)`` is unaffected.
    """

    __slots__ = ("fn", "domain", "vectorized")
    _lead: tuple = ()  # component shape of one value

    def __init__(self, fn: Callable[[Point3], object], domain: Optional[BoxDomain] = None,
                 vectorized: bool = False):
        self.fn = fn
        self.domain = domain if domain is not None else BoxDomain.unbounded()
        self.vectorized = vectorized

    def __call__(self, p: Point3):
        return self.fn(p)

    def batch(self, P: Point3):
        """Values at a Point3 of equal-shape arrays, component axis first.

        A vectorized field's evaluator is called once, any other field's once
        per point in C order, with Python floats.  A Point3 of scalars gives
        ``self(P)``.  A typed error names its point of the batch in
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
            v = v.reshape(v.shape + (1,) * (len(self._lead) + len(shape) - v.ndim))
            return np.broadcast_to(v, self._lead + shape)
        out = np.empty(self._lead + (P[0].size,), dtype=complex)
        first = None
        for n, p in enumerate(zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in P))):
            try:
                out[..., n] = self(Point3(*p))
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
    """Point3 -> Biquaternion (pointwise only: ``batch`` is for scalar and
    vector fields)."""

    def __call__(self, p: Point3) -> Biquaternion:
        v = self.fn(p)
        if not isinstance(v, Biquaternion):
            raise TypeError(f"quaternion field evaluator returned {type(v)!r}")
        return v


@dataclass(frozen=True)
class DiffScheme:
    """Central finite differences: relative step h, order 2 or 4."""

    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"DiffScheme.h must be finite and positive, got {self.h!r}")
        if self.order not in (2, 4):
            raise ValueError("DiffScheme.order must be 2 or 4")

    def step(self, p: Point3, axis: int):
        """h * max(1, |p[axis]|): a float at one point, an array for a batch."""
        a = abs(p[axis])
        return self.h * (np.maximum(1.0, a) if type(a) is np.ndarray else max(1.0, a))


@dataclass(frozen=True)
class QuadratureSpec:
    """Line and volume quadrature configuration.

    line_rule: "adaptive_simpson" (absolute tolerance line_tol) or "gauss"
    (fixed Gauss-Legendre of order gauss_order).  volume_grid is the midpoint
    resolution per axis of the Newtonian potential.
    """

    line_rule: str = "adaptive_simpson"
    line_tol: float = 1e-10
    gauss_order: int = 32
    volume_grid: int = 64

    def __post_init__(self):
        if self.line_rule not in ("adaptive_simpson", "gauss"):
            raise ValueError(f"unknown line rule {self.line_rule!r}")
        if not (math.isfinite(self.line_tol) and self.line_tol > 0):
            raise ValueError(f"line_tol must be finite and positive, got {self.line_tol!r}")
        if self.gauss_order < 1:
            raise ValueError("gauss_order must be >= 1")


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
    """``_stencil_points(p, scheme)``, with the centre (when included) and
    every point checked before any of them is evaluated.

    A batch is checked with one mask; a bad point raises the error of the
    pointwise check at the first offending target, whose index it carries,
    with ``where`` holding at every target with a bad point.
    """
    stencil = _stencil_points(p, scheme)
    points = ([p] if include_center else []) + [q for _, pts in stencil for q in pts]
    if not _batched(p):
        for q in points:
            if not domain.ok(q):
                raise _stencil_error(q, 0, domain.in_box(q))
        return stencil
    ok = domain.ok_mask(Point3(*map(np.stack, zip(*points)))).reshape(len(points), -1)
    bad = ~ok.all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))  # the first target with a bad point
        k = int(np.argmin(ok[:, i]))  # its first bad point, in check order
        q = Point3(*(float(c.flat[i]) for c in points[k]))
        raise _stencil_error(q, i, domain.in_box(q), bad.reshape(p[0].shape))
    return stencil


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


def grad(f: ScalarField, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME) -> np.ndarray:
    """Gradient of a scalar field as a 3-vector of complex numbers; (3, *S)
    for a batch of shape S."""
    stencil = _stencil(f.domain, p, scheme)
    evalf = f.batch if _batched(p) else f
    return np.array([_d1(evalf, *s) for s in stencil], dtype=complex)


def _jacobian(F: VectorField, p: Point3, scheme: DiffScheme) -> np.ndarray:
    """J[i, j] = d F_i / d x_j; shape (3, 3, *S) for a batch of shape S."""
    stencil = _stencil(F.domain, p, scheme)
    evalf = F.batch if _batched(p) else F
    return np.array([_d1(evalf, *s) for s in stencil]).swapaxes(0, 1)


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
    batch of points for scalar and vector fields only)."""
    stencil = _stencil(f.domain, p, scheme, include_center=True)
    evalf = f.batch if _batched(p) else f
    f0 = evalf(p)
    dxx, dyy, dzz = (_d2(evalf, f0, *s) for s in stencil)
    return dxx + dyy + dzz


_BASIS = (Biquaternion(0, 1), Biquaternion(0, 0, 1), Biquaternion(0, 0, 0, 1))


def _as_quaternion_eval(f):
    if isinstance(f, QuaternionField):
        return f
    if isinstance(f, ScalarField):
        return lambda p: Biquaternion(f(p))
    if isinstance(f, VectorField):
        return lambda p: Biquaternion.from_vector(f(p))
    raise TypeError(f"unsupported field type {type(f)!r}")


def dirac_left(f, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME) -> Biquaternion:
    """D f = sum_k e_k d_k f = -div f_vec + grad f_0 + rot f_vec."""
    stencil = _stencil(f.domain, p, scheme)
    evalf = _as_quaternion_eval(f)
    out = Biquaternion()
    for e, s in zip(_BASIS, stencil):
        out = out + mul(e, _d1(evalf, *s))
    return out


def dirac_right(f, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME) -> Biquaternion:
    """D_r f = sum_k (d_k f) e_k = -div f_vec + grad f_0 - rot f_vec."""
    stencil = _stencil(f.domain, p, scheme)
    evalf = _as_quaternion_eval(f)
    out = Biquaternion()
    for e, s in zip(_BASIS, stencil):
        out = out + mul(_d1(evalf, *s), e)
    return out


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
# line quadrature: each rule integrates a batch of intervals [a_i, b_i] of a
# function f(i, T) that takes interval indices and the node parameters T of
# those intervals (one row each) and returns the values at those nodes

@functools.lru_cache(maxsize=None)
def _gauss_nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def _gauss_rule(f, a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Gauss-Legendre of the given order, all intervals in one call of f."""
    nodes, weights = _gauss_nodes(order)
    half = 0.5 * (b - a)
    V = f(np.arange(a.size), (0.5 * (a + b))[:, None] + half[:, None] * nodes)
    # summed node by node from 0j: accumulate adds in that fixed order
    terms = np.zeros((a.size, weights.size + 1), dtype=complex)
    np.multiply(weights, V, out=terms[:, 1:])
    return half * np.add.accumulate(terms, axis=1)[:, -1]


_SIMPSON_DEPTH = 30  # bisections of an interval before adaptive Simpson gives up
# intervals bisected per call of f.  Rounds go deepest first, so at most one
# round waits per level, and an interval that cannot meet its tolerance fails
# after about _SIMPSON_DEPTH rounds instead of growing 2^_SIMPSON_DEPTH halves
_SIMPSON_CHUNK = 256


def _simpson_rule(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Adaptive Simpson (Lyness, J. ACM 16, 1969) with absolute tolerance tol.

    An interval is accepted when its two halves change its estimate by
    ``|delta| <= 15 tol``, and is worth their sum + delta / 15; otherwise each
    half is refined with tol halved, and past ``_SIMPSON_DEPTH`` bisections
    QuadratureFailure is raised.  One call of f takes the ends and midpoints,
    then each round bisects at most ``_SIMPSON_CHUNK`` intervals, deepest
    first.  A bisected interval is worth its left half plus its right half,
    added as the recursive rule adds them, so no value depends on the rounds.
    """
    flip = b < a  # integrated from b to a, then negated
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    tols = [tol]
    for _ in range(_SIMPSON_DEPTH):
        tols.append(0.5 * tols[-1])
    # rounds, the next on top: their level, and per interval its index, its
    # node of the bisection trees (node i is interval i), its (a, m, b), and
    # f at a, m and b with its Simpson estimate; intervals in (index, a) order
    index = np.arange(a.size)
    X = np.stack([a, 0.5 * (a + b), b], axis=1)
    fx = f(index, X)
    whole = (b - a) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])
    todo = [(0, index, index, X, np.column_stack([fx, whole]))]
    nodes, leaves, splits = a.size, [], []  # leaves: (nodes, values)
    while todo:
        level, *rnd = todo.pop()
        if rnd[0].size > _SIMPSON_CHUNK:  # the rest waits below this round's halves
            todo.append((level, *(x[_SIMPSON_CHUNK:] for x in rnd)))
        index, node, X, V = (x[:_SIMPSON_CHUNK] for x in rnd)
        a, m, b = X.T
        fa, fm, fb, whole = V.T
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fx = f(index, np.stack([lm, rm], axis=1))
        left = (m - a) / 6.0 * (fa + 4.0 * fx[:, 0] + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * fx[:, 1] + fb)
        delta = left + right - whole
        # np.hypot rounds as abs() of one complex does; np.abs may not
        ok = np.hypot(delta.real, delta.imag) <= 15.0 * tols[level]
        leaves.append((node[ok], (left + right + delta / 15.0)[ok]))
        if ok.all():
            continue
        if level == _SIMPSON_DEPTH:
            i = int(np.argmin(ok))
            raise QuadratureFailure(
                f"adaptive Simpson exceeded depth budget on [{a[i]}, {b[i]}]")
        split = ~ok
        halves = np.arange(nodes, nodes + 2 * np.count_nonzero(split))
        nodes += halves.size
        splits.append((level, node[split], halves[::2]))
        # the halves [a, m] and [m, b] of each split interval, in that order
        todo.append((level + 1, np.repeat(index[split], 2), halves,
                     np.column_stack([a, lm, m, m, rm, b])[split].reshape(-1, 3),
                     np.column_stack([fa, fx[:, 0], fm, left, fm, fx[:, 1], fb, right])
                     [split].reshape(-1, 4)))
    value = np.empty(nodes, dtype=complex)
    for node, v in leaves:
        value[node] = v
    for _, node, lefts in sorted(splits, key=lambda s: -s[0]):  # the deepest first
        value[node] = value[lefts] + value[lefts + 1]
    return np.where(flip, -1.0, 1.0) * value[:flip.size]


# --------------------------------------------------------------------------
# operator A: axis-ordered path reconstruction of a scalar potential

def operator_A(F: VectorField, base: Point3, C: complex = 0j,
               quad: QuadratureSpec = DEFAULT_QUAD,
               curl_check: bool = False,
               scheme: DiffScheme = DEFAULT_SCHEME) -> ScalarField:
    """Reconstruct the potential of a (curl-free) vector field.

    The integration path is fixed: the x-leg at (., base.y, base.z), then the
    y-leg at (x, ., base.z), then the z-leg at (x, y, .).  The returned field
    satisfies phi(base) = C, and grad phi = F wherever F is a gradient.  With
    ``curl_check`` the curl of F is sampled at the midpoint of each leg
    towards the first target, and a warning (not an error) is emitted when it
    is not small.

    One routine integrates the legs of any number of targets with the line
    rule, and ``A(p)`` is ``A.batch`` at the one target p, so the two agree
    bit for bit.  The rule asks for F in rounds of nodes, each one
    ``F.batch`` call per leg axis: the Gauss rule in one round, adaptive
    Simpson in rounds of bounded size (see ``_simpson_rule``).  Every node of
    a round is checked against the domain before F is evaluated there, and
    F's values are checked to be finite; either failure raises DomainError
    naming the round's first bad node (by target, then leg, then node).  A
    typed error raised by F names the target whose leg it came from
    (``index``) and, over a batch, every target with a failing node
    (``where``).
    """
    base = Point3(*base)
    base_coords = np.array(base, dtype=float)
    domain = F.domain
    if not domain.ok(base):
        raise DomainError(f"operator A base point {base} not in domain")
    state = {"checked": not curl_check}

    def _warn_if_rotational(p: Point3):
        state["checked"] = True
        for k in range(3):  # the midpoint of the leg along axis k
            m = Point3(*p[:k], 0.5 * (base[k] + p[k]), *base[k + 1:])
            try:
                r = rot(F, m, scheme)
            except DomainError:
                continue
            if np.max(np.abs(r)) > 1e-6:
                warnings.warn(
                    f"operator A input has rot F = {r} at {m}; "
                    "reconstruction is path dependent", stacklevel=3)
                return

    def _integrand(corners: np.ndarray, runs: list, shape: tuple) -> list:
        """F's leg component at the nodes of each run ``(k, rows, T)``, one
        ``F.batch`` call per run: node T[r, j] lies on the leg along axis k
        towards target corners[rows[r]] (the rows of a leg in node order);
        ``shape`` is the targets' batch shape, () for one point."""
        pts = [Point3(*(T if m == k else np.broadcast_to(
            corners[rows, m, None] if m < k else base_coords[m], T.shape) for m in range(3)))
            for k, rows, T in runs]

        def check(oks, what: str):
            """Raise DomainError(what + the first node not ok: by target, leg, node)."""
            hits = [(runs[i][1][r], runs[i][0], i, r)
                    for i, ok in enumerate(oks) for r in np.flatnonzero(~ok.all(axis=1))]
            if hits:
                target, k, i, r = min(hits)
                t = runs[i][2][r, int(np.argmin(oks[i][r]))]
                raise DomainError(what + str(Point3(*corners[target][:k], t, *base[k + 1:])))

        check([domain.ok_mask(P) for P in pts], "integration path crosses excluded set at ")
        values = []
        for (k, rows, T), P in zip(runs, pts):
            try:
                # an empty run's node parameters stand in for its (empty) values
                values.append(F.batch(P)[k] if rows.size else T)
            except Riccati3dError as exc:
                if exc.index is not None:
                    exc.index = int(rows[exc.index // T.shape[1]])
                    if exc.where is not None and shape:
                        where = np.zeros(len(corners), dtype=bool)
                        where[rows[exc.where.reshape(T.shape).any(axis=1)]] = True
                        exc.where = where.reshape(shape)
                    else:
                        exc.where = None
                raise
        check([np.isfinite(V) for V in values], "line integrand is not finite at ")
        return values

    def eval_at(P: Point3):
        shape = np.shape(P[0])
        corners = np.stack([np.ravel(c) for c in P], axis=1)  # one row per target
        if not state["checked"] and len(corners):
            _warn_if_rotational(Point3(*corners[0]))
        # the legs to integrate, by axis then target: a zero-length leg is 0j
        axes, rows = np.nonzero((corners != base_coords).T)

        def f(legs: np.ndarray, T: np.ndarray) -> np.ndarray:
            """F's leg component at parameters T, one F.batch call per axis."""
            bounds = np.searchsorted(axes[legs], range(4))
            runs = [(k, rows[legs[lo:hi]], T[lo:hi])
                    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
            return np.concatenate(_integrand(corners, runs, shape))

        a, b = base_coords[axes], corners[rows, axes]
        sums = np.zeros((3, len(corners)), dtype=complex)
        if quad.line_rule == "gauss":
            sums[axes, rows] = _gauss_rule(f, a, b, quad.gauss_order)
        else:
            sums[axes, rows] = _simpson_rule(f, a, b, quad.line_tol)
        return (complex(C) + sums[0] + sums[1] + sums[2]).reshape(shape)

    return ScalarField(eval_at, domain, vectorized=True)


# --------------------------------------------------------------------------
# operator B: Newtonian volume potential

_BUILD_CHUNK = 2048  # cells per integrand batch: bounds the build's scratch memory
_BLOB_RADIUS = 2.2  # radius of each cell's mass blob, in largest cell sides


class _Grid(NamedTuple):
    """A built volume grid; ``xs``, ``ys`` and ``zs`` are the rows of ``coords``."""

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    vals: np.ndarray  # (3, C) complex integrand values, 0 in excluded cells
    dV: float
    a: float  # blob radius
    coords: np.ndarray  # (3, C) cell centres in C order
    rows: Optional[np.ndarray]  # (6, C) dV * (Re vals, Im vals), rot B only


class _NewtonianPotential(VectorField):
    """Midpoint-grid discretization of the volume potential.

    The grid of integrand values is computed lazily on first evaluation and
    cached.  It is built through ``F.batch`` over chunks of
    ``_BUILD_CHUNK`` cell centres in C order, so a vectorized integrand is
    called once per chunk and any other once per cell, with the same values
    either way.  Cells the region's predicate excludes are never evaluated
    and contribute nothing; a non-finite integrand value raises DomainError
    naming the first such cell centre.

    Each cell mass contributes the potential of a compact C^1-density blob
    of radius ``_BLOB_RADIUS`` times the largest cell side instead of a
    point mass: outside that radius the kernel is exactly 1/(4 pi |x-y|),
    inside it is a polynomial, and no cell is dropped.  The discretized
    potential is therefore smooth, so its finite-difference derivatives are
    meaningful (in particular its Laplacian reproduces -F locally).
    ``operator_rot_B`` evaluates the curl of this potential directly from
    the kernel's radial derivative (``_blob_kernel_grad``).

    An evaluation is one direct sum over all cells for its one target.  The
    kernel takes its far form on every cell and then overwrites the few
    cells within the blob radius (found with ``flatnonzero``) with the
    polynomial; those cells enter the far form at the radius itself, so a
    target on a cell centre divides by nothing.

    ``cells`` overrides the per-axis cell counts; the default is the cubic
    quad.volume_grid per axis.  Use it to keep cells near-cubic on elongated
    regions.
    """

    __slots__ = ("region", "quad", "cells", "_grid")

    def __init__(self, F: VectorField, region: BoxDomain, quad: QuadratureSpec,
                 cells: Optional[tuple] = None):
        if cells is None:
            cells = (quad.volume_grid,) * 3
        if min(cells) < 8:
            raise QuadratureFailure(
                f"volume grid resolution {min(cells)} < 8")
        if not region.bounded():
            raise QuadratureFailure("operator B needs a bounded region")
        self.region = region
        self.quad = quad
        self.cells = tuple(int(c) for c in cells)
        self._grid = None
        super().__init__(F, BoxDomain.unbounded())

    def _ensure_grid(self) -> _Grid:
        """The cell centres and integrand values, built on first use."""
        if self._grid is not None:
            return self._grid
        lo, hi = self.region.lower, self.region.upper
        steps = [(hi[k] - lo[k]) / self.cells[k] for k in range(3)]
        coords = np.empty((3, math.prod(self.cells)))
        for k in range(3):  # the C-order meshgrid, written in place
            axis = lo[k] + (np.arange(self.cells[k]) + 0.5) * steps[k]
            coords[k].reshape(self.cells)[...] = axis.reshape([-1 if m == k else 1
                                                               for m in range(3)])
        xs, ys, zs = coords
        vals = np.zeros((3, xs.size), dtype=complex)
        for start in range(0, xs.size, _BUILD_CHUNK):
            cut = slice(start, start + _BUILD_CHUNK)
            # excluded cells contribute nothing and are never evaluated
            keep = start + np.flatnonzero(self.region.ok_mask(Point3(xs[cut], ys[cut], zs[cut])))
            if not keep.size:
                continue
            block = self.fn.batch(Point3(xs[keep], ys[keep], zs[keep]))
            bad = ~np.isfinite(block).all(axis=0)
            if bad.any():
                i = keep[np.argmax(bad)]
                raise DomainError("operator B integrand is not finite at cell centre "
                                  f"{Point3(xs[i], ys[i], zs[i])}")
            vals[:, keep] = block
        dV = steps[0] * steps[1] * steps[2]
        self._grid = _Grid(xs, ys, zs, vals, dV, _BLOB_RADIUS * max(steps), coords,
                           self._real_rows(vals, dV))
        return self._grid

    @staticmethod
    def _real_rows(vals: np.ndarray, dV: float) -> Optional[np.ndarray]:
        """The cell values times dV as real rows, for a real contraction;
        B contracts its complex values and keeps no second copy."""
        return None

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

    def __call__(self, p: Point3) -> np.ndarray:
        p = Point3(*p)
        xs, ys, zs, vals, dV, a, *_ = self._ensure_grid()
        r2 = (xs - p.x) ** 2 + (ys - p.y) ** 2 + (zs - p.z) ** 2
        w = dV * self._blob_kernel(r2, a)
        return np.array([np.dot(vals[k], w) for k in range(3)])


def operator_B(F: VectorField, region: BoxDomain,
               quad: QuadratureSpec = DEFAULT_QUAD,
               cells: Optional[tuple] = None) -> VectorField:
    """Componentwise Newtonian potential (kernel 1/(4 pi |x - y|)) over region.

    Midpoint tensor quadrature at resolution quad.volume_grid per axis (or
    ``cells``), each cell's mass spread over a compact blob of radius
    ``_BLOB_RADIUS`` cell sides (see _NewtonianPotential), so the potential
    is smooth and may be differenced.  ``operator_rot_B`` gives its curl in
    closed form.  Evaluation is defined everywhere in R^3 and deterministic
    (fixed summation order).
    """
    return _NewtonianPotential(F, region, quad, cells)


class _RotNewtonianPotential(_NewtonianPotential):
    """Curl of the Newtonian potential, differentiated analytically.

    rot B[F](x) = sum over cells of grad K(x - y) x F(y) dV, with the same
    grid, cell values and blob radius as ``_NewtonianPotential``.
    """

    __slots__ = ()

    @staticmethod
    def _real_rows(vals: np.ndarray, dV: float) -> np.ndarray:
        rows = np.concatenate((vals.real, vals.imag))
        rows *= dV
        return rows

    def __call__(self, p: Point3) -> np.ndarray:
        g = self._ensure_grid()
        d = np.array(p, dtype=float)[:, None] - g.coords  # x - y, one row per axis
        d *= self._blob_kernel_grad(np.einsum("ij,ij->j", d, d), g.a)
        J = g.rows @ d.T  # J[i, j] = d(B_i)/dx_j: rows of Re F, then of Im F
        return _curl(J[:3] + 1j * J[3:])


def operator_rot_B(F: VectorField, region: BoxDomain,
                   quad: QuadratureSpec = DEFAULT_QUAD,
                   cells: Optional[tuple] = None) -> VectorField:
    """rot of ``operator_B(F, region, quad, cells)``.

    The curl is computed in closed form from the gradient of the blob
    kernel in one pass over the cells, instead of by finite differences of
    the potential (12 full-grid sums per point at order 4).  Grid, cell
    values and blob radius are those of operator_B.  Each point is its own
    pass: the offsets to all cells, the kernel gradient (far form on every
    cell, the polynomial on the cells within the blob radius) and one real
    GEMM of the weighted offsets against dV times the cell values, stored
    once as real and imaginary rows.  Batching targets into one
    targets x cells pass was measured slower per target.
    """
    return _RotNewtonianPotential(F, region, quad, cells)
