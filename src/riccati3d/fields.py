"""Fields on subdomains of R^3 and their differential/integral operators.

Conventions
-----------
* Fields carry closed-form evaluators plus a box domain with an optional
  excluded-set predicate; grids exist only as CLI export artifacts.
* ``F(p)`` evaluates one point.  ``F.batch(P)`` evaluates a Point3 of
  equal-shape coordinate arrays and returns the component axis first:
  shape ``S`` for a scalar field, ``(3, *S)`` for a vector field.  A field
  built with ``vectorized=True`` declares that its evaluator broadcasts over
  such arrays (a constant return is broadcast), so ``batch`` calls it once;
  any other field is called once per point.  The volume-grid build of B
  and operator A's Gauss legs evaluate through ``batch``.
* Derivatives are central finite differences (order 2 or 4) with a relative
  step ``h * max(1, |coordinate|)`` per axis.  Every stencil point is checked
  (box, excluded set; else DomainError) before any point is evaluated, and
  ``riccati_residual`` takes -div Q and rot Q from one stencil of Q.
* ``dirac_left`` is sum_k e_k d_k (the Moisil-Theodoresco operator), equal to
  -div + grad + rot on the scalar/vector split; ``dirac_right`` puts e_k on
  the right and flips the rot sign.
* The path-reconstruction operator A integrates on the fixed axis-ordered
  path (x-leg, then y-leg, then z-leg) from its base point; the Newtonian
  volume potential B uses midpoint tensor quadrature in which each cell's
  mass is a compact smooth blob of radius ``_BLOB_RADIUS`` cell sides, so B
  is smooth and every derivative of it is meaningful.  ``operator_rot_B``
  gives the curl of the same potential in closed form, one pass over the
  cells with the kernel's analytic gradient, so ``rot B`` needs no finite
  differences.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .biquat import Biquaternion, mul
from .errors import DomainError, QuadratureFailure

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

    def is_excluded(self, p: Point3) -> bool:
        return self.excluded is not None and bool(self.excluded(p))

    def ok(self, p: Point3) -> bool:
        return self.in_box(p) and not self.is_excluded(p)

    def ok_mask(self, P: Point3) -> np.ndarray:
        """``ok`` at every point of a Point3 of equal-shape arrays; the
        excluded-set predicate is called once per in-box point."""
        lo, hi = self.lower, self.upper
        mask = ((lo[0] <= P[0]) & (P[0] <= hi[0]) & (lo[1] <= P[1]) & (P[1] <= hi[1])
                & (lo[2] <= P[2]) & (P[2] <= hi[2]))
        if self.excluded is not None:
            for i in map(tuple, np.argwhere(mask)):
                mask[i] = not self.excluded(Point3(P[0][i], P[1][i], P[2][i]))
        return mask

    def intersect(self, other: "BoxDomain") -> "BoxDomain":
        lower = Point3(*(max(a, b) for a, b in zip(self.lower, other.lower)))
        upper = Point3(*(min(a, b) for a, b in zip(self.upper, other.upper)))
        preds = [p for p in (self.excluded, other.excluded) if p is not None]
        if not preds:
            excl = None
        elif len(preds) == 1:
            excl = preds[0]
        else:
            excl = lambda q, _ps=tuple(preds): any(pr(q) for pr in _ps)
        return BoxDomain(lower, upper, excl)

    def bounded(self) -> bool:
        return all(math.isfinite(c) for c in (*self.lower, *self.upper))


def _batched(p: Point3) -> bool:
    """True when p holds coordinate arrays rather than one point."""
    return isinstance(p[0], np.ndarray) and p[0].ndim > 0


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
    (see the module docstring); ``F(p)`` is unaffected.
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
        per point in C order.  A Point3 of scalars gives ``self(P)``.
        """
        if not _batched(P):
            return self(P)
        shape = P[0].shape
        if self.vectorized:
            v = np.asarray(self.fn(P), dtype=complex)
            v = v.reshape(v.shape + (1,) * (len(self._lead) + len(shape) - v.ndim))
            return np.broadcast_to(v, self._lead + shape)
        out = np.empty(self._lead + shape, dtype=complex)
        for i in np.ndindex(shape):
            out[(...,) + i] = self(Point3(P[0][i], P[1][i], P[2][i]))
        return out


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

    def step(self, p: Point3, axis: int) -> float:
        return self.h * max(1.0, abs(p[axis]))


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

def _stencil(domain: BoxDomain, p: Point3, scheme: DiffScheme,
             include_center: bool = False):
    """One ``(h, points)`` pair per axis: p + h, p - h (then p + 2h, p - 2h).

    Each point is p with coordinate ``axis`` replaced by ``p[axis] +- j*h``.
    The centre (when included) and every point are checked before any of
    them is evaluated.
    """
    x, y, z = p
    reach = (1, 2) if scheme.order == 4 else (1,)
    stencil = []
    for axis in range(3):
        h, c = scheme.step(p, axis), p[axis]
        stencil.append((h, tuple(
            Point3(v, y, z) if axis == 0 else Point3(x, v, z) if axis == 1 else Point3(x, y, v)
            for j in reach for v in (c + j * h, c - j * h))))
    for q in ([p] if include_center else []) + [q for _, pts in stencil for q in pts]:
        if not domain.in_box(q):
            raise DomainError(f"stencil point {q} outside domain box")
        if domain.is_excluded(q):
            raise DomainError(f"stencil point {q} in excluded set; shrink h or move p")
    return stencil


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
    """Gradient of a scalar field as a 3-vector of complex numbers."""
    return np.array([_d1(f, *s) for s in _stencil(f.domain, p, scheme)], dtype=complex)


def _jacobian(F: VectorField, p: Point3, scheme: DiffScheme) -> np.ndarray:
    """J[i, j] = d F_i / d x_j."""
    return np.column_stack([_d1(F, *s) for s in _stencil(F.domain, p, scheme)])


def div(F: VectorField, p: Point3, scheme: DiffScheme = DEFAULT_SCHEME) -> complex:
    J = _jacobian(F, p, scheme)
    return complex(J[0, 0] + J[1, 1] + J[2, 2])


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
    """Componentwise Laplacian of a scalar, vector or quaternion field."""
    stencil = _stencil(f.domain, p, scheme, include_center=True)
    f0 = f(p)
    dxx, dyy, dzz = (_d2(f, f0, *s) for s in stencil)
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
# line quadrature

def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 30) -> complex:
    if a == b:
        return 0j
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, m, b, fa, fm, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        if depth <= 0:
            raise QuadratureFailure(
                f"adaptive Simpson exceeded depth budget on [{a}, {b}]")
        half = 0.5 * tol
        return (recurse(a, lm, m, fa, flm, fm, left, half, depth - 1)
                + recurse(m, rm, b, fm, frm, fb, right, half, depth - 1))

    return sign * recurse(a, m, b, fa, fm, fb, whole, tol, max_depth)


_GAUSS_CACHE: dict = {}


def _gauss_nodes(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def _gauss_integral(f, a: float, b: float, n: int, at) -> complex:
    """Gauss-Legendre rule; a non-finite integrand value raises DomainError
    naming ``at(t)`` of the first such node t."""
    if a == b:
        return 0j
    nodes, weights = _gauss_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = [f(mid + half * t) for t in nodes]
    if not all(map(cmath.isfinite, values)):
        t = next(t for t, v in zip(nodes, values) if not cmath.isfinite(v))
        raise DomainError(f"line integrand is not finite at {at(mid + half * t)}")
    return half * sum(w * v for w, v in zip(weights, values))


def _line_integral(f, a: float, b: float, quad: QuadratureSpec, at) -> complex:
    """Integral of f over [a, b]; at(t) is the point of node t, for errors."""
    if quad.line_rule == "gauss":
        return _gauss_integral(f, a, b, quad.gauss_order, at)
    return _adaptive_simpson(f, a, b, quad.line_tol)


# --------------------------------------------------------------------------
# operator A: axis-ordered path reconstruction of a scalar potential

def operator_A(F: VectorField, base: Point3, C: complex = 0j,
               quad: QuadratureSpec = DEFAULT_QUAD,
               curl_check: bool = False,
               scheme: DiffScheme = DEFAULT_SCHEME) -> ScalarField:
    """Reconstruct the potential of a (curl-free) vector field.

    The integration path is fixed: the x-leg at (., base.y, base.z), then the
    y-leg at (x, ., base.z), then the z-leg at (x, y, .).  The returned field
    satisfies phi(base) = C, and grad phi = F wherever F is a gradient.

    With ``curl_check`` the curl of F is sampled at the midpoint of each leg
    of the first evaluation and a warning (not an error) is emitted when it
    is not small.  Paths crossing the excluded set raise DomainError, and so
    does a non-finite integrand value under the Gauss rule, naming the first
    such node (adaptive Simpson raises QuadratureFailure instead).

    The x-leg depends only on p.x and the y-leg only on (p.x, p.y), so the
    returned field keeps its last x-leg and its last y-leg and reuses each
    while that key repeats (grid walks in C order, one-axis stencil shifts).
    Results are bit-identical to integrating every leg afresh, in any call
    order and from any thread, provided F is pure: the same point always
    gives the same value.

    The returned field is vectorized.  ``A.batch(P)`` under the Gauss rule
    checks every node of every leg of every target against the domain first
    (raising the error the pointwise loop would raise for the first
    offending target, before F is evaluated anywhere), then evaluates each
    leg as one ``F.batch`` call over all its nodes and sums node by node, so
    each value equals ``A(p)`` bit for bit.  Adaptive Simpson integrates
    target by target.
    """
    base = Point3(*base)
    domain = F.domain
    if not domain.ok(base):
        raise DomainError(f"operator A base point {base} not in domain")
    state = {"checked": not curl_check}
    # last x-leg and y-leg, each one (key, value) tuple so that a concurrent
    # reader never pairs one key with another key's value; a key keeps the
    # sign of each coordinate because F may differ at -0.0 and 0.0
    legs = [None, None]

    def _component(pt: Point3, k: int) -> complex:
        if not domain.ok(pt):
            raise DomainError(f"integration path crosses excluded set at {pt}")
        return F(pt)[k]

    def _warn_if_rotational(p: Point3):
        state["checked"] = True
        mids = [
            Point3(0.5 * (base.x + p.x), base.y, base.z),
            Point3(p.x, 0.5 * (base.y + p.y), base.z),
            Point3(p.x, p.y, 0.5 * (base.z + p.z)),
        ]
        for m in mids:
            try:
                r = rot(F, m, scheme)
            except DomainError:
                continue
            if np.max(np.abs(r)) > 1e-6:
                warnings.warn(
                    f"operator A input has rot F = {r} at {m}; "
                    "reconstruction is path dependent", stacklevel=3)
                return

    def _node(k: int, p: Point3):
        """t -> the node at t of the leg along axis k towards p."""
        return lambda t: Point3(*p[:k], t, *base[k + 1:])

    def _leg(slot: int, key: tuple, f, a: float, b: float, p: Point3) -> complex:
        entry = legs[slot]
        if entry is not None and entry[0] == key:
            return entry[1]
        value = _line_integral(f, a, b, quad, _node(slot, p))
        legs[slot] = (key, value)
        return value

    def eval_at(p: Point3):
        if _batched(p):
            return _eval_batch(p)
        if not state["checked"]:
            _warn_if_rotational(p)
        x_key = (p.x, math.copysign(1.0, p.x))
        total = complex(C)
        total += _leg(0, x_key, lambda t: _component(Point3(t, base.y, base.z), 0),
                      base.x, p.x, p)
        total += _leg(1, x_key + (p.y, math.copysign(1.0, p.y)),
                      lambda t: _component(Point3(p.x, t, base.z), 1), base.y, p.y, p)
        total += _line_integral(lambda t: _component(Point3(p.x, p.y, t), 2),
                                base.z, p.z, quad, _node(2, p))
        return total

    def _eval_batch(P: Point3) -> np.ndarray:
        shape = P[0].shape
        targets = tuple(np.ravel(c) for c in P)
        if quad.line_rule != "gauss":
            return np.array([eval_at(Point3(*t)) for t in zip(*targets)],
                            dtype=complex).reshape(shape)
        if not state["checked"] and targets[0].size:
            _warn_if_rotational(Point3(*(c[0] for c in targets)))
        nodes, weights = _gauss_nodes(quad.gauss_order)
        runs = []  # per leg: the targets it moves, half lengths, node parameters, nodes
        for k in range(3):
            rows = np.flatnonzero(targets[k] != base[k])  # a zero-length leg adds 0j
            b = targets[k][rows]
            half = 0.5 * (b - base[k])
            T = (0.5 * (base[k] + b))[:, None] + half[:, None] * nodes
            pts = Point3(*(T if m == k else np.broadcast_to(
                targets[m][rows, None] if m < k else float(base[m]), T.shape)
                for m in range(3)))
            runs.append((rows, half, T, pts))

        def node(k: int, r: int, j: int) -> Point3:
            """Node j of target row r on leg k, as the pointwise path builds it."""
            rows, _, T, _ = runs[k]
            return _node(k, Point3(*(c[rows[r]] for c in targets)))(T[r, j])

        def check(oks, what: str):
            """Raise DomainError(what + the first node not ok), in pointwise
            order: by target, then by leg, then by node."""
            hits = [(runs[k][0][r], k, r) for k, ok in enumerate(oks) if ok.size
                    for r in [int(np.argmin(ok.all(axis=1)))] if not ok[r].all()]
            if hits:
                _, k, r = min(hits)
                raise DomainError(what + str(node(k, r, int(np.argmin(oks[k][r])))))

        check([domain.ok_mask(pts) for *_, pts in runs],
              "integration path crosses excluded set at ")
        values = [F.batch(pts)[k] for k, (*_, pts) in enumerate(runs)]
        check([np.isfinite(V) for V in values], "line integrand is not finite at ")
        total = complex(C)
        for (rows, half, _, _), V in zip(runs, values):
            acc = np.zeros(rows.size, dtype=complex)
            for j, w in enumerate(weights):  # node by node, as the pointwise sum
                acc += w * V[:, j]
            leg = np.zeros(targets[0].size, dtype=complex)
            leg[rows] = half * acc
            total = total + leg
        return total.reshape(shape)

    return ScalarField(eval_at, domain, vectorized=True)


# --------------------------------------------------------------------------
# operator B: Newtonian volume potential

_BUILD_CHUNK = 2048  # cells per integrand batch: bounds the build's scratch memory
_BLOB_RADIUS = 2.2  # radius of each cell's mass blob, in largest cell sides


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

    def _ensure_grid(self):
        """(xs, ys, zs, vals, dV, blob radius), built on first use."""
        if self._grid is not None:
            return self._grid
        lo, hi = self.region.lower, self.region.upper
        steps = [(hi[k] - lo[k]) / self.cells[k] for k in range(3)]
        axes = [lo[k] + (np.arange(self.cells[k]) + 0.5) * steps[k] for k in range(3)]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        xs, ys, zs = X.ravel(), Y.ravel(), Z.ravel()
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
        self._grid = (xs, ys, zs, vals, steps[0] * steps[1] * steps[2],
                      _BLOB_RADIUS * max(steps))
        return self._grid

    @staticmethod
    def _blob_kernel(r2: np.ndarray, a: float) -> np.ndarray:
        """Potential of a unit-mass C^1 blob of radius a: density proportional
        to (1 - (r/a)^2)^2 inside, so the kernel is exactly 1/(4 pi r)
        outside and a polynomial (C^2-matched) inside."""
        out = np.empty_like(r2)
        far = r2 >= a * a
        out[far] = 1.0 / (4.0 * np.pi * np.sqrt(r2[far]))
        t2 = r2[~far] / (a * a)
        poly = (t2 / 3.0 - 0.4 * t2 * t2 + t2 ** 3 / 7.0
                + (1.0 - t2) ** 3 / 6.0)
        out[~far] = (105.0 / (32.0 * np.pi * a)) * poly
        return out

    @staticmethod
    def _blob_kernel_grad(r2: np.ndarray, a: float) -> np.ndarray:
        """K'(r) / r for the kernel K of ``_blob_kernel``, as a function of
        r^2, so that grad K(|d|) = _blob_kernel_grad(|d|^2, a) * d.  Exactly
        -1/(4 pi r^3) outside radius a; both sides equal -1/(4 pi a^3) at
        r = a, and the value stays finite at r = 0."""
        out = np.empty_like(r2)
        far = r2 >= a * a
        out[far] = -1.0 / (4.0 * np.pi * r2[far] * np.sqrt(r2[far]))
        t2 = r2[~far] / (a * a)
        dpoly = 1.0 / 3.0 - 0.8 * t2 + 3.0 * t2 * t2 / 7.0 - 0.5 * (1.0 - t2) ** 2
        out[~far] = (105.0 / (16.0 * np.pi * a ** 3)) * dpoly
        return out

    def __call__(self, p: Point3) -> np.ndarray:
        p = Point3(*p)
        xs, ys, zs, vals, dV, a = self._ensure_grid()
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

    def __call__(self, p: Point3) -> np.ndarray:
        p = Point3(*p)
        xs, ys, zs, vals, dV, a = self._ensure_grid()
        d = np.stack((p.x - xs, p.y - ys, p.z - zs))
        s = dV * self._blob_kernel_grad(d[0] ** 2 + d[1] ** 2 + d[2] ** 2, a)
        return _curl(vals @ (s * d).T)


def operator_rot_B(F: VectorField, region: BoxDomain,
                   quad: QuadratureSpec = DEFAULT_QUAD,
                   cells: Optional[tuple] = None) -> VectorField:
    """rot of ``operator_B(F, region, quad, cells)``.

    The curl is computed in closed form from the gradient of the blob
    kernel in one pass over the cells, instead of by finite differences of
    the potential (12 full-grid sums per point at order 4).  Grid, cell
    values and blob radius are those of operator_B.
    """
    return _RotNewtonianPotential(F, region, quad, cells)
