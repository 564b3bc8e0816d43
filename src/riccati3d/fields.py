"""Fields on subdomains of R^3 and their differential/integral operators.

Conventions
-----------
* Fields carry closed-form evaluators plus a box domain with an optional
  excluded-set predicate; grids exist only as CLI export artifacts.
* Derivatives are central finite differences (order 2 or 4) with a relative
  step ``h * max(1, |coordinate|)`` per axis.  Every stencil point is checked
  (box, excluded set; else DomainError) before any point is evaluated, and
  ``riccati_residual`` takes -div Q and rot Q from one stencil of Q.
* ``dirac_left`` is sum_k e_k d_k (the Moisil-Theodoresco operator), equal to
  -div + grad + rot on the scalar/vector split; ``dirac_right`` puts e_k on
  the right and flips the rot sign.
* The path-reconstruction operator A integrates on the fixed axis-ordered
  path (x-leg, then y-leg, then z-leg) from its base point; the Newtonian
  volume potential B uses midpoint tensor quadrature with the cell containing
  the evaluation point excluded (O(h) local error by construction).

Any derivative through a B-potential needs the smooth ``kernel="softened"``
variant.  The default excluded-cell kernel is for evaluating B only: the
dropped cell follows the evaluation point, so a finite-difference stencil
straddling a cell face sees a jump, and the sum is locally a sum of harmonic
kernels whose Laplacian misses the -F source.  ``operator_rot_B`` gives the
curl of the softened potential in closed form, one pass over the cells with
the kernel's analytic gradient, so ``rot B`` needs no finite differences.
"""

from __future__ import annotations

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
]


class Point3(NamedTuple):
    x: float
    y: float
    z: float

    def replace_axis(self, axis: int, value: float) -> "Point3":
        coords = list(self)
        coords[axis] = value
        return Point3(*coords)

    def shifted(self, axis: int, delta: float) -> "Point3":
        return self.replace_axis(axis, self[axis] + delta)


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


class _Field:
    """Shared wrapper: a callable evaluator plus its domain."""

    __slots__ = ("fn", "domain")

    def __init__(self, fn: Callable[[Point3], object], domain: Optional[BoxDomain] = None):
        self.fn = fn
        self.domain = domain if domain is not None else BoxDomain.unbounded()

    def __call__(self, p: Point3):
        return self.fn(p)


class ScalarField(_Field):
    """Point3 -> complex."""

    def __call__(self, p: Point3) -> complex:
        return complex(self.fn(p))


class VectorField(_Field):
    """Point3 -> 3 complex components, identified with a pure-vector biquaternion."""

    def __call__(self, p: Point3) -> np.ndarray:
        return np.asarray(self.fn(p), dtype=complex)


class QuaternionField(_Field):
    """Point3 -> Biquaternion."""

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

    Points equal ``p.shifted(axis, +-j*h)`` bit for bit.  The centre (when
    included) and every point are checked before any of them is evaluated.
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


def _gauss_integral(f, a: float, b: float, n: int) -> complex:
    if a == b:
        return 0j
    nodes, weights = _gauss_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * f(mid + half * t) for t, w in zip(nodes, weights))


def _line_integral(f, a: float, b: float, quad: QuadratureSpec) -> complex:
    if quad.line_rule == "gauss":
        return _gauss_integral(f, a, b, quad.gauss_order)
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
    is not small.  Paths crossing the excluded set raise DomainError.

    The x-leg depends only on p.x and the y-leg only on (p.x, p.y), so the
    returned field keeps its last x-leg and its last y-leg and reuses each
    while that key repeats (grid walks in C order, one-axis stencil shifts).
    Results are bit-identical to integrating every leg afresh, in any call
    order and from any thread, provided F is pure: the same point always
    gives the same value.
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

    def _leg(slot: int, key: tuple, f, a: float, b: float) -> complex:
        entry = legs[slot]
        if entry is not None and entry[0] == key:
            return entry[1]
        value = _line_integral(f, a, b, quad)
        legs[slot] = (key, value)
        return value

    def eval_at(p: Point3) -> complex:
        if not state["checked"]:
            _warn_if_rotational(p)
        x_key = (p.x, math.copysign(1.0, p.x))
        total = complex(C)
        total += _leg(0, x_key, lambda t: _component(Point3(t, base.y, base.z), 0),
                      base.x, p.x)
        total += _leg(1, x_key + (p.y, math.copysign(1.0, p.y)),
                      lambda t: _component(Point3(p.x, t, base.z), 1), base.y, p.y)
        total += _line_integral(lambda t: _component(Point3(p.x, p.y, t), 2),
                                base.z, p.z, quad)
        return total

    return ScalarField(eval_at, domain)


# --------------------------------------------------------------------------
# operator B: Newtonian volume potential

class _NewtonianPotential(VectorField):
    """Midpoint-grid discretization of the volume potential.

    The grid of integrand values is computed lazily on first evaluation and
    cached.  Two singularity treatments:

    * kernel="excluded_cell": the cell containing the evaluation point is
      dropped from the sum.  O(h) local error; for evaluating B only, since
      the dropped cell changes as the point crosses a cell face and a
      finite-difference stencil straddling that face sees a jump.
    * kernel="softened": each cell mass contributes the potential of a
      compact C^1-density blob of radius softening * max cell side instead
      of a point mass; outside that radius the kernel is exactly
      1/(4 pi |x-y|), inside it is a polynomial.  No cell is dropped.  This
      keeps all derivatives of the discretized potential meaningful (in
      particular its Laplacian reproduces -F locally, which cell exclusion
      cannot), so any derivative through B must use this mode.
      ``operator_rot_B`` evaluates the curl of this potential directly from
      the kernel's radial derivative (``_blob_kernel_grad``).

    ``softening`` must be finite and positive under either kernel.
    ``cells`` overrides the per-axis cell counts; the default is the cubic
    quad.volume_grid per axis.  Use it to keep cells near-cubic on elongated
    regions.
    """

    __slots__ = ("region", "quad", "kernel", "softening", "cells", "_grid")

    def __init__(self, F: VectorField, region: BoxDomain, quad: QuadratureSpec,
                 kernel: str = "excluded_cell", softening: float = 2.2,
                 cells: Optional[tuple] = None):
        if cells is None:
            cells = (quad.volume_grid,) * 3
        if min(cells) < 8:
            raise QuadratureFailure(
                f"volume grid resolution {min(cells)} < 8")
        if not region.bounded():
            raise QuadratureFailure("operator B needs a bounded region")
        if kernel not in ("excluded_cell", "softened"):
            raise ValueError(f"unknown operator B kernel {kernel!r}")
        if not (math.isfinite(softening) and softening > 0):
            raise ValueError(f"softening must be finite and positive, got {softening!r}")
        self.region = region
        self.quad = quad
        self.kernel = kernel
        self.softening = softening
        self.cells = tuple(int(c) for c in cells)
        self._grid = None
        super().__init__(F, BoxDomain.unbounded())

    def _ensure_grid(self):
        if self._grid is not None:
            return self._grid
        lo, hi = self.region.lower, self.region.upper
        steps = [(hi[k] - lo[k]) / self.cells[k] for k in range(3)]
        axes = [lo[k] + (np.arange(self.cells[k]) + 0.5) * steps[k] for k in range(3)]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        xs, ys, zs = X.ravel(), Y.ravel(), Z.ravel()
        vals = np.zeros((3, xs.size), dtype=complex)
        for i in range(xs.size):
            pt = Point3(xs[i], ys[i], zs[i])
            if self.region.is_excluded(pt):
                continue  # excluded cells contribute nothing
            vals[:, i] = self.fn(pt)
        self._grid = (xs, ys, zs, vals, steps[0] * steps[1] * steps[2], steps)
        return self._grid

    def _cell_flat_index(self, p: Point3) -> Optional[int]:
        if not self.region.in_box(p):
            return None
        lo = self.region.lower
        _, _, _, _, _, steps = self._grid
        idx = []
        for k in range(3):
            i = int((p[k] - lo[k]) / steps[k])
            idx.append(min(max(i, 0), self.cells[k] - 1))
        return (idx[0] * self.cells[1] + idx[1]) * self.cells[2] + idx[2]

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
        xs, ys, zs, vals, dV, steps = self._ensure_grid()
        r2 = (xs - p.x) ** 2 + (ys - p.y) ** 2 + (zs - p.z) ** 2
        if self.kernel == "softened":
            a = self.softening * max(steps)
            w = dV * self._blob_kernel(r2, a)
            skip = None
        else:
            skip = self._cell_flat_index(p)
            with np.errstate(divide="ignore"):
                w = dV / (4.0 * np.pi * np.sqrt(r2))
        out = np.empty(3, dtype=complex)
        for k in range(3):
            s = np.dot(vals[k], w)
            if skip is not None:
                s -= vals[k, skip] * w[skip]
            out[k] = s
        return out


def operator_B(F: VectorField, region: BoxDomain,
               quad: QuadratureSpec = DEFAULT_QUAD,
               kernel: str = "excluded_cell",
               softening: float = 2.2,
               cells: Optional[tuple] = None) -> VectorField:
    """Componentwise Newtonian potential (kernel 1/(4 pi |x - y|)) over region.

    Midpoint tensor quadrature at resolution quad.volume_grid per axis; by
    default the cell containing the evaluation point is dropped, giving O(h)
    local error and O(h) accuracy overall.  kernel="softened" switches to a
    smooth softened kernel instead (see _NewtonianPotential).  That is the
    kernel whose gradient ``operator_rot_B`` uses in closed form for the
    solution builders; ``operator_B(kernel="softened")`` is its
    finite-difference reference and serves any other derivative of B.
    Evaluation is defined everywhere in R^3 and deterministic (fixed
    summation order).
    """
    return _NewtonianPotential(F, region, quad, kernel, softening, cells)


class _RotNewtonianPotential(_NewtonianPotential):
    """Curl of the softened Newtonian potential, differentiated analytically.

    rot B[F](x) = sum over cells of grad K(x - y) x F(y) dV, with the same
    grid, cell values and blob radius as ``_NewtonianPotential``.
    """

    __slots__ = ()

    def __call__(self, p: Point3) -> np.ndarray:
        p = Point3(*p)
        xs, ys, zs, vals, dV, steps = self._ensure_grid()
        d = np.stack((p.x - xs, p.y - ys, p.z - zs))
        a = self.softening * max(steps)
        s = dV * self._blob_kernel_grad(d[0] ** 2 + d[1] ** 2 + d[2] ** 2, a)
        return _curl(vals @ (s * d).T)


def operator_rot_B(F: VectorField, region: BoxDomain,
                   quad: QuadratureSpec = DEFAULT_QUAD,
                   cells: Optional[tuple] = None) -> VectorField:
    """rot of ``operator_B(F, region, quad, kernel="softened", cells=cells)``.

    The curl is computed in closed form from the gradient of the softened
    kernel in one pass over the cells, instead of by finite differences of
    the potential (12 full-grid sums per point at order 4).  Grid, cell
    values and blob radius (the default softening) are those of operator_B.
    """
    return _RotNewtonianPotential(F, region, quad, "softened", cells=cells)
