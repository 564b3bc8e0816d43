"""Batched evaluation: ``F.batch``, the volume-grid build and operator A's
Gauss legs give the per-point values bit for bit and raise the same errors."""

import cmath
import math

import numpy as np
import pytest

from riccati3d import riccati
from riccati3d.errors import DomainError
from riccati3d.fields import (
    BoxDomain,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    _gauss_nodes,
    operator_A,
    operator_B,
    operator_rot_B,
    vec3,
)
from riccati3d.riccati import RiccatiInstance, build_W_from_W0, w_from_q_pair

ZERO_Q = ScalarField(lambda p: 0j)
TUBE = BoxDomain.box((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
CUBE = BoxDomain.box((-1, -1, -1), (1, 1, 1))
GAUSS32 = QuadratureSpec(line_rule="gauss")
GAUSS4 = QuadratureSpec(line_rule="gauss", gauss_order=4)


def _bits(a) -> bytes:
    """Exact bit pattern of complex values, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=complex).tobytes()


def _points(pts):
    return Point3(*(np.array(c) for c in zip(*pts)))


def _per_cell(B) -> np.ndarray:
    """The grid values of a potential, one scalar evaluation per cell in C order."""
    xs, ys, zs, *_ = B._ensure_grid()
    return np.array([B.fn(Point3(x, y, z)) for x, y, z in zip(xs, ys, zs)]).T


def _capture_rot_B(monkeypatch):
    built = []

    def capture(*args, **kwargs):
        built.append(operator_rot_B(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(riccati, "operator_rot_B", capture)
    return built


def _counting(fn, domain=None, vectorized=False):
    """A vector field recording every point array it is called with."""
    def counted(p):
        field.seen.append(p)
        return fn(p)
    field = VectorField(counted, domain, vectorized=vectorized)
    field.seen = []
    return field


# -- F.batch ----------------------------------------------------------------

def test_batch_equals_pointwise_values_for_both_kinds_of_evaluator():
    P = _points([(0.3, -0.2, 1.0), (-0.0, 0.5, 0.25), (2.0, 1.0, -1.5)])
    pointwise = _counting(lambda p: np.array([p.x * p.y, p.z, p.x - p.z], complex))
    vectorized = _counting(lambda p: vec3(p.x * p.y, p.z, p.x - p.z), vectorized=True)
    expect = np.array([pointwise(Point3(*c)) for c in zip(*P)]).T
    pointwise.seen.clear()
    for field, calls in ((pointwise, 3), (vectorized, 1)):
        out = field.batch(P)
        assert out.shape == (3, 3)
        assert _bits(out) == _bits(expect)
        assert len(field.seen) == calls
    scalar = ScalarField(lambda p: p.x * p.y + 1j * p.z, vectorized=True)
    assert _bits(scalar.batch(P)) == _bits([scalar(Point3(*c)) for c in zip(*P)])


def test_batch_broadcasts_constants_and_keeps_point_evaluation():
    P = Point3(*np.meshgrid([0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [0.5], indexing="ij"))
    one = ScalarField(lambda p: 1.0 + 0j, vectorized=True)
    e1 = VectorField(lambda p: np.array([1.0, 0.0, 0.0], complex), vectorized=True)
    assert one.batch(P).shape == (3, 3, 1) and np.all(one.batch(P) == 1)
    assert e1.batch(P).shape == (3, 3, 3, 1)
    assert np.all(e1.batch(P)[0] == 1) and np.all(e1.batch(P)[1:] == 0)
    p = Point3(0.1, 1.0, 2.0)
    assert one.batch(p) == one(p) == 1 and isinstance(one.batch(p), complex)
    assert _bits(e1.batch(p)) == _bits(e1(p))


# -- operator A ---------------------------------------------------------------

def _poly_pointwise(p):
    # F_y flips with the sign of x, so -0.0 and 0.0 give different legs
    return np.array([p.y * p.z + p.x, (p.z + 0.5) * p.y * math.copysign(1.0, p.x),
                     p.x * p.y / (1.0 + p.z * p.z)], complex)


def _poly_vectorized(p):
    sign = np.copysign(1.0, p.x)
    return vec3(p.y * p.z + p.x, (p.z + 0.5) * p.y * sign, p.x * p.y / (1.0 + p.z * p.z))


def _targets():
    """Targets that share x and y, carry -0.0 and 0.0, and sit on the base's
    coordinates (zero-length legs)."""
    base = Point3(0.0, -0.2, 0.15)
    pts = [Point3(x, y, z) for x in (-0.0, 0.0, 0.4, -0.3) for y in (0.7, -0.2)
           for z in (0.15, -0.35)]
    return base, pts + [Point3(0.4, 0.7, 0.15), base]


@pytest.mark.parametrize("quad", [GAUSS4, GAUSS32], ids=["gauss4", "gauss32"])
@pytest.mark.parametrize("vectorized", [False, True], ids=["pointwise_F", "vectorized_F"])
def test_batched_A_equals_scalar_A_bitwise(quad, vectorized):
    base, pts = _targets()
    fn = _poly_vectorized if vectorized else _poly_pointwise
    F = VectorField(fn, vectorized=vectorized)
    expect = [operator_A(F, base, 0.25j, quad)(p) for p in pts]
    got = operator_A(F, base, 0.25j, quad).batch(_points(pts))
    assert got.shape == (len(pts),)
    assert _bits(got) == _bits(expect)
    # a 2-D batch keeps its shape
    grid = _points(pts[:16])
    square = Point3(*(c.reshape(4, 4) for c in grid))
    assert _bits(operator_A(F, base, 0.25j, quad).batch(square)) == _bits(expect[:16])


@pytest.mark.parametrize("vectorized", [False, True], ids=["pointwise_F", "vectorized_F"])
def test_A_batch_skips_zero_length_legs(vectorized):
    # F_y is NaN on the plane y = 0, where a zero-length y-leg would sit
    def fn(p):
        if vectorized:
            return vec3(1.0, np.where(p.y == 0.0, math.nan, 1.0), 1.0)
        return np.array([1.0, math.nan if p.y == 0.0 else 1.0, 1.0], complex)
    pts = _points([(0.5, 0.0, 0.3), (0.25, -0.0, -0.4), (0.0, 0.0, 0.0)])
    F = VectorField(fn, vectorized=vectorized)
    expect = [operator_A(F, Point3(0.0, 0.0, 0.0), 0j, GAUSS4)(Point3(*c))
              for c in zip(*pts)]
    got = operator_A(F, Point3(0.0, 0.0, 0.0), 0j, GAUSS4).batch(pts)
    assert _bits(got) == _bits(expect)
    assert np.allclose(expect, [0.8, -0.15, 0.0], rtol=0, atol=1e-14)


def test_adaptive_A_batch_integrates_target_by_target():
    base, pts = _targets()
    F = VectorField(_poly_vectorized, vectorized=True)
    quad = QuadratureSpec()
    expect = [operator_A(F, base, 0j, quad)(p) for p in pts]
    assert _bits(operator_A(F, base, 0j, quad).batch(_points(pts))) == _bits(expect)


def _first_pointwise_error(A, P: Point3) -> str:
    """The error of the first target that raises, evaluating one at a time."""
    for c in zip(*P):
        try:
            A(Point3(*c))
        except DomainError as exc:
            return str(exc)
    raise AssertionError("no target raised")


@pytest.mark.parametrize("vectorized", [False, True], ids=["pointwise_F", "vectorized_F"])
def test_A_batch_off_domain_raises_first_target_error_before_any_evaluation(vectorized):
    # a hole the y-leg of the second target crosses and a wall at x = 0.8
    # the x-leg of the third target crosses; the fourth has a zero-length y-leg
    hole = BoxDomain.box((-5, -5, -5), (0.8, 5, 5),
                         lambda p: abs(p.x - 0.5) < 0.05 and abs(p.y - 0.5) < 0.2)
    base = Point3(0.0, 0.0, 0.0)
    pts = _points([(0.3, 0.9, 0.2), (0.5, 1.0, 0.0), (0.9, 0.1, 0.1), (0.5, 0.0, -0.3)])
    fn = _poly_vectorized if vectorized else _poly_pointwise
    message = _first_pointwise_error(operator_A(VectorField(fn, hole), base, 0j, GAUSS32),
                                     pts)
    assert "Point3(x=np.float64(0.5)" in message  # the second target's y-leg
    F = _counting(fn, hole, vectorized)
    with pytest.raises(DomainError) as exc:
        operator_A(F, base, 0j, GAUSS32).batch(pts)
    assert str(exc.value) == message
    assert F.seen == []
    # without the first two targets the third one's x-leg is the first offender
    rest = Point3(*(c[2:] for c in pts))
    message = _first_pointwise_error(operator_A(VectorField(fn, hole), base, 0j, GAUSS32),
                                     rest)
    with pytest.raises(DomainError) as exc:
        operator_A(F, base, 0j, GAUSS32).batch(rest)
    assert str(exc.value) == message
    assert "y=0.0, z=0.0" in message and F.seen == []


def test_gauss_A_of_non_finite_field_raises_naming_the_first_node():
    F = VectorField(lambda p: np.array([math.inf if p.x > 0.5 else 1.0, 0, 0], complex))
    nodes, _ = _gauss_nodes(32)
    first = next(float(0.5 + 0.5 * t) for t in nodes if 0.5 + 0.5 * t > 0.5)
    A = operator_A(F, Point3(0, 0, 0), 0j, GAUSS32)
    with pytest.raises(DomainError, match="not finite") as exc:
        A(Point3(1.0, 0, 0))
    assert f"x=np.float64({first})" in str(exc.value)
    nan = VectorField(lambda p: np.array([1.0, math.nan, 0], complex))
    with pytest.raises(DomainError, match="not finite"):
        operator_A(nan, Point3(0, 0, 0), 0j, GAUSS4)(Point3(0.3, 0.4, 0.0))


@pytest.mark.parametrize("vectorized", [False, True], ids=["pointwise_F", "vectorized_F"])
def test_batched_A_of_non_finite_field_raises_the_pointwise_error(vectorized):
    def fn(p):
        bad = p.z > 0.45
        if vectorized:
            return vec3(1.0, 1.0, np.where(bad, math.nan, 1.0))
        return np.array([1.0, 1.0, math.nan if bad else 1.0], complex)
    pts = _points([(0.3, 0.2, 0.4), (0.6, 0.1, 0.5), (0.9, 0.0, 0.7)])
    message = _first_pointwise_error(operator_A(VectorField(fn), Point3(0, 0, 0), 0j,
                                                GAUSS32), pts)
    with pytest.raises(DomainError) as exc:
        operator_A(VectorField(fn, vectorized=vectorized), Point3(0, 0, 0), 0j,
                   GAUSS32).batch(pts)
    assert str(exc.value) == message and "not finite" in message


# -- the volume-grid build -----------------------------------------------------

def _inv_x():
    dom = BoxDomain.box((0.05, -5, -5), (50, 5, 5))
    return RiccatiInstance(VectorField(lambda p: vec3(-1.0 / p.x, 0, 0), dom,
                                       vectorized=True), ZERO_Q)


def test_w_from_q_pair_grid_equals_the_per_cell_build(monkeypatch):
    """The batched grid equals both a scalar evaluation of the same integrand
    per cell and the pointwise integrand the builder used before batching."""
    built = _capture_rot_B(monkeypatch)
    zero = RiccatiInstance(VectorField(lambda p: np.zeros(3, complex), vectorized=True),
                           ZERO_Q)
    inst = _inv_x()
    cells = (40, 8, 8)  # 2560 cells: more than one build chunk
    w_from_q_pair(inst, zero, None, Point3(1, 0, 0), TUBE, GAUSS32, cells=cells)
    B = built[-1]
    assert B.fn.vectorized
    vals = B._ensure_grid()[3]
    assert _bits(vals) == _bits(_per_cell(B))
    Q, Q1 = inst.Q, zero.Q
    A_Q1 = operator_A(Q1, Point3(1, 0, 0), 0j, GAUSS32)
    A_diff = operator_A(VectorField(lambda t: Q(t) - Q1(t), Q.domain), Point3(1, 0, 0),
                        0j, GAUSS32)
    before = VectorField(lambda t: cmath.exp(-2.0 * A_Q1(t) - A_diff(t)) * (Q1(t) - Q(t)))
    assert _bits(vals) == _bits(_per_cell(operator_rot_B(before, TUBE, GAUSS32, cells)))


def test_pointwise_integrand_grid_equals_the_per_cell_build(monkeypatch):
    built = _capture_rot_B(monkeypatch)
    W0 = ScalarField(lambda p: complex(p.x))
    phi = ScalarField(lambda p: 1.0 + 0j)
    build_W_from_W0(W0, phi, None, TUBE, cells=(40, 8, 8))
    B = built[-1]
    assert not B.fn.vectorized
    assert _bits(B._ensure_grid()[3]) == _bits(_per_cell(B))


def test_ball_indicator_grid_equals_the_per_cell_build():
    chi = VectorField(lambda p: vec3(
        np.where(p.x * p.x + p.y * p.y + p.z * p.z <= 1.0, 1.0, 0.0), 0.0, 0.0),
        vectorized=True)
    before = VectorField(lambda p: np.array(
        [1.0 if p.x * p.x + p.y * p.y + p.z * p.z <= 1.0 else 0.0, 0.0, 0.0], complex))
    quad = QuadratureSpec(volume_grid=64)
    vals = operator_B(chi, CUBE, quad)._ensure_grid()[3]
    assert _bits(vals) == _bits(_per_cell(operator_B(before, CUBE, quad)))


def test_excluded_cells_are_never_evaluated():
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1), lambda p: p.x + p.y > 0.5)
    for vectorized in (False, True):
        F = _counting(lambda p: vec3(1.0 + p.z, 0.0, 0.0), vectorized=vectorized)
        xs, ys, zs, vals, *_ = operator_B(F, region, QuadratureSpec(volume_grid=8),
                                          kernel="softened")._ensure_grid()
        seen = [Point3(*c) for P in F.seen for c in zip(*(np.ravel(a) for a in P))]
        excluded = xs + ys > 0.5
        assert len(seen) == int(np.sum(~excluded))
        assert not any(p.x + p.y > 0.5 for p in seen)
        assert np.all(vals[:, excluded] == 0) and np.all(vals[0, ~excluded] != 0)


_CELL = Point3(-0.125, 0.125, 0.375)  # a centre of the 8^3 grid on the cube
_LATER = Point3(0.375, 0.125, 0.375)  # a centre after it in C order


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", [
    lambda F: operator_B(F, CUBE, QuadratureSpec(volume_grid=8)),
    lambda F: operator_rot_B(F, CUBE, QuadratureSpec(volume_grid=8)),
], ids=["B", "rot_B"])
def test_non_finite_integrand_raises_naming_the_first_cell(build, bad):
    F = VectorField(lambda p: np.array(
        [bad if tuple(p) in (_CELL, _LATER) else 1.0, 0.0, 0.0], complex))
    B = build(F)
    with pytest.raises(DomainError) as exc:
        B(Point3(2, 0, 0))
    cell = Point3(*map(np.float64, _CELL))
    assert str(exc.value) == f"operator B integrand is not finite at cell centre {cell}"
    with pytest.raises(DomainError):  # nothing half-built is kept
        B(Point3(2, 0, 0))
