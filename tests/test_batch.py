"""Batched evaluation: ``F.batch``, the volume-grid build, operator A (against
the recursive adaptive Simpson rule too), the stencil operators, the catalog
closed forms and the residuals give the per-point values bit for bit and
raise the same errors."""

import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest

from riccati3d import fields, riccati
from riccati3d.errors import DomainError, QuadratureFailure, Riccati3dError, ZeroCrossing
from riccati3d.fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    _gauss_nodes,
    div,
    grad,
    laplacian,
    operator_A,
    operator_B,
    operator_rot_B,
    rot,
    vec3,
)
from riccati3d.riccati import (
    RiccatiInstance,
    build_W0_from_W,
    build_W_from_W0,
    build_W_prop2,
    riccati_residual,
    schrodinger_residual,
    w_from_q_pair,
)
from riccati3d.solutions import HARMONIC_IDS, acceptance_catalog, catalog_entry
from riccati3d.verify import entry_points, halton_points

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


def test_pointwise_batch_raises_the_pointwise_error_with_every_point_of_its_type():
    def fn(p):
        if p.x == 0.7:
            raise DomainError(f"no value at {p}")
        if p.x == 0.9:
            raise ZeroCrossing(f"zero at {p}")
        return vec3(p.x, p.y, p.z)
    F = _counting(fn)
    pts = [Point3(0.1, 0.2, 0.3), Point3(0.7, 0.2, 0.3), Point3(0.3, 0.5, 0.5),
           Point3(0.9, 0.1, 0.1), Point3(0.7, -1.0, 1.0)]
    with pytest.raises(DomainError) as one:
        F(pts[1])
    F.seen.clear()
    with pytest.raises(DomainError) as exc:
        F.batch(_points(pts))
    # the message of the call at that point alone, Python floats and all
    assert str(exc.value) == str(one.value) == "no value at Point3(x=0.7, y=0.2, z=0.3)"
    assert exc.value.index == 1
    # ``where`` holds at every point raising DomainError; the ZeroCrossing
    # at a later point is another check and is left out
    assert exc.value.where.tolist() == [False, True, False, False, True]
    assert all(type(c) is float for p in F.seen for c in p)


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


def _recursive_simpson(f, a: float, b: float, tol: float, max_depth: int = 30) -> complex:
    """Oracle: the adaptive Simpson rule as a depth-first recursion, one node
    at a time (Lyness, J. ACM 16, 1969)."""
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
            raise QuadratureFailure(f"adaptive Simpson exceeded depth budget on [{a}, {b}]")
        half = 0.5 * tol
        return (recurse(a, lm, m, fa, flm, fm, left, half, depth - 1)
                + recurse(m, rm, b, fm, frm, fb, right, half, depth - 1))

    return sign * recurse(a, m, b, fa, fm, fb, whole, tol, max_depth)


def _oracle_A(F, base: Point3, C: complex, tol: float, p: Point3) -> complex:
    """A(p) from the recursive rule, F evaluated at one node at a time."""
    total = complex(C)
    for k in range(3):
        node = lambda t, k=k: Point3(*p[:k], t, *base[k + 1:])  # noqa: E731
        total += _recursive_simpson(lambda t, k=k: F(node(t))[k], base[k], p[k], tol)
    return total


def _peak(p):
    # a narrow peak at x = 0.37 that the x-legs through it refine deeply
    return vec3(1e-4 / (1e-3 + (p.x - 0.37) ** 2), 0.1 * np.cos(3.0 * p.y),
                0.1 * np.sin(4.0 * p.z))


_ORACLE_FIELDS = {
    "poly_pointwise": VectorField(_poly_pointwise),
    "poly_vectorized": VectorField(_poly_vectorized, vectorized=True),
    "peak": VectorField(_peak, vectorized=True),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-16])
@pytest.mark.parametrize("name", sorted(_ORACLE_FIELDS))
def test_adaptive_A_equals_the_recursive_rule_bitwise(name, tol):
    F = _ORACLE_FIELDS[name]
    base, pts = _targets()
    pts = pts[::3] + [Point3(0.9, -0.6, 0.55), Point3(-0.5, 0.4, -0.65)]  # 8 targets
    expect = [_oracle_A(F, base, 0.25j, tol, p) for p in pts]
    A = operator_A(F, base, 0.25j, QuadratureSpec(line_tol=tol))
    assert _bits([A(p) for p in pts]) == _bits(expect)
    assert _bits(A.batch(_points(pts))) == _bits(expect)
    square = Point3(*(c.reshape(2, 4) for c in _points(pts)))
    assert _bits(A.batch(square)) == _bits(expect)


def test_adaptive_A_refines_the_peak_deeply():
    F = _counting(_peak, vectorized=True)
    operator_A(F, Point3(0.0, 0.0, 0.0), 0j, QuadratureSpec())(Point3(0.9, 0.0, 0.0))
    assert sum(P[0].size for P in F.seen) > 300  # a dozen nodes suffice off the peak


def test_adaptive_A_beyond_reach_fails_fast_in_bounded_memory():
    # 1e-30 is far below round-off: every leg runs into the depth budget
    F = VectorField(lambda p: np.array([math.exp(0.3 * p.x), 0.5 * p.y, math.sin(p.z)],
                                       complex))
    A = operator_A(F, Point3(0, 0, 0), 0j, QuadratureSpec(line_tol=1e-30))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(QuadratureFailure, match="depth budget"):
            A(Point3(1.0, 0.5, -0.4))
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 2.0
    assert peak < 32 * 2 ** 20


def test_adaptive_A_of_non_finite_field_raises_naming_the_first_node():
    # the first round evaluates the ends and the midpoint of each leg: here
    # x = 0, 0.5 and 1 on the x-leg, of which 0.5 comes first
    F = VectorField(lambda p: np.array([math.inf if p.x > 0.4 else 1.0, 0, 0], complex))
    A = operator_A(F, Point3(0.0, 0.0, 0.0), 0j, QuadratureSpec())
    with pytest.raises(DomainError, match="not finite") as exc:
        A(Point3(1.0, 0, 0))
    assert str(exc.value).endswith("Point3(x=np.float64(0.5), y=0.0, z=0.0)")
    with pytest.raises(DomainError) as batch:
        A.batch(_points([(0.3, 0.1, 0.0), (1.0, 0.0, 0.0)]))
    assert str(batch.value) == str(exc.value)


def test_pointwise_gauss_A_evaluates_each_leg_as_one_batch():
    F = _counting(_poly_vectorized, vectorized=True)
    base = Point3(0.0, -0.2, 0.15)
    p, q = Point3(0.4, 0.7, -0.35), Point3(0.4, 0.7, 0.5)  # q shares x and y with p
    A = operator_A(F, base, 0.25j, GAUSS32)
    values = [A(p)]
    assert len(F.seen) == 3  # the x-, y- and z-legs, in that order, 32 nodes each
    for k, P in enumerate(F.seen):
        assert all(c.shape == (1, 32) for c in P)
        assert [np.ptp(c) > 0 for c in P] == [m == k for m in range(3)]
    values.append(A(q))
    assert len(F.seen) == 6  # all three legs again: nothing is kept between calls
    assert all(c.shape == (1, 32) for P in F.seen[3:] for c in P)
    batch = operator_A(VectorField(_poly_vectorized, vectorized=True), base, 0.25j,
                       GAUSS32).batch(_points([p, q]))
    assert _bits(values) == _bits(batch)


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
                         lambda p: (abs(p.x - 0.5) < 0.05) & (abs(p.y - 0.5) < 0.2))
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


def test_gauss_A_batch_names_the_target_of_an_error_raised_by_F():
    # F rejects x > 0.5: the third target's x-leg reaches past it, the first
    # two targets' legs do not
    def fn(p):
        if p.x > 0.5:
            raise DomainError(f"no value at {p}")
        return np.array([1.0, 1.0, 1.0], complex)
    P = _points([(0.2, 0.3, 0.1), (0.4, -0.2, 0.3), (0.9, 0.1, 0.2)])
    A = operator_A(VectorField(fn), Point3(0, 0, 0), 0j, GAUSS4)
    with pytest.raises(DomainError) as exc:
        A.batch(P)
    assert exc.value.index == 2
    assert exc.value.where.tolist() == [False, False, True]
    with pytest.raises(DomainError) as one:
        A(Point3(0.9, 0.1, 0.2))
    assert one.value.index == 0 and one.value.where is None
    square = Point3(*(np.resize(c, 4).reshape(2, 2) for c in P))  # targets 0, 1, 2, 0
    with pytest.raises(DomainError) as exc:
        A.batch(square)
    assert exc.value.index == 2
    assert exc.value.where.tolist() == [[False, False], [True, False]]


def test_adaptive_A_batch_names_the_target_of_an_error_raised_by_F():
    # as under the Gauss rule, the error names the target whose leg raised it
    def fn(p):
        if p.x > 0.5:
            raise DomainError(f"no value at {p}")
        return np.array([1.0, 1.0, 1.0], complex)
    P = _points([(0.2, 0.3, 0.1), (0.4, -0.2, 0.3), (0.9, 0.1, 0.2)])
    A = operator_A(VectorField(fn), Point3(0, 0, 0), 0j, QuadratureSpec())
    with pytest.raises(DomainError) as exc:
        A.batch(P)
    assert exc.value.index == 2
    assert exc.value.where.tolist() == [False, False, True]
    assert _bits(A.batch(_points([(0.2, 0.3, 0.1), (0.4, -0.2, 0.3)]))) == _bits(
        [A(Point3(0.2, 0.3, 0.1)), A(Point3(0.4, -0.2, 0.3))])


def test_prop2_and_prop3_builders_batch_equals_pointwise_bitwise():
    one = ScalarField(lambda p: 1.0 + 0j, vectorized=True)
    w = VectorField(lambda p: vec3(1.0, 0.0, 0.0), vectorized=True)
    _, W0, Q = build_W_prop2(w, one, None, Point3(0, 0, 0), TUBE, cells=(10, 8, 8))
    phi = ScalarField(lambda p: np.exp(0.5 * p.x), vectorized=True)
    Wv = VectorField(lambda p: vec3(p.y * p.z, np.sin(p.x), p.x - p.z), vectorized=True)
    W0_back = build_W0_from_W(Wv, phi, Point3(0, 0, 0))
    pts = halton_points((Point3(3.5, -0.2, -0.2), Point3(4.5, 0.2, 0.2)), 6, 1)
    for F in (W0, Q, W0_back):
        assert F.vectorized
        assert _bits(F.batch(_points(pts))) == _bits(np.moveaxis(
            np.array([F(p) for p in pts]), 0, -1))


# -- the volume-grid build -----------------------------------------------------

def _inv_x():
    dom = BoxDomain.box((0.05, -5, -5), (50, 5, 5))
    return RiccatiInstance(VectorField(lambda p: vec3(-1.0 / p.x, 0, 0), dom,
                                       vectorized=True), ZERO_Q)


def test_w_from_q_pair_grid_equals_the_per_cell_build(monkeypatch):
    """The batched grid equals both a scalar evaluation of the same integrand
    per cell and the pointwise integrand the builder used before batching."""
    built = _capture_rot_B(monkeypatch)
    monkeypatch.setattr(fields, "_BUILD_CHUNK", 256)
    zero = RiccatiInstance(VectorField(lambda p: np.zeros(3, complex), vectorized=True),
                           ZERO_Q)
    inst = _inv_x()
    cells = (10, 8, 8)  # 640 cells: two full build chunks and a partial one
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
    assert B.fn.vectorized
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
        xs, ys, zs, vals, *_ = operator_B(F, region,
                                          QuadratureSpec(volume_grid=8))._ensure_grid()
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


# -- the catalog and the stencil operators --------------------------------------
#
# The bound for batch against pointwise, fixed before the batch path was
# written, is 0 ulp: the closed forms are arithmetic plus numpy ufuncs, which
# run the same loop for one point and for a batch, and |Q|^2 takes the same
# BLAS dot per point (``riccati._dot``).

_ENTRIES = acceptance_catalog() + [catalog_entry(f"harmonic:{s}") for s in HARMONIC_IDS]


def _pointwise(fn, pts) -> np.ndarray:
    """fn at each point, stacked with the component axis first."""
    return np.moveaxis(np.array([fn(p) for p in pts]), 0, -1)


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e.name)
def test_catalog_batch_equals_pointwise_bitwise(entry):
    pts = entry_points(entry, 40, seed=5)  # Halton points of the sample box
    P = _points(pts)
    fields = [entry.instance.Q, entry.instance.q] + ([entry.psi] if entry.psi else [])
    for F in fields:
        assert F.vectorized
        assert _bits(F.batch(P)) == _bits(_pointwise(F, pts))
    Q = entry.instance.Q
    assert _bits(div(Q, P)) == _bits([div(Q, p) for p in pts])
    assert isinstance(div(Q, pts[0]), complex)
    sc, vec = riccati_residual(entry.instance, P)
    assert sc.shape == (40,) and vec.shape == (3, 40)
    assert _bits(sc) == _bits([riccati_residual(entry.instance, p)[0] for p in pts])
    assert _bits(vec) == _bits(_pointwise(lambda p: riccati_residual(entry.instance, p)[1],
                                          pts))
    if entry.psi is not None:
        sch = entry.schrodinger()
        assert _bits(schrodinger_residual(sch, P)) == _bits(
            [schrodinger_residual(sch, p) for p in pts])


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: e.name)
def test_catalog_domain_mask_equals_pointwise(entry):
    # a box three times the sample box's size, so that it crosses the
    # singular sets; each predicate is called once per mask
    lo, hi = map(np.array, entry.sample_box)
    box = (Point3(*(lo - (hi - lo))), Point3(*(hi + (hi - lo))))
    pts = halton_points(box, 300, seed=2)
    dom = entry.instance.Q.domain
    mask = dom.ok_mask(_points(pts))
    assert mask.tolist() == [dom.ok(p) for p in pts]
    if dom.excluded is not None:
        assert 0 < mask.sum() < len(pts)


@pytest.mark.parametrize("where", ["box", "excluded"])
@pytest.mark.parametrize("op", ["grad", "div", "rot", "laplacian", "riccati_residual"])
def test_batched_stencil_off_domain_raises_first_target_error_before_any_evaluation(
        op, where):
    scheme = DiffScheme()
    p = Point3(0.5, 0.5, 0.5)
    bad = p._replace(z=p.z - 2 * scheme.step(p, 2))  # the last point of p's z stencil
    if where == "box":  # the third target is off the box too, at other points
        domain = BoxDomain.box((-5, -5, bad.z + 1e-9), (5, 5, 5))
    else:
        domain = BoxDomain.unbounded(lambda q: (q.x == bad.x) & (q.y == bad.y) & (q.z == bad.z))
    targets = [Point3(0.2, 0.3, 0.9), p, Point3(0.7, 0.5, 0.45)]
    if where != "box":
        targets[2] = bad._replace(z=bad.z + scheme.step(bad, 2))  # bad is its z - h point
    for vectorized in (False, True):
        F = _counting(lambda t: vec3(t.x * t.y, t.z, t.x + t.z), domain, vectorized)
        f = ScalarField(lambda t: F(t)[0], domain)
        call = {"grad": lambda P: grad(f, P, scheme), "div": lambda P: div(F, P, scheme),
                "rot": lambda P: rot(F, P, scheme),
                "laplacian": lambda P: laplacian(F, P, scheme),
                "riccati_residual": lambda P: riccati_residual(
                    RiccatiInstance(F, ScalarField(lambda t: 0j, domain)), P, scheme)}[op]
        with pytest.raises(DomainError) as exc:
            call(p)
        message = str(exc.value)
        assert message.startswith(f"stencil point {bad} ")
        F.seen.clear()
        with pytest.raises(DomainError) as exc:
            call(_points(targets))
        assert str(exc.value) == message and exc.value.index == 1
        # every target with a bad stencil point: the second and the third
        assert exc.value.where.tolist() == [False, True, True]
        assert F.seen == []


def _raises(F, p: Point3) -> bool:
    try:
        F(p)
    except Riccati3dError:
        return True
    return False


@pytest.mark.parametrize("solution_id,params,field,bad", [
    ("rotational", {"k": 1.0, "c": 0.0}, "Q", [(0.0, 0.0, 0.3)]),  # the axis
    ("rotational", {"k": 1.0, "c": 0.0}, "Q", [(0.0, 1.0, 0.3)]),  # rho = e^c = 1
    ("rotational", {"k": 2.0, "c": 0.3466}, "q", [(0.0, 0.0, -0.1)]),
    ("rotational", {"k": 2.0, "c": 0.3466}, "psi", [(0.0, 0.0, 0.2)]),
    ("conical", {"C1": 2.0, "C2": 2.0}, "Q", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0)]),
    ("conical", {"C1": 2.0, "C2": 2.0}, "psi", [(0.0, 0.0, 0.5)]),
    ("conical", {"C1": 2.0, "C2": 2.0}, "q", [(0.0, 0.0, 0.0)]),
    ("harmonic:x", {}, "Q", [(0.0, 0.5, 0.5), (-0.0, 0.2, 0.1)]),
])
def test_batched_closed_form_error_names_the_first_rejected_point(solution_id, params,
                                                                  field, bad):
    entry = catalog_entry(solution_id, **params)
    F = {"Q": entry.instance.Q, "q": entry.instance.q, "psi": entry.psi}[field]
    good = [(0.9, 0.2, 0.1), (1.1, 0.15, 0.05)]
    pts = [Point3(*c) for c in good[:1] + bad + good[1:]]
    with pytest.raises(Riccati3dError) as one:
        F(pts[1])
    with pytest.raises(type(one.value)) as exc:
        F.batch(_points(pts))
    assert str(exc.value) == str(one.value) and exc.value.index == 1
    # ``where`` holds at every point the pointwise call rejects, and only there
    assert exc.value.where.tolist() == [_raises(F, p) for p in pts]
    if solution_id == "harmonic:x":
        assert isinstance(exc.value, ZeroCrossing)


def test_domain_predicate_is_called_once_per_mask_and_so_is_each_side_of_intersect():
    calls = {"x": 0, "y": 0}

    def counted(axis, bound):
        def predicate(q):
            calls[axis] += 1
            return getattr(q, axis) > bound
        return predicate
    right = BoxDomain.unbounded(counted("x", 0.5))
    top = BoxDomain.unbounded(counted("y", 0.5))
    box = BoxDomain.box((-1, -1, -1), (0.9, 0.9, 0.9))
    pts = halton_points((Point3(0, 0, 0), Point3(1, 1, 1)), 64)
    P = _points(pts)
    assert right.ok_mask(P).tolist() == [right.ok(p) for p in pts]
    assert calls == {"x": 1 + 64, "y": 0}
    for dom, y_calls in ((right.intersect(top), 1), (top.intersect(right), 1),
                         (right.intersect(box), 0), (box.intersect(right), 0)):
        before = dict(calls)
        mask = dom.ok_mask(P)
        assert (calls["x"] - before["x"], calls["y"] - before["y"]) == (1, y_calls)
        assert mask.tolist() == [dom.ok(p) for p in pts]
