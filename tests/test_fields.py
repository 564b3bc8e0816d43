"""Differential and integral operators on closed-form fields."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from riccati3d.biquat import Biquaternion, conj_h, max_component_diff, mul
from riccati3d.errors import DomainError, QuadratureFailure
from riccati3d.fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
    _BLOB_RADIUS,
    _NewtonianPotential,
    diff,
    dirac_left,
    dirac_right,
    div,
    grad,
    laplacian,
    operator_A,
    operator_B,
    operator_rot_B,
    rot,
)

S = DiffScheme()


def test_dirac_of_y_e1_is_minus_e3():
    F = VectorField(lambda p: np.array([p.y, 0, 0], complex))
    out = dirac_left(F, Point3(0.3, -0.7, 1.1), S)
    assert max_component_diff(out, Biquaternion(0, 0, 0, -1)) < 1e-10


def test_dirac_of_x_e1_is_minus_one():
    F = VectorField(lambda p: np.array([p.x, 0, 0], complex))
    out = dirac_left(F, Point3(0.4, 0.2, -0.9), S)
    assert max_component_diff(out, Biquaternion(-1)) < 1e-10


def test_grad_of_x_squared():
    f = ScalarField(lambda p: complex(p.x * p.x))
    g = grad(f, Point3(3, 0, 0), S)
    assert np.max(np.abs(g - np.array([6.0, 0, 0]))) < 1e-10


def test_diff_dispatcher_matches_named_ops():
    f = ScalarField(lambda p: complex(math.sin(p.x) * p.y))
    F = VectorField(lambda p: np.array([p.y * p.z, p.x, p.z * p.z], complex))
    p = Point3(0.5, 0.7, -0.2)
    assert diff("grad", f, p, S) == pytest.approx(grad(f, p, S))
    assert diff("div", F, p, S) == pytest.approx(div(F, p, S))
    assert np.allclose(diff("rot", F, p, S), rot(F, p, S))
    assert diff("laplacian", f, p, S) == pytest.approx(laplacian(f, p, S))
    assert max_component_diff(diff("dirac_left", F, p, S), dirac_left(F, p, S)) == 0
    with pytest.raises(ValueError):
        diff("curl", F, p, S)


def test_dirac_equals_div_grad_rot_decomposition():
    field = QuaternionField(lambda p: Biquaternion(
        p.x * p.y, p.y * p.z, math.sin(p.x), p.z * p.z))
    p = Point3(0.4, -0.3, 0.8)
    vec_part = VectorField(lambda t: field(t).vector)
    sc_part = ScalarField(lambda t: field(t).scalar)
    expect = Biquaternion.from_scalar_vector(
        -div(vec_part, p, S), grad(sc_part, p, S) + rot(vec_part, p, S))
    assert max_component_diff(dirac_left(field, p, S), expect) < 1e-9
    expect_r = Biquaternion.from_scalar_vector(
        -div(vec_part, p, S), grad(sc_part, p, S) - rot(vec_part, p, S))
    assert max_component_diff(dirac_right(field, p, S), expect_r) < 1e-9


def test_dirac_square_is_minus_laplacian_on_harmonic():
    f = ScalarField(lambda p: complex(math.sin(p.x) * math.exp(p.y)))
    p = Point3(0.3, 0.4, 0.1)
    Df = QuaternionField(lambda t: Biquaternion.from_vector(grad(f, t, S)))
    once_more = dirac_left(Df, p, S)
    assert once_more.max_abs() < 1e-6
    assert abs(laplacian(f, p, S)) < 1e-6


def test_conjugation_intertwines_left_right_dirac():
    field = QuaternionField(lambda p: Biquaternion(
        p.x * p.x, p.y, p.x * p.z, math.cos(p.y)))
    conj_field = QuaternionField(lambda p: conj_h(field(p)))
    p = Point3(-0.2, 0.6, 0.9)
    lhs = conj_h(dirac_left(field, p, S))
    rhs = -dirac_right(conj_field, p, S)
    assert max_component_diff(lhs, rhs) < 1e-9


def test_quaternionic_leibniz_rule():
    from riccati3d.fields import _d1, _stencil
    phi = QuaternionField(lambda p: Biquaternion(p.x, p.y * p.z, 0.5 * p.x, p.z))
    psi = QuaternionField(lambda p: Biquaternion(p.z, p.x, p.x * p.y, 1.0))
    p = Point3(0.7, -0.4, 0.3)
    prod = QuaternionField(lambda t: mul(phi(t), psi(t)))
    lhs = dirac_left(prod, p, S)
    rhs = mul(dirac_left(phi, p, S), psi(p)) + mul(conj_h(phi(p)), dirac_left(psi, p, S))
    for k, s in enumerate(_stencil(psi.domain, p, S)):
        rhs = rhs - 2.0 * phi(p).vector[k] * _d1(psi, *s)
    assert max_component_diff(lhs, rhs) < 1e-8


def test_stencil_domain_error():
    dom = BoxDomain.box((0, 0, 0), (1, 1, 1))
    f = ScalarField(lambda p: complex(p.x), dom)
    with pytest.raises(DomainError):
        grad(f, Point3(0.9999, 0.5, 0.5), S)
    excl = BoxDomain.unbounded(lambda p: abs(p.x - 0.5) < 1e-2)
    g = ScalarField(lambda p: complex(p.x), excl)
    with pytest.raises(DomainError):
        grad(g, Point3(0.505, 0.5, 0.5), S)


def _counting(kind, domain=None):
    """A field of the given kind that counts its evaluations in ``.calls``."""
    def fn(p):
        field.calls += 1
        if kind is VectorField:
            return np.array([p.x * p.y, p.z, p.x + p.z], complex)
        if kind is QuaternionField:
            return Biquaternion(p.x, p.y * p.z, p.z, p.x * p.y)
        return complex(p.x * p.y * p.z)
    field = kind(fn, domain)
    field.calls = 0
    return field


_STENCIL_OPS = [(grad, ScalarField), (div, VectorField), (rot, VectorField),
                (laplacian, VectorField), (dirac_left, QuaternionField),
                (dirac_right, QuaternionField)]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("op,kind", _STENCIL_OPS, ids=lambda v: getattr(v, "__name__", ""))
def test_stencil_evaluation_counts(op, kind, order):
    # 6 (order 2) or 12 (order 4) shifted points; laplacian adds its centre once
    f = _counting(kind)
    op(f, Point3(0.3, -0.7, 1.2), DiffScheme(order=order))
    assert f.calls == 6 * order // 2 + (op is laplacian)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("where", ["box", "excluded"])
@pytest.mark.parametrize("op,kind", _STENCIL_OPS, ids=lambda v: getattr(v, "__name__", ""))
def test_stencil_point_off_domain_raises_before_any_evaluation(op, kind, where, order):
    scheme = DiffScheme(order=order)
    p = Point3(0.5, 0.5, 0.5)
    h = scheme.step(p, 2)
    bad = p._replace(z=p.z - order // 2 * h)  # the last point of the z stencil
    if where == "box":
        domain = BoxDomain.box((0, 0, bad.z + 1e-9), (1, 1, 1))
        message = f"stencil point {bad} outside domain box"
    else:
        domain = BoxDomain.unbounded(lambda q: q == bad)
        message = f"stencil point {bad} in excluded set; shrink h or move p"
    f = _counting(kind, domain)
    with pytest.raises(DomainError) as exc:
        op(f, p, scheme)
    assert str(exc.value) == message
    assert f.calls == 0


def test_laplacian_checks_its_centre_first():
    p = Point3(0.5, 0.5, 0.5)
    f = _counting(ScalarField, BoxDomain.unbounded(lambda q: q.x <= 0.5))
    with pytest.raises(DomainError) as exc:
        laplacian(f, p, S)
    assert str(exc.value) == f"stencil point {p} in excluded set; shrink h or move p"
    assert f.calls == 0


def test_order2_scheme_works():
    s2 = DiffScheme(h=1e-5, order=2)
    f = ScalarField(lambda p: complex(p.x ** 2 + p.y))
    g = grad(f, Point3(1.0, 2.0, 0.0), s2)
    assert np.max(np.abs(g - np.array([2.0, 1.0, 0.0]))) < 1e-8


def test_scheme_validation():
    with pytest.raises(ValueError):
        DiffScheme(order=3)
    with pytest.raises(ValueError):
        DiffScheme(h=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(line_rule="midpoint")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            DiffScheme(h=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(line_tol=bad)


# -- operator A -------------------------------------------------------------

def test_A_reconstructs_xyz_potential():
    F = VectorField(lambda p: np.array([p.y * p.z, p.x * p.z, p.x * p.y], complex))
    A = operator_A(F, Point3(0, 0, 0), 0j)
    assert abs(A(Point3(1, 2, 3)) - 6.0) < 1e-9


def test_A_reconstructs_radial_potential():
    F = VectorField(lambda p: np.array([2 * p.x, 2 * p.y, 0], complex))
    A = operator_A(F, Point3(0, 0, 0), 0j)
    p = Point3(0.7, -1.2, 0.4)
    assert abs(A(p) - (p.x ** 2 + p.y ** 2)) < 1e-9


def test_A_base_value_is_constant():
    F = VectorField(lambda p: np.array([1.0, 0, 0], complex))
    A = operator_A(F, Point3(0.5, 0.5, 0.5), 3.25 + 1j)
    assert A(Point3(0.5, 0.5, 0.5)) == pytest.approx(3.25 + 1j)


def test_A_gauss_rule_matches_adaptive():
    F = VectorField(lambda p: np.array(
        [math.exp(0.3 * p.x), 0.5 * p.y, math.sin(p.z)], complex))
    base = Point3(0, 0, 0)
    A1 = operator_A(F, base, 0j, QuadratureSpec())
    A2 = operator_A(F, base, 0j, QuadratureSpec(line_rule="gauss", gauss_order=32))
    p = Point3(1.2, -0.8, 0.9)
    assert abs(A1(p) - A2(p)) < 1e-10


def test_A_path_crossing_excluded_raises():
    dom = BoxDomain.unbounded(lambda p: abs(p.x - 0.5) < 0.05 and abs(p.y) < 0.01)
    F = VectorField(lambda p: np.array([1.0, 0, 0], complex), dom)
    A = operator_A(F, Point3(0, 0, 0), 0j)
    with pytest.raises(DomainError):
        A(Point3(1.0, 0.0, 0.0))


def test_A_warns_on_rotational_input():
    F = VectorField(lambda p: np.array([-p.y, p.x, 0], complex))
    A = operator_A(F, Point3(0, 0, 0), 0j, curl_check=True)
    with pytest.warns(UserWarning):
        A(Point3(1.0, 1.0, 0.0))


_GAUSS4 = QuadratureSpec(line_rule="gauss", gauss_order=4)
# F_y flips with the sign of x, which is constant along the y-leg
_SIGN_FIELD = VectorField(lambda p: np.array(
    [p.y + math.sin(p.x),
     math.copysign(1.0, p.x) * (p.z + 0.5) * math.exp(0.3 * p.y),
     math.cos(p.y) * p.z], complex))


def _grid_6x4x3():
    return [Point3(0.2 * i - 0.5, 0.3 * j + 0.1, 0.4 * k - 0.3)
            for i in range(6) for j in range(4) for k in range(3)]


@pytest.mark.parametrize("quad", [QuadratureSpec(), _GAUSS4])
def test_A_leg_reuse_is_bitwise_order_independent(quad):
    base = Point3(0.05, -0.2, 0.15)
    pts = _grid_6x4x3()
    fresh = [operator_A(_SIGN_FIELD, base, 0.5j, quad)(p) for p in pts]
    A = operator_A(_SIGN_FIELD, base, 0.5j, quad)
    assert [A(p) for p in pts] == fresh
    order = np.random.default_rng(7).permutation(len(pts))
    A = operator_A(_SIGN_FIELD, base, 0.5j, quad)
    shuffled = {int(i): A(pts[i]) for i in order}
    assert [shuffled[i] for i in range(len(pts))] == fresh


def test_A_leg_reuse_tells_signed_zeros_apart():
    # the y-leg evaluates F at x = p.x, where this F flips sign with x's sign
    A = operator_A(_SIGN_FIELD, Point3(0.0, -0.2, 0.15), 0j, _GAUSS4)
    plus, minus = A(Point3(0.0, 0.7, 0.15)), A(Point3(-0.0, 0.7, 0.15))
    assert plus != minus
    assert minus == operator_A(_SIGN_FIELD, Point3(0.0, -0.2, 0.15), 0j,
                               _GAUSS4)(Point3(-0.0, 0.7, 0.15))
    assert A(Point3(0.0, 0.7, 0.15)) == plus


def test_A_integrates_each_leg_once_per_distinct_key():
    calls = {0: 0, 1: 0, 2: 0}
    base = Point3(0.05, -0.2, 0.15)

    def counting(p):
        # the leg is the axis whose coordinate is off its base value
        leg = 2 if p.z != base.z else 1 if p.y != base.y else 0
        calls[leg] += 1
        return np.array([p.y, p.x, 1.0], complex)

    A = operator_A(VectorField(counting), base, 0j, _GAUSS4)
    for p in _grid_6x4x3():
        A(p)
    nodes = _GAUSS4.gauss_order
    assert calls == {0: 6 * nodes, 1: 6 * 4 * nodes, 2: 6 * 4 * 3 * nodes}


def test_A_leg_that_raises_is_not_reused():
    dom = BoxDomain.unbounded(lambda p: abs(p.x - 0.5) < 0.05 and abs(p.y - 0.5) < 0.2)
    F = VectorField(lambda p: np.array([1.0, 1.0, 1.0], complex), dom)
    A = operator_A(F, Point3(0, 0, 0), 0j, _GAUSS4)
    good = A(Point3(0.5, 0.2, 0.0))  # stores the x-leg to x = 0.5
    for _ in range(2):  # the y-leg through the hole raises every time
        with pytest.raises(DomainError):
            A(Point3(0.5, 1.0, 0.0))
    blocked = BoxDomain.unbounded(lambda p: abs(p.x - 0.3) < 0.15)
    G = VectorField(lambda p: np.array([1.0, 1.0, 1.0], complex), blocked)
    B = operator_A(G, Point3(0, 0, 0), 0j, _GAUSS4)
    B(Point3(0.1, 0.2, 0.0))
    for _ in range(2):  # so does an x-leg through the slab
        with pytest.raises(DomainError):
            B(Point3(0.6, 0.2, 0.0))
    assert A(Point3(0.5, 0.2, 0.0)) == good


def test_A_evaluated_from_two_threads_is_bitwise_identical():
    base = Point3(0.05, -0.2, 0.15)
    pts = _grid_6x4x3()
    ref = [operator_A(_SIGN_FIELD, base, 0j, _GAUSS4)(p) for p in pts]
    A = operator_A(_SIGN_FIELD, base, 0j, _GAUSS4)
    out = [None, None]

    def run(slot, order):
        out[slot] = {i: A(pts[i]) for i in order for _ in range(3)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(0, range(len(pts)))),
                   threading.Thread(target=run, args=(1, range(len(pts))[::-1]))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in out:
        assert [got[i] for i in range(len(pts))] == ref


def test_adaptive_budget_exhaustion():
    # an integrand with a non-integrable kink defeats the subdivision budget
    F = VectorField(lambda p: np.array(
        [1.0 / (abs(p.x - 0.37) + 1e-14), 0, 0], complex))
    A = operator_A(F, Point3(0, 0, 0), 0j, QuadratureSpec(line_tol=1e-14))
    with pytest.raises(QuadratureFailure):
        A(Point3(1.0, 0, 0))


# -- operator B -------------------------------------------------------------

@pytest.fixture(scope="module")
def ball_potential():
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    chi = VectorField(lambda p: np.array(
        [1.0 if p.x ** 2 + p.y ** 2 + p.z ** 2 <= 1.0 else 0.0, 0, 0], complex))
    return operator_B(chi, region, QuadratureSpec(volume_grid=64))


def test_B_uniform_ball_center(ball_potential):
    # solid unit ball: potential at the center is R^2/2
    val = ball_potential(Point3(0, 0, 0))
    assert abs(val[0] - 0.5) / 0.5 < 0.02
    assert abs(val[1]) < 1e-12 and abs(val[2]) < 1e-12


def test_B_uniform_ball_exterior(ball_potential):
    # exterior potential R^3/(3 r) at r = 2
    val = ball_potential(Point3(2, 0, 0))
    assert abs(val[0] - 1.0 / 6.0) * 6.0 < 0.02


def test_B_zero_field_is_zero():
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    zero = VectorField(lambda p: np.zeros(3, complex))
    B = operator_B(zero, region, QuadratureSpec(volume_grid=8))
    assert np.all(B(Point3(0.2, 0.1, 0)) == 0)


def test_B_resolution_floor():
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    F = VectorField(lambda p: np.ones(3, complex))
    with pytest.raises(QuadratureFailure):
        operator_B(F, region, QuadratureSpec(volume_grid=7))
    with pytest.raises(QuadratureFailure):
        operator_B(F, BoxDomain.unbounded(), QuadratureSpec(volume_grid=16))


def test_B_softened_kernel_matches_far_field():
    # beyond the blob radius every cell is a point mass: the plain midpoint sum
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    F = VectorField(lambda p: np.array([1.0, 0, 0], complex))
    soft = operator_B(F, region, QuadratureSpec(volume_grid=16))
    far = Point3(3.0, 0.5, 0.2)
    c = -1 + (np.arange(16) + 0.5) / 8
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    plain = np.sum((1 / 8) ** 3 / (4 * np.pi * np.sqrt(
        (X - far.x) ** 2 + (Y - far.y) ** 2 + (Z - far.z) ** 2)))
    assert abs(soft(far)[0] - plain) < 1e-12


def test_B_is_continuous_across_a_cell_face():
    # x = 0 is a face of the 16^3 grid; a kernel that drops the evaluation
    # point's cell jumps there by 2.6e-4
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    B = operator_B(VectorField(lambda p: np.array([1 + p.x, 0, 0], complex)),
                   region, QuadratureSpec(volume_grid=16))
    left, right = B(Point3(-1e-9, 0.03, 0.04)), B(Point3(1e-9, 0.03, 0.04))
    assert np.max(np.abs(left - right)) < 1e-8


def test_B_anisotropic_cells():
    region = BoxDomain.box((0, -0.5, -0.5), (4, 0.5, 0.5))
    F = VectorField(lambda p: np.array([1.0, 0, 0], complex))
    B = operator_B(F, region, cells=(40, 10, 10))
    # total mass 4*1*1 = 4: far-field behaves like 4/(4 pi r)
    far = Point3(2.0, 0.0, 12.0)
    r = math.sqrt(2.0 ** 2 + 12.0 ** 2)  # distance to the slab center (2,0,0)
    approx = 4.0 / (4.0 * math.pi * math.hypot(0.0, 12.0))
    assert abs(B(far)[0] - approx) / approx < 0.05


_SMOOTH = VectorField(lambda p: np.array(
    [math.sin(p.x) + 1j * p.y, p.x * p.z, math.cos(p.y) - p.z], complex))


@pytest.mark.parametrize("lower, upper, cells", [
    ((-1, -1, -1), (1, 1, 1), (16, 16, 16)),
    ((0, -0.5, -0.5), (4, 0.5, 0.5), (40, 10, 10)),
], ids=["cubic", "anisotropic"])
def test_rot_B_matches_stencil_of_softened_B(lower, upper, cells):
    region = BoxDomain.box(lower, upper)
    quad = QuadratureSpec(volume_grid=16)
    B = operator_B(_SMOOTH, region, quad, cells=cells)
    rot_B = operator_rot_B(_SMOOTH, region, quad, cells=cells)
    steps = [(hi - lo) / n for lo, hi, n in zip(lower, upper, cells)]
    a = _BLOB_RADIUS * max(steps)
    c = Point3(*(lo + 3.5 * h for lo, h in zip(lower, steps)))  # a cell centre
    points = {
        "far": Point3(upper[0] + 2.0, 0.5, 0.2),
        "inside blob": Point3(c.x + 0.3 * a, c.y - 0.2 * a, c.z + 0.1 * a),
        "cell centre": c,
        "r just above a": c._replace(x=c.x + a * (1 + 1e-9)),
        "r just below a": c._replace(x=c.x + a * (1 - 1e-3)),
    }
    for name, p in points.items():
        exact = rot_B(p)
        assert np.max(np.abs(exact)) <= 1.0, name
        assert np.max(np.abs(exact - rot(B, p))) < 1e-8, name


def test_blob_kernel_gradient_continuous_at_radius():
    a = 0.3
    G = _NewtonianPotential._blob_kernel_grad
    inside, edge = G(np.array([a * a * (1 - 1e-12), a * a]), a)
    assert inside == pytest.approx(-1.0 / (4.0 * math.pi * a ** 3), rel=1e-9)
    assert edge == pytest.approx(-1.0 / (4.0 * math.pi * a ** 3), rel=1e-12)
    # G(r^2) * r is dK/dr of the blob kernel, inside and outside the radius
    r = np.array([0.05, 0.2, 0.299, 0.301, 0.6])
    h = 1e-5
    K = _NewtonianPotential._blob_kernel
    dK = (K((r + h) ** 2, a) - K((r - h) ** 2, a)) / (2 * h)
    assert np.allclose(G(r * r, a) * r, dK, rtol=1e-7, atol=0)


def test_parallel_grid_evaluation_bitwise_identical(ball_potential):
    pts = [Point3(0.1 * i, 0.05 * i, -0.02 * i) for i in range(12)]
    seq = [ball_potential(p) for p in pts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        par = list(pool.map(ball_potential, pts))
    for a, b in zip(seq, par):
        assert np.array_equal(a, b)


def test_box_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain.box((0, 0, 0), (1, -1, 1))
    dom = BoxDomain.box((0, 0, 0), (1, 1, 1), excluded=lambda p: p.x > 0.9)
    assert dom.ok(Point3(0.5, 0.5, 0.5))
    assert not dom.ok(Point3(0.95, 0.5, 0.5))
    assert not dom.ok(Point3(1.5, 0.5, 0.5))
    inter = dom.intersect(BoxDomain.box((0.25, 0.25, 0.25), (2, 2, 2)))
    assert inter.lower == Point3(0.25, 0.25, 0.25)
    assert inter.upper == Point3(1, 1, 1)
