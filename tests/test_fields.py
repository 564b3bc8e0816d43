"""Differential and integral operators on closed-form fields."""

import math
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from riccati3d.biquat import E1, E2, E3, Biquaternion, conj_h, max_component_diff, mul
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
    _curl,
    _d1,
    _derivatives,
    _stencil,
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
    vec3,
)
from riccati3d.riccati import RiccatiInstance, factorization_residual
from riccati3d.verify import halton_points

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
    for k, s in enumerate(_stencil(psi.domain, p, S)[0]):
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



# -- Dirac operators against the Biquaternion loop they were computed with -----

def _dirac_loop(f, p, scheme, right=False):
    """sum_k e_k d_k f, or sum_k (d_k f) e_k with ``right``, each d_k f a
    central difference of Biquaternion values: the loop that once computed
    dirac_left and dirac_right, kept as their oracle."""
    if isinstance(f, QuaternionField):
        evalf = f
    elif isinstance(f, ScalarField):
        evalf = lambda t: Biquaternion(f(t))
    else:
        evalf = lambda t: Biquaternion.from_vector(f(t))
    out = Biquaternion()
    for e, s in zip((E1, E2, E3), _stencil(f.domain, p, scheme)[0]):
        d = _d1(evalf, *s)
        out = out + (mul(d, e) if right else mul(e, d))
    return out


_DIRAC_FIELDS = {
    "scalar": ScalarField(lambda p: complex(math.sin(p.x) * math.exp(p.y) * p.z,
                                            p.x * p.y - p.z ** 3)),
    "vector": VectorField(lambda p: np.array(
        [p.y * math.cos(p.z) + 1j * p.x, math.exp(p.x * p.z),
         p.x * p.y * p.z - 2j * p.y * p.y], complex)),
    "quaternion": QuaternionField(lambda p: Biquaternion(
        math.cosh(p.x + p.y) + 0.5j * p.z, math.sin(p.x) + 1j * p.y * p.z, p.x ** 3,
        math.exp(-p.z) * p.y + 1j)),
    # numpy ufuncs run one loop for a point and a batch (``x ** 3`` would not)
    "quaternion_vectorized": QuaternionField(lambda p: [
        np.cosh(p.x + p.y) + 0.5j * p.z, np.sin(p.x) + 1j * p.y * p.z, p.x * p.x * p.x,
        np.exp(-p.z) * p.y + 1j], vectorized=True),
}
_DIRAC_POINTS = halton_points((Point3(-1.3, -0.9, -1.1), Point3(1.2, 1.4, 0.8)), 40, 7)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", sorted(_DIRAC_FIELDS))
def test_dirac_equals_the_biquaternion_loop_bitwise(kind, order):
    # repr tells every bit apart, the sign of a zero included; over a batch
    # (as a 5 x 8 grid of targets) every column equals the loop at its point
    f, scheme = _DIRAC_FIELDS[kind], DiffScheme(order=order)
    P = Point3(*(np.array(c).reshape(5, 8) for c in zip(*_DIRAC_POINTS)))
    left, right = dirac_left(f, P, scheme), dirac_right(f, P, scheme)
    assert left.shape == right.shape == (4, 5, 8)
    for i, p in enumerate(_DIRAC_POINTS):
        assert repr(dirac_left(f, p, scheme)) == repr(_dirac_loop(f, p, scheme))
        assert repr(dirac_right(f, p, scheme)) == repr(_dirac_loop(f, p, scheme, right=True))
        column = (slice(None), *divmod(i, 8))
        assert repr(Biquaternion(*left[column])) == repr(_dirac_loop(f, p, scheme))
        assert repr(Biquaternion(*right[column])) == repr(
            _dirac_loop(f, p, scheme, right=True))


@pytest.mark.parametrize("vectorized", [False, True])
def test_quaternion_batch_equals_the_pointwise_values_bitwise(vectorized):
    f = _DIRAC_FIELDS["quaternion_vectorized" if vectorized else "quaternion"]
    P = Point3(*(np.array(c).reshape(8, 5) for c in zip(*_DIRAC_POINTS)))
    values = f.batch(P)
    assert values.shape == (4, 8, 5) and values.dtype == complex
    for i, p in enumerate(_DIRAC_POINTS):
        assert repr(Biquaternion(*values[(slice(None), *divmod(i, 5))])) == repr(f(p))
        assert repr(f.batch(p).tolist()) == repr(list(f(p).components))


def _factorization_with_quaternion_probe(psi, inst, p, scheme):
    """factorization_residual with its probe grad psi + psi Q as a
    QuaternionField, each factor line through the Biquaternion loop."""
    G = QuaternionField(
        lambda t: Biquaternion.from_vector(grad(psi, t, scheme) + psi(t) * inst.Q(t)),
        psi.domain.intersect(inst.Q.domain))
    Qp, Gp = Biquaternion.from_vector(inst.Q(p)), G(p)
    target = Biquaternion(-laplacian(psi, p, scheme) + inst.q(p) * psi(p))
    return (_dirac_loop(G, p, scheme) - mul(Gp, Qp) - target,
            _dirac_loop(G, p, scheme, right=True) - mul(Qp, Gp) - target)


@pytest.mark.parametrize("order", [2, 4])
def test_factorization_equals_the_quaternion_probe_reference_bitwise(order):
    scheme = DiffScheme(order=order)
    inst = RiccatiInstance(
        VectorField(lambda p: np.array([p.x * p.y, math.sin(p.z), 1j * p.x], complex)),
        ScalarField(lambda p: complex(p.x + p.y, 0.5)))
    psi = _DIRAC_FIELDS["scalar"]
    for p in _DIRAC_POINTS:
        got = factorization_residual(psi, inst, p, scheme)
        want = _factorization_with_quaternion_probe(psi, inst, p, scheme)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("order, probe_evals", [(2, 7), (4, 13)])
def test_factorization_evaluates_its_probe_once_per_stencil_point(order, probe_evals):
    # each probe evaluation evaluates Q once, and Q(p) is evaluated once more;
    # differencing a QuaternionField probe once per factor line took 13 and 25
    Q = _counting(VectorField)
    inst = RiccatiInstance(Q, ScalarField(lambda p: 1j))
    psi = ScalarField(lambda p: complex(math.exp(0.3 * p.x - 0.2 * p.y + 0.1 * p.z)))
    factorization_residual(psi, inst, Point3(0.3, -0.7, 1.2), DiffScheme(order=order))
    assert Q.calls == probe_evals + 1

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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            DiffScheme(h=bad)


@pytest.mark.parametrize("name, value", [
    ("gauss_order", 2.5), ("gauss_order", 32.0), ("gauss_order", True),
    ("volume_grid", 8.5), ("volume_grid", True)])
def test_quadrature_spec_rejects_a_non_int_order_or_grid(name, value):
    # 2.5 and 32.0 used to fail inside A with numpy's "deg must be an
    # integer", True to mean order 1 and 8.5 to be truncated to 8
    with pytest.raises(ValueError, match=rf"{name} must be an int.*, got {value!r}$"):
        QuadratureSpec(**{name: value})


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


@pytest.mark.parametrize("order", [8, 16, 32, 100])
def test_A_gauss_rule_matches_the_closed_form(order):
    F = VectorField(lambda p: np.array(
        [math.exp(0.3 * p.x), 0.5 * p.y, math.sin(p.z)], complex))
    phi = lambda p: math.exp(0.3 * p.x) / 0.3 + 0.25 * p.y ** 2 - math.cos(p.z)  # noqa: E731
    base, p = Point3(0, 0, 0), Point3(1.2, -0.8, 0.9)
    A = operator_A(F, base, 0j, QuadratureSpec(gauss_order=order))
    assert abs(A(p) - (phi(p) - phi(base))) < 1e-13


def _mp_catalog_Q(name: str, params: dict):
    """The catalog Q in closed form, in mpmath arithmetic: shares no code
    with solutions.py's numpy bodies."""
    import mpmath as mp
    if name == "harmonic:x":
        return lambda x, y, z: (-1 / x, 0, 0)
    if name == "rotational":
        k, c = mp.mpf(params["k"]), mp.mpf(params["c"])
        E = mp.exp(2 * c * k)

        def rotational(x, y, z):
            rho2 = x * x + y * y
            f = -k * (rho2 ** k + E) / (rho2 * (rho2 ** k - E))
            return f * x, f * y, 0
        return rotational
    C1, C2 = mp.mpf(params["C1"]), mp.mpf(params["C2"])

    def conical(x, y, z):
        rho2 = x * x + y * y
        r2 = rho2 + z * z
        L, mid = mp.log(C2 * rho2 / r2 ** 2), rho2 - z * z
        return (-C1 * x * z / r2 ** 2 + 2 * x * mid / (r2 * rho2 * L) + x / r2,
                -C1 * y * z / r2 ** 2 + 2 * y * mid / (r2 * rho2 * L) + y / r2,
                C1 * mid / (2 * r2 ** 2) + 4 * z / (r2 * L) + z / r2)
    return conical


def test_paired_gauss_estimate_matches_the_mpmath_error_at_the_default_order():
    # the paired estimate |G_n - G_2n| behind tools/gauss_order.py's drift rule
    # is the true error of G_n, measured against mpmath.quad at 30 digits,
    # down to a round-off floor; -1/x from 1 is w_from_q_pair's leg on the tube
    import mpmath as mp
    from riccati3d.fields import _gauss_rule
    from riccati3d.solutions import catalog_entry
    n = QuadratureSpec().gauss_order
    legs = [(VectorField(lambda p: vec3(-1.0 / p.x, 0, 0), vectorized=True),
             _mp_catalog_Q("harmonic:x", {}), 0, [None, 0.0, 0.0], 1.0, end)
            for end in (3.6, 4.4, 5.5, 7.75)]
    for name, params in [("harmonic:x", {}), ("rotational", {"k": 2.0, "c": 0.5 * math.log(2)}),
                         ("rotational", {"k": 1.0, "c": 0.0}),
                         ("conical", {"C1": 2.0, "C2": math.e}),
                         ("conical", {"C1": 0.0, "C2": 2.0})]:
        entry = catalog_entry(name, **params)
        lo, hi = entry.sample_box
        for share in (0.1, 0.9):
            p = [a + share * (b - a) for a, b in zip(lo, hi)]
            for axis in range(3):  # operator_A's x-, y- and z-leg to p
                fixed = [*p[:axis], None, *entry.base[axis + 1:]]
                legs.append((entry.instance.Q, _mp_catalog_Q(name, params), axis, fixed,
                             entry.base[axis], p[axis]))
    above_floor = []
    with mp.workdps(30):
        for Q, mp_Q, axis, fixed, a, b in legs:
            def f(_, T, Q=Q, axis=axis, fixed=fixed):
                return Q.batch(Point3(*(T if c is None else np.full(T.shape, c)
                                        for c in fixed)))[axis]
            G, G2 = (complex(_gauss_rule(f, np.array([a]), np.array([b]), m)[0])
                     for m in (n, 2 * n))
            exact = mp.quad(lambda t: mp.mpf(mp_Q(*(t if c is None else mp.mpf(c)
                                                   for c in fixed))[axis]), [a, b])
            error, estimate = float(abs(G - exact)), abs(G - G2)
            floor = 1e-14 * max(1.0, float(abs(exact)))
            assert abs(estimate - error) <= 1e-2 * error + floor, (axis, fixed, a, b)
            above_floor.append(error > 100 * floor)
    # at least -1/x to 7.75 has an error far above the floor, matched to 1 %
    assert above_floor[3]


def test_A_path_crossing_excluded_raises():
    dom = BoxDomain.unbounded(lambda p: (abs(p.x - 0.5) < 0.05) & (abs(p.y) < 0.01))
    F = VectorField(lambda p: np.array([1.0, 0, 0], complex), dom)
    A = operator_A(F, Point3(0, 0, 0), 0j)
    with pytest.raises(DomainError) as info:
        A(Point3(1.0, 0.0, 0.0))
    # the named point is written with plain floats, as the stencil errors write it
    assert re.search(r"Point3\(x=0\.4\d*, y=0\.0, z=0\.0\)", str(info.value)), str(info.value)


@pytest.mark.parametrize("order", [1, 4, 8, 12, 16, 24, 31, 32, 40])
@pytest.mark.parametrize("centre", [0.03, 0.3, 0.5, 0.77, 0.97])
def test_A_path_check_does_not_thin_out_with_the_order(order, centre):
    # a slab 0.05 of the leg wide (the widest gap of order 32's nodes is 0.048);
    # at each order here from 1 to 24 some of these slabs lie between two nodes
    dom = BoxDomain.unbounded(lambda p: abs(p.x - centre) < 0.025)
    F = VectorField(lambda p: vec3(1.0, 0, 0), dom, vectorized=True)
    A = operator_A(F, Point3(0, 0, 0), 0j, QuadratureSpec(gauss_order=order))
    with pytest.raises(DomainError, match="crosses excluded set") as info:
        A.batch(Point3(np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)))
    assert info.value.index == 1 and info.value.where.tolist() == [False, True]
    named = re.search(r"x=([-\d.e]+)", str(info.value))[1]
    assert abs(float(named) - centre) < 0.025
    # a leg that stops short of the slab is not checked beyond its end
    assert A(Point3(centre - 0.03, 0, 0)) == pytest.approx(centre - 0.03, abs=1e-14)


@pytest.mark.parametrize("order", [4, 12, 32])
def test_A_path_check_finds_a_box_edge_as_order_32_does(order):
    # order 32's outermost node is 0.00137 of the leg from its end, order 12's 0.0092
    dom = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    F = VectorField(lambda p: vec3(1.0, 0, 0), dom, vectorized=True)
    A = operator_A(F, Point3(0, 0, 0), 0j, QuadratureSpec(gauss_order=order))
    with pytest.raises(DomainError, match="crosses excluded set"):
        A(Point3(1.002, 0, 0))


_GAUSS4 = QuadratureSpec(gauss_order=4)
# F_y flips with the sign of x, which is constant along the y-leg
_SIGN_FIELD = VectorField(lambda p: np.array(
    [p.y + math.sin(p.x),
     math.copysign(1.0, p.x) * (p.z + 0.5) * math.exp(0.3 * p.y),
     math.cos(p.y) * p.z], complex))


def _grid_6x4x3():
    return [Point3(0.2 * i - 0.5, 0.3 * j + 0.1, 0.4 * k - 0.3)
            for i in range(6) for j in range(4) for k in range(3)]


@pytest.mark.parametrize("quad", [QuadratureSpec(), _GAUSS4])
def test_A_is_bitwise_order_independent(quad):
    base = Point3(0.05, -0.2, 0.15)
    pts = _grid_6x4x3()
    fresh = [operator_A(_SIGN_FIELD, base, 0.5j, quad)(p) for p in pts]
    A = operator_A(_SIGN_FIELD, base, 0.5j, quad)
    assert [A(p) for p in pts] == fresh
    order = np.random.default_rng(7).permutation(len(pts))
    A = operator_A(_SIGN_FIELD, base, 0.5j, quad)
    shuffled = {int(i): A(pts[i]) for i in order}
    assert [shuffled[i] for i in range(len(pts))] == fresh


def test_A_tells_signed_zeros_apart():
    # the y-leg evaluates F at x = p.x, where this F flips sign with x's sign
    A = operator_A(_SIGN_FIELD, Point3(0.0, -0.2, 0.15), 0j, _GAUSS4)
    plus, minus = A(Point3(0.0, 0.7, 0.15)), A(Point3(-0.0, 0.7, 0.15))
    assert plus != minus
    assert minus == operator_A(_SIGN_FIELD, Point3(0.0, -0.2, 0.15), 0j,
                               _GAUSS4)(Point3(-0.0, 0.7, 0.15))
    assert A(Point3(0.0, 0.7, 0.15)) == plus


def test_A_error_leaves_later_values_unchanged():
    dom = BoxDomain.unbounded(lambda p: (abs(p.x - 0.5) < 0.05) & (abs(p.y - 0.5) < 0.2))
    F = VectorField(lambda p: np.array([1.0, 1.0, 1.0], complex), dom)
    A = operator_A(F, Point3(0, 0, 0), 0j, _GAUSS4)
    good = A(Point3(0.5, 0.2, 0.0))
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


# -- operator B -------------------------------------------------------------

@pytest.fixture(scope="module")
def ball_potential():
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    chi = VectorField(lambda p: vec3(
        np.where(p.x * p.x + p.y * p.y + p.z * p.z <= 1.0, 1.0, 0.0), 0.0, 0.0),
        vectorized=True)
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


@pytest.mark.parametrize("cells", [(8, 8, 8, 8), (8.9, 8, 8), (8, 8)],
                         ids=["four axes", "float", "two axes"])
def test_B_cells_must_be_three_ints(cells):
    # these built a 4-D grid, truncated 8.9 to 8 cells, or raised IndexError
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    F = VectorField(lambda p: np.ones(3, complex))
    for build in (operator_B, operator_rot_B):
        with pytest.raises(QuadratureFailure, match="cells"):
            build(F, region, cells=cells)(Point3(0, 0, 0))


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


# |jet - stencil of rot B| over the five points of both regions, measured
# before the tests were written: at most 4.7e-7 at h = 1e-3 (at "r just below
# a", where the stencil straddles other cells' radii) and 9.8e-10 at h = 1e-4,
# with |J| up to 0.48; the jet's values equalled rot_B(p) bit for bit
_JET_STENCIL_BOUNDS = {1e-3: 2e-6, 1e-4: 1e-8}


@pytest.mark.parametrize("lower, upper, cells", [
    ((-1, -1, -1), (1, 1, 1), (16, 16, 16)),
    ((0, -0.5, -0.5), (4, 0.5, 0.5), (40, 10, 10)),
], ids=["cubic", "anisotropic"])
def test_rot_B_jet_matches_stencil_of_rot_B(lower, upper, cells):
    region = BoxDomain.box(lower, upper)
    rot_B = operator_rot_B(_SMOOTH, region, QuadratureSpec(volume_grid=16), cells=cells)
    values = VectorField(rot_B.__call__)  # the value pass, differenced
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
        value, J = rot_B.jet(p)
        assert J.shape == (3, 3), name
        assert np.max(np.abs(value - rot_B(p))) <= 1e-14 * np.max(np.abs(value)), name
        for h, bound in _JET_STENCIL_BOUNDS.items():
            stencil = _derivatives(values, p, DiffScheme(h=h))
            assert np.max(np.abs(J - stencil)) < bound, (name, h)
        # grad over the stencil takes the jet: the same numbers
        assert np.array_equal(rot(rot_B, p), _curl(J.T)), name


def test_blob_kernel_slope_continuous_at_radius():
    a = 0.3
    slope = lambda r2: _NewtonianPotential._blob_kernel_slope(np.asarray(r2), a)
    edge = 3.0 / (8.0 * math.pi * a ** 5)
    inside, at, outside = slope([a * a * (1 - 1e-12), a * a, a * a * (1 + 1e-12)])[1]
    assert inside == pytest.approx(edge, rel=1e-9)
    assert at == pytest.approx(edge, rel=1e-12)
    assert outside == pytest.approx(edge, rel=1e-9)
    # g' is dg/d(r^2): a central difference of _blob_kernel_grad in r^2
    # (step 1e-6) agreed to 1.9e-10 relative at these radii
    G = _NewtonianPotential._blob_kernel_grad
    r2 = np.array([0.05, 0.2, 0.299, 0.301, 0.6]) ** 2
    g, dg = slope(r2)
    assert np.array_equal(g, G(r2, a))
    h = 1e-6
    assert np.allclose(dg, (G(r2 + h, a) - G(r2 - h, a)) / (2 * h), rtol=1e-8, atol=0)


def test_dirac_of_built_W_raises_the_stencil_domain_error():
    from riccati3d.riccati import build_W_from_W0
    # W's domain is the meet of two boxes, and its stencil at these points
    # leaves W0's box first (x + h) and phi's box later (y + h): differencing
    # W0 or phi before W's own check would name another point
    box = BoxDomain.box((0, -1, -1), (2, 1, 1))
    phi = ScalarField(lambda p: 1.0 + 0j * p.x, BoxDomain.box((-5, -5, -5), (5, 0.2005, 5)),
                      vectorized=True)
    W0 = ScalarField(lambda p: p.x + 0j, box, vectorized=True)
    W = build_W_from_W0(W0, phi, None, box, cells=(8, 8, 8))
    assert W.jet is not None
    edge = Point3(1.9995, 0.2, 0.1)
    P = Point3(np.array([1.0, 1.9995, 0.3, 1.9998]), np.array([0, 0.2, 0, 0.2]),
               np.full(4, 0.1))
    for p in (edge, P):
        errors = []
        jetless = QuaternionField(W.fn, W.domain, vectorized=True)
        for field in (W, jetless):  # with and without the jet
            with pytest.raises(DomainError) as info:
                dirac_left(field, p, S)
            errors.append(info.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].index == errors[1].index
        assert np.array_equal(errors[0].where, errors[1].where)
    assert errors[0].index == 1 and errors[0].where.tolist() == [False, True, False, True]


def _masked_kernel(r2, a):
    """Reference blob kernel: far and near cells through boolean masks."""
    out = np.empty_like(r2)
    far = r2 >= a * a
    out[far] = 1.0 / (4.0 * np.pi * np.sqrt(r2[far]))
    t2 = r2[~far] / (a * a)
    poly = t2 / 3.0 - 0.4 * t2 * t2 + t2 ** 3 / 7.0 + (1.0 - t2) ** 3 / 6.0
    out[~far] = (105.0 / (32.0 * np.pi * a)) * poly
    return out


def _masked_kernel_grad(r2, a):
    out = np.empty_like(r2)
    far = r2 >= a * a
    out[far] = -1.0 / (4.0 * np.pi * r2[far] * np.sqrt(r2[far]))
    t2 = r2[~far] / (a * a)
    dpoly = 1.0 / 3.0 - 0.8 * t2 + 3.0 * t2 * t2 / 7.0 - 0.5 * (1.0 - t2) ** 2
    out[~far] = (105.0 / (16.0 * np.pi * a ** 3)) * dpoly
    return out


def _masked_sums(B, p):
    """B and rot B at p from B's grid, the masked kernels and B's einsum
    contraction of its dV-scaled real and imaginary rows (zero where the
    grid keeps no row; _SMOOTH fills all but Im F_1 and Im F_2)."""
    grid = B._ensure_grid()
    assert grid.comps.tolist() == [0, 1, 2, 3]
    centres = np.array([c.ravel() for c in np.meshgrid(*grid.axes, indexing="ij")])
    d = np.array(p)[:, None] - centres
    r2 = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    b, J = np.zeros((6, 1)), np.zeros((6, 3))
    b[grid.comps] = np.einsum("rc,nc->rn", grid.rows, _masked_kernel(r2, grid.a)[None])
    J[grid.comps] = np.einsum("rc,nc->rn", grid.rows, _masked_kernel_grad(r2, grid.a) * d)
    b, J = b[:3, 0] + 1j * b[3:, 0], J[:3] + 1j * J[3:]
    return b, np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


@pytest.mark.parametrize("lower, upper, cells", [
    ((-1, -1, -1), (1, 1, 1), (16, 16, 16)),
    ((0, -0.5, -0.5), (4, 0.5, 0.5), (40, 10, 10)),
], ids=["cubic", "anisotropic"])
def test_one_target_sums_match_the_masked_kernels(lower, upper, cells):
    # B keeps its values bit for bit; rot B's kernel and real contraction
    # round differently, so its values may move in the last bits
    region = BoxDomain.box(lower, upper)
    quad = QuadratureSpec(volume_grid=16)
    B = operator_B(_SMOOTH, region, quad, cells=cells)
    rot_B = operator_rot_B(_SMOOTH, region, quad, cells=cells)
    steps = [(hi - lo) / n for lo, hi, n in zip(lower, upper, cells)]
    a = _BLOB_RADIUS * max(steps)
    c = Point3(*(lo + 3.5 * h for lo, h in zip(lower, steps)))  # a cell centre
    corner = Point3(*(hi - 0.5 * h for hi, h in zip(upper, steps)))  # the last centre
    points = {
        "cell centre": c,
        "last cell centre": corner,
        "r = a": c._replace(x=c.x + a),
        "r = a, diagonal": c._replace(y=c.y + a / math.sqrt(2), z=c.z + a / math.sqrt(2)),
        "inside a face": Point3(upper[0] - 0.1 * steps[0], c.y, c.z),
        "on a face": Point3(c.x, lower[1], c.z),
        "just outside a face": Point3(c.x, c.y, upper[2] + 0.3 * steps[2]),
        "outside": Point3(upper[0] + 2.0, 0.5, 0.2),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a target on a centre divides by nothing
        for name, p in points.items():
            b, curl = _masked_sums(B, p)
            assert np.array_equal(B(p), b), name
            got = rot_B(p)
            assert np.max(np.abs(got - curl)) <= 1e-13 * np.max(np.abs(curl)), name


def test_parallel_grid_evaluation_bitwise_identical(ball_potential):
    pts = [Point3(0.1 * i, 0.05 * i, -0.02 * i) for i in range(12)]
    seq = [ball_potential(p) for p in pts]
    with ThreadPoolExecutor(max_workers=4) as pool:
        par = list(pool.map(ball_potential, pts))
    for a, b in zip(seq, par):
        assert np.array_equal(a, b)


def test_rot_B_passes_reusing_their_table_equal_a_first_pass_bitwise():
    # each thread's passes reuse one kernel table, grown from 3 rows (rot B)
    # to 10 (its jet): values and jets, in any order and from several
    # threads, equal those of a potential that has made no pass yet
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    F = VectorField(lambda p: vec3(np.sin(p.y), p.z * p.x, np.cos(p.x) + 0.5j),
                    vectorized=True)
    pts = [Point3(0.1 * i - 0.5, 0.05 * i, 0.3 - 0.04 * i) for i in range(12)]

    def run(R, i):
        return R.jet(pts[i]) if i % 2 else (R(pts[i]),)
    first = [run(operator_rot_B(F, region, cells=(12, 10, 8)), i) for i in range(len(pts))]
    R = operator_rot_B(F, region, cells=(12, 10, 8))
    with ThreadPoolExecutor(max_workers=3) as pool:
        threaded = list(pool.map(lambda i: run(R, i), range(len(pts))))
    in_turn = [run(R, i) for i in reversed(range(len(pts)))][::-1]
    for a, b, c in zip(first, threaded, in_turn):
        assert all(np.array_equal(x, y) and np.array_equal(x, z) for x, y, z in zip(a, b, c))


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
