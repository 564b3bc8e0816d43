"""Residuals, transforms and the factorization around D Q + |Q|^2 = q."""

import math

import numpy as np
import pytest

from riccati3d.biquat import Biquaternion, max_component_diff
from riccati3d.errors import DomainError, NotPureVector, ZeroCrossing, ZeroDivisor
from riccati3d.fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
    div,
    rot,
)
from riccati3d.riccati import (
    EPS_ZERO,
    RiccatiInstance,
    SchrodingerInstance,
    build_W_from_W0,
    build_W0_from_W,
    build_W_prop2,
    cole_hopf,
    component_residuals,
    factorization_residual,
    inverse_cole_hopf,
    q_from_scw,
    riccati_residual,
    schrodinger_residual,
    vekua_residual,
    w_equation_residual,
)
from riccati3d.solutions import HarmonicSeed, harmonic_family

S = DiffScheme()
ZERO_Q = ScalarField(lambda p: 0j)
ONE = ScalarField(lambda p: 1.0 + 0j, vectorized=True)

TUBE = BoxDomain.box((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
TUBE_PTS = [Point3(3.6, -0.1, 0.08), Point3(4.0, 0.12, -0.05)]
TUBE_CELLS = (50, 10, 10)


def inv_x_instance():
    dom = BoxDomain.box((0.05, -9, -9), (60, 9, 9))
    Q = VectorField(lambda p: np.array([-1.0 / p.x, 0, 0], complex), dom)
    return RiccatiInstance(Q, ZERO_Q)


def test_zero_field_residual():
    inst = RiccatiInstance(VectorField(lambda p: np.zeros(3, complex)), ZERO_Q)
    sc, vec = riccati_residual(inst, Point3(0.3, -0.8, 1.4), S)
    assert abs(sc) < 1e-14
    assert np.max(np.abs(vec)) < 1e-14


def test_nonsolution_detected_pointwise():
    inst = RiccatiInstance(VectorField(lambda p: np.array([p.x, 0, 0], complex)),
                           ZERO_Q)
    sc1, _ = riccati_residual(inst, Point3(1, 0, 0), S)
    assert abs(sc1) < 1e-9              # -1 + 1 = 0 happens to cancel here
    sc2, _ = riccati_residual(inst, Point3(2, 0, 0), S)
    assert abs(sc2 - 3.0) < 1e-9        # -1 + 4


def test_schrodinger_residual_harmonic_and_not():
    xyz = ScalarField(lambda p: complex(p.x * p.y * p.z))
    assert abs(schrodinger_residual(SchrodingerInstance(xyz, ZERO_Q),
                                    Point3(0.9, -0.6, 0.4), S)) < 1e-8
    xsq = ScalarField(lambda p: complex(p.x * p.x))
    val = schrodinger_residual(SchrodingerInstance(xsq, ZERO_Q),
                               Point3(0.9, -0.6, 0.4), S)
    assert abs(val + 2.0) < 1e-8


def test_cole_hopf_of_x():
    psi = ScalarField(lambda p: complex(p.x))
    inst = cole_hopf(SchrodingerInstance(psi, ZERO_Q), S)
    got = inst.Q(Point3(2.0, 1.0, -1.0))
    assert np.max(np.abs(got - np.array([-0.5, 0, 0]))) < 1e-10
    sc, vec = riccati_residual(inst, Point3(1.7, 0.2, 0.5), S)
    assert abs(sc) < 1e-8 and np.max(np.abs(vec)) < 1e-8


def test_cole_hopf_constant_gives_zero():
    psi = ScalarField(lambda p: 3.5 + 0j)
    inst = cole_hopf(SchrodingerInstance(psi, ZERO_Q), S)
    assert np.max(np.abs(inst.Q(Point3(0.4, 0.5, 0.6)))) < 1e-12


def test_cole_hopf_nodal_set_guard():
    psi = ScalarField(lambda p: complex(p.x))
    inst = cole_hopf(SchrodingerInstance(psi, ZERO_Q), S)
    with pytest.raises(ZeroCrossing):
        inst.Q(Point3(0.0, 1.0, 1.0))


def _guarded_Q(builder: str, value: complex) -> VectorField:
    """The Q of ``builder`` whose divisor is the constant ``value``."""
    if builder == "cole_hopf":
        return cole_hopf(SchrodingerInstance(ScalarField(lambda p: value), ZERO_Q)).Q
    if builder == "q_from_scw":
        return q_from_scw(QuaternionField(lambda p: Biquaternion(value)))
    return harmonic_family(HarmonicSeed("const", ScalarField(lambda p: value))).Q


@pytest.mark.parametrize("builder", ["cole_hopf", "q_from_scw", "harmonic_family"])
def test_zero_guard_fires_at_eps_zero_and_not_above(builder):
    p = Point3(0.3, -0.2, 0.7)
    above = np.nextafter(EPS_ZERO, 1.0)
    for value in (EPS_ZERO, -EPS_ZERO, 1j * EPS_ZERO):
        with pytest.raises(ZeroCrossing, match="below the zero guard 1e-10"):
            _guarded_Q(builder, value)(p)
    for value in (above, -above, 1j * above):
        assert not _guarded_Q(builder, value)(p).any()  # grad of a constant


def test_inverse_cole_hopf_of_inverse_x():
    inst = inv_x_instance()
    sch = inverse_cole_hopf(inst, Point3(1, 0, 0), 0j)
    # A[Q] = -ln x, psi = x
    for p in (Point3(0.5, 0.3, -1), Point3(2.5, -0.4, 0.7)):
        assert abs(sch.psi(p) - p.x) < 1e-8


def test_inverse_cole_hopf_zero_field_is_one():
    inst = RiccatiInstance(VectorField(lambda p: np.zeros(3, complex)), ZERO_Q)
    sch = inverse_cole_hopf(inst, Point3(0.2, 0.4, 0.6), 0j)
    assert abs(sch.psi(Point3(1.5, -2, 3)) - 1.0) < 1e-12


def test_inverse_cole_hopf_base_normalization():
    inst = inv_x_instance()
    sch = inverse_cole_hopf(inst, Point3(2, 0, 0), 1.0 + 0j)
    assert abs(sch.psi(Point3(2, 0, 0)) - math.exp(-1.0)) < 1e-12


def test_transform_composition_reproduces_psi_up_to_constant():
    # inverse_cole_hopf(cole_hopf(psi)) is psi up to one multiplicative factor
    psi = ScalarField(lambda p: complex((p.x + 0.5 * p.y) * math.exp(0.2 * p.z)))
    q = ScalarField(lambda p: complex(0.04))           # (-lap + q) psi = 0
    base = Point3(1.0, 0.5, 0.0)
    forward = cole_hopf(SchrodingerInstance(psi, q), S)
    back = inverse_cole_hopf(forward, base, 0j)
    for p in (Point3(1.3, 0.8, 0.4), Point3(0.8, 0.2, -0.6)):
        lhs = back.psi(p) / back.psi(base)
        rhs = psi(p) / psi(base)
        assert abs(lhs - rhs) < 1e-6


def test_factorization_trivial_zero_field():
    inst = RiccatiInstance(VectorField(lambda p: np.zeros(3, complex)), ZERO_Q)
    probe = ScalarField(lambda p: complex(p.x * p.y * p.z))
    left, right = factorization_residual(probe, inst, Point3(0.7, 0.3, -0.5), S)
    assert left.max_abs() < 1e-8
    assert right.max_abs() < 1e-8


def test_factorization_vanishes_on_solution_any_probe():
    inst = inv_x_instance()
    probe = ScalarField(lambda p: complex(math.exp(0.3 * p.x + 0.2 * p.y - 0.1 * p.z)))
    left, right = factorization_residual(probe, inst, Point3(1.3, 0.4, -0.2), S)
    assert left.max_abs() < 1e-7
    assert right.max_abs() < 1e-7


def test_factorization_constant_probe_gives_riccati_defect():
    # with probe 1 the factorization defect reduces to the Riccati defect
    inst = RiccatiInstance(VectorField(lambda p: np.array([p.x, 0, 0], complex)),
                           ZERO_Q)
    p = Point3(1.4, 0.2, 0.6)
    left, right = factorization_residual(ONE, inst, p, S)
    sc, _ = riccati_residual(inst, p, S)
    assert abs(left.scalar - sc) < 1e-8
    assert abs(right.scalar - sc) < 1e-8


def test_vekua_scalar_solution_and_identity():
    phi = ScalarField(lambda p: complex(math.exp(0.4 * p.x) * (2 + math.sin(p.y))))
    W = QuaternionField(lambda p: Biquaternion(phi(p)))
    assert vekua_residual(W, phi, Point3(0.3, 0.5, -0.2), S).max_abs() < 1e-8
    Wc = QuaternionField(lambda p: Biquaternion(1.0))
    assert vekua_residual(Wc, ONE, Point3(0, 0, 0), S).max_abs() < 1e-12


def test_vekua_zero_crossing_guard():
    phi = ScalarField(lambda p: complex(p.x))
    W = QuaternionField(lambda p: Biquaternion(1.0))
    with pytest.raises(ZeroCrossing):
        vekua_residual(W, phi, Point3(0, 1, 1), S)


def test_component_residuals_examples():
    phi = ScalarField(lambda p: complex(math.exp(p.x)))
    p = Point3(0.2, 0.4, -0.1)
    # W0 = phi: c1 = div[phi^2 grad(1)] = 0
    c1, _ = component_residuals(phi, VectorField(lambda t: np.zeros(3, complex)),
                                phi, p, S)
    assert abs(c1) < 1e-9
    # Wv = grad(h)/phi for harmonic h: rot(phi Wv) = rot grad h = 0
    Wv = VectorField(lambda t: np.array([t.y, t.x, 0], complex) / phi(t))
    _, c2 = component_residuals(phi, Wv, phi, p, S)
    assert np.max(np.abs(c2)) < 1e-8
    # W0 = x with phi = 1 harmonic; with phi = e^x it fails visibly
    c1_flat, _ = component_residuals(ScalarField(lambda t: complex(t.x)),
                                     Wv, ONE, p, S)
    assert abs(c1_flat) < 1e-9
    c1_exp, _ = component_residuals(ScalarField(lambda t: complex(t.x * math.exp(t.x))),
                                    Wv, phi, p, S)
    assert abs(c1_exp - 2.0 * math.exp(2.0 * p.x)) < 1e-6


def test_w_equation_examples():
    # phi = 1: w = grad h for harmonic h gives D w = 0
    w = VectorField(lambda p: np.array([p.y, p.x, 0], complex))
    assert w_equation_residual(w, ONE, Point3(0.3, 0.1, 0.9), S).max_abs() < 1e-9
    w_bad = VectorField(lambda p: np.array([p.y, 0, 0], complex))
    out = w_equation_residual(w_bad, ONE, Point3(0.3, 0.1, 0.9), S)
    assert abs(out.q3 + 1.0) < 1e-9      # D w = -e3
    # phi = e^x needs w = e^x e2, not e^{-x} e2
    phi = ScalarField(lambda p: complex(math.exp(p.x)))
    w_good = VectorField(lambda p: np.array([0, math.exp(p.x), 0], complex))
    assert w_equation_residual(w_good, phi, Point3(0.2, -0.4, 0.6), S).max_abs() < 1e-9
    w_wrong = VectorField(lambda p: np.array([0, math.exp(-p.x), 0], complex))
    out = w_equation_residual(w_wrong, phi, Point3(0.0, 0.0, 0.0), S)
    assert abs(out.q3 + 2.0) < 1e-9      # sum = -2 e^{-x} e3 at x = 0


def test_w_equation_takes_a_pure_vector_quaternion_field():
    # the vector view of a QuaternionField w equals the same w as a VectorField
    phi = ScalarField(lambda p: complex(math.exp(p.x)))
    vec = lambda p: np.array([p.y * p.z, math.exp(p.x), p.x - 2j * p.y], complex)
    W = QuaternionField(lambda p: Biquaternion.from_vector(vec(p)))
    p = Point3(0.2, -0.4, 0.6)
    assert repr(w_equation_residual(W, phi, p, S)) == repr(
        w_equation_residual(VectorField(vec), phi, p, S))


def test_w_equation_evaluates_a_quaternion_field_once_at_p():
    # once at p, for the scalar-part check and the product, and once per
    # stencil point: 13 calls at order 4 (the vector view made it 14)
    calls = []

    def vec(p):
        calls.append(p)
        return Biquaternion.from_vector([p.y * p.z, math.exp(p.x), p.x - 2j * p.y])

    w_equation_residual(QuaternionField(vec), ONE, Point3(0.2, -0.4, 0.6), S)
    assert len(calls) == 13


def test_w_equation_rejects_scalar_part():
    W = QuaternionField(lambda p: Biquaternion(1.0, 1.0))
    with pytest.raises(NotPureVector):
        w_equation_residual(W, ONE, Point3(0, 0, 0), S)


def test_build_W_prop2_constant_seed():
    w = VectorField(lambda p: np.array([1.0, 0, 0], complex))
    W, W0, Q = build_W_prop2(w, ONE, None, Point3(0, 0, 0), TUBE,
                             cells=TUBE_CELLS)
    p = Point3(4.0, 0.1, -0.05)
    assert abs(W0(p) - 0.5 * p.x) < 1e-9
    assert np.max(np.abs(Q(p) - np.array([-1.0 / p.x, 0, 0]))) < 1e-9
    assert abs(schrodinger_residual(SchrodingerInstance(W0, ZERO_Q), p, S)) < 1e-8
    sc, vec = riccati_residual(RiccatiInstance(Q, ZERO_Q), p, S)
    assert abs(sc) < 1e-8 and np.max(np.abs(vec)) < 1e-8
    assert vekua_residual(W, ONE, p, S).max_abs() < 5e-2


def test_build_W_prop2_degenerate_w_zero():
    w = VectorField(lambda p: np.zeros(3, complex))
    _, _, Q = build_W_prop2(w, ONE, None, Point3(0, 0, 0), TUBE,
                            C=0j, cells=TUBE_CELLS)
    with pytest.raises(ZeroCrossing):
        Q(Point3(4.0, 0.0, 0.0))


def test_build_W_prop2_exponential_seed():
    phi = ScalarField(lambda p: complex(math.exp(p.x)))
    w = VectorField(lambda p: np.array([0, math.exp(p.x), 0], complex))
    q_one = ScalarField(lambda p: 1.0 + 0j)
    region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
    _, W0, Q = build_W_prop2(w, phi, None, Point3(0, 0, 0), region,
                             cells=(12, 12, 12))
    p = Point3(0.3, 0.7, -0.2)
    assert abs(W0(p) - 0.5 * math.exp(p.x) * p.y) < 1e-9
    assert abs(schrodinger_residual(SchrodingerInstance(W0, q_one), p, S)) < 1e-8
    sc, vec = riccati_residual(RiccatiInstance(Q, q_one), p, S)
    assert abs(sc) < 1e-8 and np.max(np.abs(vec)) < 1e-8


def test_build_W_from_W0_with_harmonic_shift():
    quad = QuadratureSpec()
    W0 = ScalarField(lambda p: p.x + 0j, vectorized=True)
    h = ScalarField(lambda p: p.x * p.y + 0j, vectorized=True)
    plain = build_W_from_W0(W0, ONE, None, TUBE, quad, S, cells=TUBE_CELLS)
    shifted = build_W_from_W0(W0, ONE, h, TUBE, quad, S, cells=TUBE_CELLS)
    p = TUBE_PTS[0]
    delta = shifted(p) - plain(p)
    # the shift is exactly -grad h = -(y, x, 0)
    assert np.max(np.abs(delta.vector - np.array([-p.y, -p.x, 0]))) < 1e-8
    assert abs(delta.scalar) < 1e-12
    r_plain = vekua_residual(plain, ONE, p, S).max_abs()
    r_shift = vekua_residual(shifted, ONE, p, S).max_abs()
    assert abs(r_plain - r_shift) < 1e-7   # grad h is annihilated by D
    assert r_plain < 5e-2


def test_vekua_residual_of_built_W_makes_one_jacobian_pass(rot_B_passes):
    # the stencil of W's values made 13 value passes at order 4; W(p) is
    # taken from the jet's values, so no value pass is left
    W = build_W_from_W0(ScalarField(lambda p: complex(p.x)), ONE, None, TUBE,
                        cells=TUBE_CELLS)
    assert vekua_residual(W, ONE, TUBE_PTS[1], S).max_abs() < 5e-2
    assert rot_B_passes == {"jet": 1, "value": 0}


def test_euler_residual_of_built_W_makes_one_jacobian_pass(rot_B_passes):
    from riccati3d.riccati import euler_residual
    W = build_W_from_W0(ScalarField(lambda p: complex(p.x)), ONE, None, TUBE,
                        cells=TUBE_CELLS)
    zero = VectorField(lambda p: np.zeros(3, complex))
    assert euler_residual(W, zero, TUBE_PTS[1], S).max_abs() < 5e-2
    assert rot_B_passes == {"jet": 1, "value": 0}


# |jet - stencil of W's values at h = 1e-4| over TUBE_PTS, measured before
# the bound was set: at most 1.1e-8 (build_W_from_W0), 1.4e-9 (build_W_prop2)
# and 7.2e-10 (w_from_q_pair), with |dW| up to 3.6; at the default h = 1e-3
# the stencil was off by up to 9.9e-7, so the gap is the stencil's error
_W_JET_BOUND = 1e-7


def _built_Ws():
    """One W per builder, with a non-constant phi and a harmonic shift h, so
    that every product-rule term of the jets is exercised."""
    from riccati3d.fields import vec3
    from riccati3d.riccati import w_from_q_pair
    phi = ScalarField(lambda p: np.exp(0.3 * p.x) + 0.1j * p.y, vectorized=True)
    h = ScalarField(lambda p: p.x * p.y + 0j * p.z, vectorized=True)
    gauss = QuadratureSpec(gauss_order=24)
    W0 = ScalarField(lambda p: p.x * p.y + 1j * p.z, vectorized=True)
    w = VectorField(lambda p: vec3(np.exp(0.3 * p.x), 0.3 * p.y, 0), vectorized=True)
    inv_x = RiccatiInstance(VectorField(lambda p: vec3(-1.0 / p.x, 0, 0),
                                        inv_x_instance().Q.domain, vectorized=True), ZERO_Q)
    zero = RiccatiInstance(VectorField(lambda p: vec3(0, 0, 0), vectorized=True), ZERO_Q)
    region, cells = BoxDomain.box((3, -0.5, -0.5), (5, 0.5, 0.5)), (8, 8, 8)
    return {
        "from_W0": lambda: build_W_from_W0(W0, phi, h, region, gauss, S, cells=cells),
        "prop2": lambda: build_W_prop2(w, phi, h, Point3(1, 0, 0), region, gauss, S,
                                       cells=cells)[0],
        "q_pair": lambda: w_from_q_pair(inv_x, zero, h, Point3(1, 0, 0), region,
                                        gauss, S, cells=cells),
    }


@pytest.mark.parametrize("builder", ["from_W0", "prop2", "q_pair"])
def test_built_W_jet_matches_stencil_of_its_values(builder):
    from riccati3d.fields import _derivatives
    W = _built_Ws()[builder]()
    values = QuaternionField(W.fn, W.domain, vectorized=True)  # no jet: stencils of W(p)
    P = Point3(*(np.array(c) for c in zip(*TUBE_PTS)))
    batch_values, batch_derivs = W.jet(P)
    for n, p in enumerate(TUBE_PTS):
        value, derivs = W.jet(p)
        assert derivs.shape == (3, 4)
        assert np.max(np.abs(value - values.batch(p))) < 1e-14 * np.max(np.abs(value))
        stencil = _derivatives(values, p, DiffScheme(h=1e-4))
        assert np.max(np.abs(derivs - stencil)) < _W_JET_BOUND
        # a batch is one pass per point; A over a batch may round apart
        assert np.max(np.abs(batch_values[:, n] - value)) < 1e-12
        assert np.max(np.abs(batch_derivs[..., n] - derivs)) < 1e-11


@pytest.mark.parametrize("builder", ["from_W0", "prop2", "q_pair"])
def test_built_W_evaluator_broadcasts(builder, rot_B_passes):
    W = _built_Ws()[builder]()
    pts = TUBE_PTS + [Point3(4.4, 0.3, -0.2)]
    P = Point3(*(np.array(c) for c in zip(*pts)))
    assert W.fn(P).shape == (4, 3)
    rot_B_passes.update(value=0, jet=0)
    batch = W.batch(P)
    assert rot_B_passes == {"value": 3, "jet": 0}  # one value pass per point
    for n, p in enumerate(pts):
        value = W.batch(p)
        assert np.max(np.abs(batch[:, n] - value)) <= 1e-15 * np.max(np.abs(value))


@pytest.mark.parametrize("builder", ["from_W0", "prop2", "q_pair"])
def test_scalar_part_of_built_W_equals_its_first_component_bitwise(builder, rot_B_passes):
    # Sc W of a built W is its scalar field, read without rot B, on W's domain
    from riccati3d.riccati import _scalar_part
    W = _built_Ws()[builder]()
    P = Point3(*(np.array(c) for c in zip(*TUBE_PTS)))
    scw = _scalar_part(W)
    batch, points = scw.batch(P), np.array([scw(p) for p in TUBE_PTS])
    assert rot_B_passes == {"value": 0, "jet": 0}
    assert scw.domain is W.domain
    assert batch.tobytes() == W.batch(P)[0].tobytes()
    assert points.tobytes() == np.array([W(p).scalar for p in TUBE_PTS]).tobytes()


def test_built_W_domain_meets_the_domain_of_h():
    # grad h is differenced at W's points, so W lives where h does
    box = BoxDomain.box((0, -1, -1), (2, 1, 1))
    h = ScalarField(lambda p: p.x * p.y + 0j, BoxDomain.box((-5, -5, -5), (1, 5, 5)))
    W = build_W_from_W0(ScalarField(lambda p: complex(p.x)), ONE, h, box, cells=(8, 8, 8))
    outside, inside = Point3(1.5, 0.1, 0.1), Point3(0.5, 0.1, 0.1)
    assert not W.domain.ok(outside) and W.domain.ok(inside)
    with pytest.raises(DomainError, match="outside domain box"):
        vekua_residual(W, ONE, outside, S)
    assert vekua_residual(W, ONE, inside, S).max_abs() < 1.0


def test_build_W0_from_W_gradient_seed_yields_constant():
    # Wv = grad(h)/phi with phi = 1: the integrand vanishes and W0 = -C phi
    Wv = VectorField(lambda p: np.array([p.y, p.x, 0], complex))
    W0 = build_W0_from_W(Wv, ONE, Point3(1, 1, 1), QuadratureSpec(), S, C=0j)
    assert abs(W0(Point3(0.4, -0.6, 0.9))) < 1e-8
    W0c = build_W0_from_W(Wv, ONE, Point3(1, 1, 1), QuadratureSpec(), S, C=2.0 + 0j)
    assert abs(W0c(Point3(0.4, -0.6, 0.9)) + 2.0) < 1e-8


def test_picard_zero_divisor_guard():
    from riccati3d.riccati import picard_lhs
    Q1 = VectorField(lambda p: np.array([1.0, 0, 0], complex))
    Q2 = VectorField(lambda p: np.array([0, 1j, 0], complex))
    # Q1 - Q2 = (1, -i, 0) has modulus 1 - 1 = 0: a genuine zero divisor
    Q3 = VectorField(lambda p: np.array([0, 0, 1.0], complex))
    Q4 = VectorField(lambda p: np.array([0, 0, 2.0], complex))
    with pytest.raises(ZeroDivisor):
        picard_lhs(Q1, Q2, Q3, Q4, Point3(1, 1, 1), S)


def _riccati_check(run_row, name, seed):
    """(residual, tolerance) of one riccati-suite check run on its own at a
    seed, which reads as in the suite; the seed-0 suite runs once, in the
    acceptance tests."""
    from riccati3d.report import RunConfig
    from riccati3d.verify import suite_riccati
    config = RunConfig(seed=seed)
    row = run_row(suite_riccati(config), config, "riccati", name)
    return row.max_abs_residual, row.tolerance


def test_factorization_nonsolution_detection_passes_at_seed_1(run_row):
    # the broken input Q = (x,0,0) must not solve the equation anywhere in
    # the check's sample box; with q = 0 it did so on the plane x = 1.
    resid, tol = _riccati_check(run_row, "factorization_nonsolution_detection", 1)
    assert resid >= tol


def test_transform_roundtrip_Q_passes_at_seed_30(run_row):
    # cole_hopf's stencil differences the reconstructed psi, so A's error
    # must be smooth in the end point, as fixed Gauss-Legendre's is; an
    # adaptive rule's error jumped between stencil points.
    resid, tol = _riccati_check(run_row, "transform_roundtrip_Q", 30)
    assert resid <= tol


def _counting_instance(domain=None):
    inst = RiccatiInstance(
        VectorField(lambda p: np.array([p.y * p.z, p.x, p.x * p.y], complex), domain),
        ScalarField(lambda p: complex(p.x + p.z)))
    counts = {"Q": 0, "q": 0}
    for name in counts:
        field = getattr(inst, name)

        def counted(p, fn=field.fn, name=name):
            counts[name] += 1
            return fn(p)
        field.fn = counted
    return inst, counts


@pytest.mark.parametrize("order", [2, 4])
def test_riccati_residual_differences_Q_once(order):
    # the centre plus one 6- or 12-point stencil shared by -div Q and rot Q
    inst, counts = _counting_instance()
    riccati_residual(inst, Point3(0.4, -0.3, 1.1), DiffScheme(order=order))
    assert counts == {"Q": 1 + 6 * order // 2, "q": 1}


def test_riccati_residual_checks_the_whole_stencil_before_differencing():
    p = Point3(0.5, 0.5, 0.5)
    bad = p._replace(y=p.y + 2 * S.step(p, 1))
    inst, counts = _counting_instance(BoxDomain.unbounded(lambda t: t == bad))
    with pytest.raises(DomainError, match="in excluded set"):
        riccati_residual(inst, p, S)
    assert counts == {"Q": 0, "q": 0}  # the stencil is checked before Q(p) too


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("solution_id,params", [
    ("rotational", {"k": 1.0, "c": 0.3466}),
    ("conical", {"C1": 0.0, "C2": math.e}),
    ("harmonic:x+y+z", {}),
])
def test_riccati_residual_equals_public_div_and_rot_bitwise(solution_id, params, order):
    from riccati3d.solutions import catalog_entry
    from riccati3d.verify import halton_points
    entry = catalog_entry(solution_id, **params)
    Q, q = entry.instance.Q, entry.instance.q
    scheme = DiffScheme(order=order)
    for p in halton_points(entry.sample_box, 12, 3, excluded=lambda P: ~Q.domain.ok_mask(P)):
        Qp = Q(p)
        scalar, vector = riccati_residual(entry.instance, p, scheme)
        assert scalar == complex(-div(Q, p, scheme) + Qp @ Qp - q(p))
        assert vector.tobytes() == rot(Q, p, scheme).tobytes()
