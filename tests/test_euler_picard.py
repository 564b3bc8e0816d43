"""Generalized first Euler theorem and the four-solution identity."""

import numpy as np
import pytest

from riccati3d.biquat import Biquaternion
from riccati3d.fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
    operator_A,
    vec3,
)
from riccati3d.riccati import (
    RiccatiInstance,
    euler_residual,
    picard_lhs,
    q_from_scw,
    w_from_q_pair,
)
from riccati3d.solutions import catalog_entry

S = DiffScheme()
ZERO_Q = ScalarField(lambda p: 0j, vectorized=True)
GAUSS = QuadratureSpec(gauss_order=24)

TUBE = BoxDomain.box((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
TUBE_PTS = [Point3(3.6, -0.1, 0.08), Point3(4.0, 0.12, -0.05)]
CELLS = (50, 10, 10)


def inv_x_instance():
    dom = BoxDomain.box((0.05, -9, -9), (60, 9, 9))
    return RiccatiInstance(
        VectorField(lambda p: vec3(-1.0 / p.x, 0, 0), dom, vectorized=True), ZERO_Q)


def zero_instance():
    return RiccatiInstance(VectorField(lambda p: np.zeros(3, complex), vectorized=True),
                           ZERO_Q)


def test_euler_residual_examples():
    # Q1 = 0 asks for D W = 0: constants and monogenic combinations qualify
    W = QuaternionField(lambda p: (2.5, 0.3, 0, -1.0))
    Q0 = VectorField(lambda p: np.zeros(3, complex))
    assert euler_residual(W, Q0, Point3(0.4, 0.8, -0.2), S).max_abs() < 1e-9
    Wmono = QuaternionField(lambda p: (0, p.x, -p.y, 0))
    assert euler_residual(Wmono, Q0, Point3(0.4, 0.8, -0.2), S).max_abs() < 1e-9
    # Q1 = -e1/x with W = x: D x + Q1 conj(x) = e1 - e1 = 0
    Wx = QuaternionField(lambda p: (p.x, 0, 0, 0))
    Q1 = inv_x_instance().Q
    assert euler_residual(Wx, Q1, Point3(1.3, 0.2, 0.5), S).max_abs() < 1e-9
    # non-solution: W = x e2 with Q1 = 0 gives D W = e3
    Wbad = QuaternionField(lambda p: (0, 0, p.x, 0))
    out = euler_residual(Wbad, Q0, Point3(0.7, 0.1, 0.2), S)
    assert abs(out.q3 - 1.0) < 1e-9


def test_q_from_scw_matches_cole_hopf():
    W = QuaternionField(lambda p: (p.x, 0.3, -0.1, 2.0))
    Q = q_from_scw(W, S)
    got = Q(Point3(2.0, 1.0, 1.0))
    assert np.max(np.abs(got - np.array([-0.5, 0, 0]))) < 1e-10
    # a W that no builder made is read through its values, over a batch too
    P = Point3(np.array([2.0, 4.0]), np.array([1.0, -0.5]), np.array([1.0, 0.2]))
    assert np.max(np.abs(Q.batch(P) - [[-0.5, -0.25], [0, 0], [0, 0]])) < 1e-10


def test_wconst_scalar_part_is_exp_A():
    W = w_from_q_pair(inv_x_instance(), zero_instance(), None, Point3(1, 0, 0), TUBE,
                      GAUSS, S, check_points=[Point3(3.0, 0.2, 0.1)], cells=CELLS)
    A = operator_A(inv_x_instance().Q, Point3(1, 0, 0), 0j, GAUSS)
    for p in TUBE_PTS:
        expect = np.exp(-complex(A(p)))
        assert abs(W(p).scalar - expect) < 1e-12
        # for this seed, exp(-A[Q]) = x exactly
        assert abs(W(p).scalar - p.x) < 1e-10


def test_wconst_equal_instances_degenerate_to_scalar():
    inst = inv_x_instance()
    W = w_from_q_pair(inst, inst, None, Point3(1, 0, 0), TUBE, GAUSS, S,
                      cells=(40, 8, 8))
    p = TUBE_PTS[0]
    assert np.max(np.abs(W(p).vector)) < 1e-12
    assert abs(W(p).scalar - p.x) < 1e-10


def test_wconst_rejects_different_potentials():
    rot = catalog_entry("rotational", k=1, c=0).instance
    with pytest.raises(ValueError):
        w_from_q_pair(inv_x_instance(), rot, None, Point3(1, 0, 0), TUBE,
                      GAUSS, S, check_points=[Point3(3.0, 0.2, 0.1)])


@pytest.fixture(scope="module")
def harmonic_quadruple():
    seeds = ("x", "y", "z", "x+y+z")
    return [catalog_entry(f"harmonic:{s}").instance.Q for s in seeds]


def test_picard_identity_on_harmonic_quadruple(harmonic_quadruple):
    p = Point3(0.7, 1.3, 2.1)
    out = picard_lhs(*harmonic_quadruple, p, S)
    assert out.max_abs() < 1e-6


def test_picard_cross_terms_matter(harmonic_quadruple):
    p = Point3(0.7, 1.3, 2.1)
    out = picard_lhs(*harmonic_quadruple, p, S, include_cross_terms=False)
    assert out.max_abs() > 1e-2


def test_picard_pairwise_cancellation(harmonic_quadruple):
    Q1, Q2, _, _ = harmonic_quadruple
    out = picard_lhs(Q1, Q2, Q1, Q2, Point3(0.9, 1.1, 1.7), S)
    assert out.max_abs() == 0.0


def test_picard_perturbed_solution_detected(harmonic_quadruple):
    Q1, Q2, Q3, Q4 = harmonic_quadruple
    bad = VectorField(lambda p: Q4(p) + np.array([1.0, 0, 0]))
    out = picard_lhs(Q1, Q2, Q3, bad, Point3(0.7, 1.3, 2.1), S)
    assert out.max_abs() > 1e-1


# |batch - pointwise| over 400 Halton points of the verify box, at orders 2
# and 4, with and without cross terms, was at most 6 eps:
# numpy's complex products and quotients round differently from Python's in
# about 45 % of random operands (its loops may fuse a multiply and an add)
_PICARD_BATCH_ULPS = 16


@pytest.mark.parametrize("options", [{}, {"include_cross_terms": False}])
def test_picard_batch_matches_the_pointwise_values(harmonic_quadruple, options):
    from riccati3d.verify import _as_batch, halton_points
    pts = halton_points((Point3(0.55, 0.35, 0.45), Point3(1.9, 1.4, 1.5)), 20, 3)
    out = picard_lhs(*harmonic_quadruple, _as_batch(pts), S, **options)
    assert out.shape == (4, len(pts))
    bound = _PICARD_BATCH_ULPS * np.finfo(float).eps
    for i, p in enumerate(pts):
        point = picard_lhs(*harmonic_quadruple, p, S, **options)
        assert np.max(np.abs(out[:, i] - point.components)) <= bound


def test_picard_batch_pairwise_cancellation_is_exact(harmonic_quadruple):
    from riccati3d.verify import _as_batch, halton_points
    Q1, Q2, _, _ = harmonic_quadruple
    P = _as_batch(halton_points((Point3(0.55, 0.35, 0.45), Point3(1.9, 1.4, 1.5)), 20, 5))
    assert not picard_lhs(Q1, Q2, Q1, Q2, P, S).any()


def test_prop3_roundtrip_makes_one_jacobian_pass_per_node(rot_B_passes, run_row):
    # 7 legs x the default order's Gauss nodes; differencing phi Wv made 12
    # value passes each
    from riccati3d.report import RunConfig
    from riccati3d.verify import suite_euler_picard
    config = RunConfig(seed=0)
    row = run_row(suite_euler_picard(config), config, "euler_picard", "prop3_roundtrip")
    assert row.max_abs_residual < 5e-2
    assert rot_B_passes == {"jet": 7 * QuadratureSpec().gauss_order, "value": 0}


def test_scalar_part_rows_make_no_rot_B_pass(rot_B_passes, monkeypatch, run_row):
    # Sc W of both built Ws is exp(-A[Q]): the rows read it without rot B,
    # and the 40x8x8 W, which only wconst_scalar_part_exact reads, never
    # builds its grid; euler_residual_built_W builds the shared W's
    from riccati3d import riccati
    from riccati3d.report import RunConfig
    from riccati3d.verify import suite_euler_picard
    built, rot_B = [], riccati.operator_rot_B
    monkeypatch.setattr(riccati, "operator_rot_B",
                        lambda *a, **k: built.append(rot_B(*a, **k)) or built[-1])
    config = RunConfig(seed=0)
    registry = suite_euler_picard(config)

    def check(name):
        return run_row(registry, config, "euler_picard", name).max_abs_residual

    assert check("wconst_scalar_part_exact") < 1e-10
    assert check("q_from_scw_recovers_Q") < 1e-6
    assert rot_B_passes == {"jet": 0, "value": 0}
    assert [b.cells for b in built] == [(40, 8, 8), (5 * 12, 12, 12)]
    assert [b._grid for b in built] == [None, None]
    check("euler_residual_built_W")
    assert built[0]._grid is None and built[1]._grid is not None


def _counted(Q, calls: list):
    """Q, appending to calls at every evaluation (one per ``batch`` call)."""
    return VectorField(lambda p: calls.append(p) or Q.batch(p), Q.domain, vectorized=True)


@pytest.mark.parametrize("h", [1e-3, 1e-2])
def test_picard_evaluates_each_field_once_per_stencil_point(harmonic_quadruple, h):
    # once at p and once per stencil point: 52 calls at one point,
    # where differencing each term's Qa - Qb made 104; over a batch, one call
    # per field of p and its stencil points stacked
    from riccati3d.verify import _as_batch, halton_points
    pts = halton_points((Point3(0.55, 0.35, 0.45), Point3(1.9, 1.4, 1.5)), 5, 2)
    calls = [[] for _ in harmonic_quadruple]
    fields = [_counted(Q, c) for Q, c in zip(harmonic_quadruple, calls)]
    for p, shapes in ((pts[0], [()] * 13), (_as_batch(pts), [(13, 5)])):
        for c in calls:
            c.clear()
        picard_lhs(*fields, p, DiffScheme(h=h))
        assert [[np.shape(q.x) for q in c] for c in calls] == [shapes] * 4


def _picard_per_term(fields, p, scheme, include_cross_terms=True):
    """picard_lhs term by term: each D(Qa - Qb) a stencil of Qa - Qb."""
    from riccati3d.biquat import _inverse, _product, cross
    from riccati3d.fields import _batched, dirac_left
    batched = _batched(p)

    def term(Qa, Qb):
        va, vb = Qa.batch(p), Qb.batch(p)
        X = dirac_left(VectorField(lambda t: Qa.batch(t) - Qb.batch(t),
                                   Qa.domain.intersect(Qb.domain), vectorized=True),
                       p, scheme)
        X = X if batched else X.components
        if include_cross_terms:
            c = cross(va, vb) if batched else cross(va, vb).tolist()
            X = (X[0], X[1] - c[0] * 2.0, X[2] - c[1] * 2.0, X[3] - c[2] * 2.0)
        return _product(X, _inverse((0j, *(va - vb if batched else (va - vb).tolist()))))

    Q1, Q2, Q3, Q4 = fields
    total = [a + b - c - d for a, b, c, d in zip(term(Q1, Q2), term(Q3, Q4),
                                                   term(Q1, Q4), term(Q3, Q2))]
    return np.array(total) if batched else Biquaternion(*total)


@pytest.mark.parametrize("options", [{}, {"include_cross_terms": False}])
def test_picard_equals_the_per_term_stencils_bitwise(harmonic_quadruple, options):
    from riccati3d.verify import _as_batch, halton_points
    pts = halton_points((Point3(0.55, 0.35, 0.45), Point3(1.9, 1.4, 1.5)), 8, 4)
    for p in pts[:3]:
        assert repr(picard_lhs(*harmonic_quadruple, p, S, **options)) == repr(
            _picard_per_term(harmonic_quadruple, p, S, **options))
    P = _as_batch(pts)
    assert np.array_equal(picard_lhs(*harmonic_quadruple, P, S, **options),
                          _picard_per_term(harmonic_quadruple, P, S, **options))
