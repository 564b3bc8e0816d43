"""Generator algebra, group actions, invariant potentials and transport."""

import math
import warnings

import numpy as np
import pytest

from riccati3d.errors import DomainError, NonRealPotential, PoleError, Riccati3dError
from riccati3d.fields import DiffScheme, Point3, ScalarField, VectorField
from riccati3d.riccati import RiccatiInstance, riccati_residual
from riccati3d.solutions import catalog_entry
from riccati3d.symmetry import (
    GeneratorParams,
    GroupElement,
    alpha,
    c_pairing,
    determining_residual,
    group_act,
    invariant_potential,
    pushforward_solution,
    rotation_matrix,
    single_parameter,
    transport_solution,
    vhat_apply,
)
from riccati3d.verify import _TABLE_F, halton_points

S = DiffScheme()


def test_vhat_translation_row():
    out = vhat_apply(GeneratorParams(a9=1), Point3(0.3, -0.7, 2.0), (0.5, 1.0, -2.0))
    assert out == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_vhat_dilation_row():
    p = Point3(1.2, -0.4, 0.9)
    Q = (0.3, 0.7, -0.2)
    out = vhat_apply(GeneratorParams(a5=1), p, Q)
    assert out == (p.x, p.y, p.z, -Q[0], -Q[1], -Q[2])


def test_vhat_conical_row_spot_value():
    out = vhat_apply(GeneratorParams(a3=1), Point3(1, 1, 1), (0.0, 0.0, 0.0))
    assert out == (2.0, 2.0, -1.0, 0.0, 0.0, 1.0)


def test_vhat_rejects_complex_Q():
    with pytest.raises(ValueError):
        vhat_apply(GeneratorParams(a9=1), Point3(0, 0, 0),
                   np.array([1j, 0, 0]))


def test_determining_translation_family():
    q = ScalarField(lambda p: complex(p.y ** 2 + p.z))
    r = determining_residual(GeneratorParams(a9=1), q, Point3(0.8, 0.3, 1.1), S)
    assert abs(r) < 1e-8


def test_determining_dilation_euler_identity():
    q = ScalarField(lambda p: complex(1.0 / (p.x ** 2 + p.y ** 2)))
    r = determining_residual(GeneratorParams(a5=1), q, Point3(0.9, 0.5, 0.2), S)
    assert abs(r) < 1e-8


def test_determining_detects_breaking():
    q = ScalarField(lambda p: complex(p.x))
    r = determining_residual(GeneratorParams(a9=1), q, Point3(0.5, 0.5, 0.5), S)
    assert abs(r + 1.0) < 1e-9


def test_determining_rejects_complex_potential():
    q = ScalarField(lambda p: 1j)
    with pytest.raises(NonRealPotential):
        determining_residual(GeneratorParams(a9=1), q, Point3(1, 1, 1), S)


def test_invariant_potential_rows():
    q6 = invariant_potential(6, lambda z, rho: 1.0 / rho ** 2)
    p = Point3(0.6, 0.8, 2.0)
    assert q6(p) == pytest.approx(1.0 / (p.x ** 2 + p.y ** 2))
    q7 = invariant_potential(7, lambda a, b: 1.0)
    assert q7(Point3(2.0, 1.0, 1.0)) == pytest.approx(0.25)
    r = determining_residual(single_parameter(7), q7, Point3(1.2, 0.5, 0.8), S)
    assert abs(r) < 1e-9
    q10 = invariant_potential(10, lambda a, b: 1.0)
    assert q10(Point3(1, 1, 1)) == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize("k", range(1, 11))
def test_invariant_potential_batch_and_mask_equal_pointwise(k):
    q = invariant_potential(k, _TABLE_F[k])
    assert q.vectorized
    pts = halton_points((Point3(-1, -1, -1), Point3(1, 1, 1)), 40, 3)
    assert _bits(q.batch(_batch(pts))) == _bits(np.array([q(p) for p in pts]))
    # the singular sets of rows 7..10 among the points
    pts += [Point3(0.0, 0.3, 0.2), Point3(0.0, 0.0, 0.0), Point3(4e-7, 0.0, 0.0)]
    assert q.domain.ok_mask(_batch(pts)).tolist() == [q.domain.ok(p) for p in pts]


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_batched_invariant_potential_names_the_first_singular_point(k):
    q = invariant_potential(k, _TABLE_F[k])
    pts = [Point3(0.9, 0.2, 0.1), Point3(0.0, 0.0, 0.0), Point3(1.1, 0.3, 0.2),
           Point3(-0.0, 0.0, 5e-7)]
    with pytest.raises(DomainError) as one:
        q(pts[1])
    with pytest.raises(DomainError) as exc:
        q.batch(_batch(pts))
    assert str(exc.value) == str(one.value) and exc.value.index == 1
    assert exc.value.where.tolist() == [False, True, False, True]


def test_invariant_potential_singularities():
    q7 = invariant_potential(7, lambda a, b: 1.0)
    with pytest.raises(DomainError):
        q7(Point3(0.0, 1.0, 1.0))
    q8 = invariant_potential(8, lambda a, b: 1.0)
    with pytest.raises(DomainError):
        q8(Point3(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        invariant_potential(11, lambda a, b: 1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_group_element_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        GroupElement(10, lam)


def test_alpha_has_no_real_roots_off_axis():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y, z = rng.uniform(-2, 2, 3)
        if y * y + z * z < 1e-6:
            continue
        r = math.sqrt(x * x + y * y + z * z)
        lam = rng.uniform(-5, 5)
        assert alpha(x, r, lam) > 0.0


def test_c_pairing():
    assert c_pairing((1, 1, 1), (0, 0, 0)) == 1.0
    assert c_pairing((1, 0, 0), (0.5, 0, 0)) == 0.0


def test_group_act_translations_and_rotation_spot():
    p, Q = Point3(5, 1, 0), np.array([0.0, 1.0, 0.0])
    p2, Q2 = group_act(GroupElement(1, 1.0), p, Q)
    assert p2 == Point3(6, 1, 0)
    assert np.array_equal(Q2, Q)
    # R1(pi/2): (5, 1, 0) -> (5, 0, -1), Q likewise
    p3, Q3 = group_act(GroupElement(4, math.pi / 2), p, Q)
    assert np.max(np.abs(np.asarray(p3) - (5, 0, -1))) < 1e-12
    assert np.max(np.abs(Q3 - (0, 0, -1))) < 1e-12


def test_group_act_dilation():
    p, Q = Point3(1, 2, 3), np.array([0.5, -1.0, 2.0])
    p2, Q2 = group_act(GroupElement(7, math.log(2)), p, Q)
    assert np.max(np.abs(np.asarray(p2) - (2, 4, 6))) < 1e-12
    assert np.max(np.abs(Q2 - np.array([0.25, -0.5, 1.0]))) < 1e-12


def test_group_identity_and_inverse():
    rng = np.random.default_rng(3)
    for k in range(1, 11):
        p = Point3(*rng.uniform(-1, 1, 3))
        Q = rng.uniform(-1, 1, 3)
        p0, Q0 = group_act(GroupElement(k, 0.0), p, Q)
        assert np.array_equal(np.asarray(p0), np.asarray(p))
        assert np.array_equal(Q0, Q)
        g = GroupElement(k, 0.07)
        pa, Qa = group_act(g, p, Q)
        pb, Qb = group_act(g.inverse(), pa, Qa)
        assert np.max(np.abs(np.asarray(pb) - np.asarray(p))) < 1e-12
        assert np.max(np.abs(Qb - Q)) < 1e-12


def test_conical_axis_case_and_pole():
    # on the x-axis, G8 moves along it
    p, Q = Point3(0.5, 0.0, 0.0), np.array([0.2, 0.1, -0.3])
    lam = 0.4
    p2, Q2 = group_act(GroupElement(8, lam), p, Q)
    d = 1.0 - 0.5 * lam
    assert np.max(np.abs(np.asarray(p2) - (0.5 / d, 0, 0))) < 1e-14
    assert abs(Q2[1] - 0.1 * d * d) < 1e-14
    with pytest.raises(PoleError):
        group_act(GroupElement(8, 2.0), p, Q)  # 1 - x lambda = 0


def test_rotation_matrices_orthogonal():
    for k in (4, 5, 6):
        R = rotation_matrix(k, 0.83)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-14


def test_vhat_is_lambda_derivative_of_groups():
    rng = np.random.default_rng(9)
    dl = 1e-5
    for k in range(1, 11):
        p = Point3(*rng.uniform(0.3, 1.2, 3))
        Q = rng.uniform(-1, 1, 3)
        pp, Qp = group_act(GroupElement(k, dl), p, Q)
        pm, Qm = group_act(GroupElement(k, -dl), p, Q)
        fd = (np.concatenate([np.asarray(pp), Qp])
              - np.concatenate([np.asarray(pm), Qm])) / (2 * dl)
        vh = np.array(vhat_apply(single_parameter(k), p, Q))
        assert np.max(np.abs(fd - vh)) < 1e-6


@pytest.fixture(scope="module")
def harmonic_entry():
    return catalog_entry("harmonic:x+y+z")


def test_transport_matches_pushforward_all_groups(harmonic_entry):
    rng = np.random.default_rng(4)
    Q = harmonic_entry.instance.Q
    for k in range(1, 11):
        lam = 0.2 if k <= 7 else 0.05
        g = GroupElement(k, lam)
        t = transport_solution(g, Q)
        pf = pushforward_solution(g, Q)
        for _ in range(10):
            p = Point3(*rng.uniform(0.6, 1.4, 3))
            assert np.max(np.abs(t(p) - pf(p))) < 1e-10


def test_transport_axis_case_matches_pushforward():
    entry = catalog_entry("conical", C1=0.0, C2=math.e)
    Q = entry.instance.Q
    g = GroupElement(8, 0.04)
    t = transport_solution(g, Q)
    pf = pushforward_solution(g, Q)
    p = Point3(0.9, 0.0, 0.0)   # on the x-axis (the conical Q is fine there)
    assert np.max(np.abs(t(p) - pf(p))) < 1e-12


def test_literal_text_deviates_at_second_order(harmonic_entry):
    Q = harmonic_entry.instance.Q
    p = Point3(0.9, 1.0, 1.1)
    for k in (8, 9, 10):
        g = GroupElement(k, 0.05)
        lit = transport_solution(g, Q, literal_text=True)
        pf = pushforward_solution(g, Q)
        gap = np.max(np.abs(lit(p) - pf(p)))
        assert 1e-8 < gap < 1e-1    # present but O(lambda^2) small


def test_transported_solutions_still_solve(harmonic_entry):
    rng = np.random.default_rng(6)
    pts = [Point3(*rng.uniform(0.7, 1.3, 3)) for _ in range(5)]
    for k in (1, 4, 7, 8, 10):
        lam = 0.1 if k <= 7 else 0.03
        moved = pushforward_solution(GroupElement(k, lam), harmonic_entry.instance.Q)
        inst = RiccatiInstance(moved, harmonic_entry.instance.q)
        for p in pts:
            sc, vec = riccati_residual(inst, p, S)
            assert abs(sc) < 1e-5
            assert np.max(np.abs(vec)) < 1e-5


def test_rotational_transport_under_matching_groups():
    entry = catalog_entry("rotational", k=1.0, c=0.5 * math.log(2))
    pts = [Point3(0.8, 0.25, 0.3), Point3(0.6, 0.15, -0.4)]
    for k, lam in ((3, 0.3), (6, 0.5), (7, 0.1)):
        moved = transport_solution(GroupElement(k, lam), entry.instance.Q)
        inst = RiccatiInstance(moved, entry.instance.q)
        for p in pts:
            sc, vec = riccati_residual(inst, p, S)
            assert abs(sc) < 1e-5 and np.max(np.abs(vec)) < 1e-5


def test_rotational_is_G10_invariant_but_not_G8():
    # q = k^2/(x^2+y^2) is of the z-conical family (so G10 transport keeps
    # solving) but not of the x-conical one (G8 breaks it)
    entry = catalog_entry("rotational", k=1.0, c=0.5 * math.log(2))
    p = Point3(0.8, 0.25, 0.3)
    ok = pushforward_solution(GroupElement(10, 0.05), entry.instance.Q)
    sc, vec = riccati_residual(RiccatiInstance(ok, entry.instance.q), p, S)
    assert max(abs(sc), float(np.max(np.abs(vec)))) < 1e-5
    bad = pushforward_solution(GroupElement(8, 0.05), entry.instance.Q)
    sc, vec = riccati_residual(RiccatiInstance(bad, entry.instance.q), p, S)
    assert max(abs(sc), float(np.max(np.abs(vec)))) > 1e-3


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(0, 1.0)
    with pytest.raises(ValueError):
        GroupElement(11, 1.0)


# -- batches ------------------------------------------------------------------

# a 5^3 grid through the origin: it crosses every coordinate axis, and with
# lambda = -1 (or 1 for group_act) the conical groups have a pole at a unit
# point of their axis
_AXES = np.linspace(-1.0, 1.0, 5)
_GRID = [Point3(x, y, z) for x in _AXES.tolist() for y in _AXES.tolist()
         for z in _AXES.tolist()]


def _batch(pts):
    return Point3(*(np.array(c) for c in zip(*pts)))


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


def _pointwise(f, pts):
    """f at each point, or the typed error it raises there."""
    out = []
    for p in pts:
        try:
            out.append(f(p))
        except Riccati3dError as exc:
            out.append(exc)
    return out


def _assert_batch_matches(batch, pointwise, pts):
    """batch(P) gives the pointwise values bit for bit where no point raises;
    over the whole grid it raises the pointwise error of the point it names,
    and ``where`` names only points that raise."""
    raised = [i for i, v in enumerate(pointwise) if isinstance(v, Exception)]
    ok = [i for i, v in enumerate(pointwise) if not isinstance(v, Exception)]
    got = batch(_batch([pts[i] for i in ok]))
    assert _bits(got) == _bits(np.array([pointwise[i] for i in ok]).T)
    if not raised:
        return
    with pytest.raises(Riccati3dError) as exc:
        batch(_batch(pts))
    i = exc.value.index
    assert type(exc.value) is type(pointwise[i]) and str(exc.value) == str(pointwise[i])
    if exc.value.where is not None:
        assert exc.value.where[i] and set(np.flatnonzero(exc.value.where)) <= set(raised)


@pytest.fixture(scope="module", params=["harmonic:x+y+z", "conical"])
def entry(request):
    return catalog_entry(request.param, **({"C1": 2.0} if request.param == "conical" else {}))


@pytest.mark.parametrize("lam", [0.3, -1.0])
@pytest.mark.parametrize("k", range(1, 11))
def test_transported_field_batch_equals_pointwise_bitwise(entry, k, lam):
    g = GroupElement(k, lam)
    Q = entry.instance.Q
    for field in (transport_solution(g, Q), transport_solution(g, Q, literal_text=True),
                  pushforward_solution(g, Q)):
        assert field.vectorized
        _assert_batch_matches(field.batch, _pointwise(field, _GRID), _GRID)
        # the predicate takes the grid's poles and axis points in one call,
        # without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = field.domain.ok_mask(_batch(_GRID))
        assert mask.tolist() == [field.domain.ok(p) for p in _GRID]


def test_conical_pole_and_axis_are_on_the_test_grid():
    Q = catalog_entry("harmonic:x+y+z").instance.Q
    g = GroupElement(8, -1.0)
    with pytest.raises(PoleError):  # 1 + x lambda = 0 at (1, 0, 0)
        transport_solution(g, Q)(Point3(1.0, 0.0, 0.0))
    assert not transport_solution(g, Q).domain.ok(Point3(1.0, 0.0, 0.0))
    assert not pushforward_solution(g, Q).domain.ok(Point3(1.0, 0.0, 0.0))


def test_conical_predicate_takes_the_axis_pole_of_the_evaluator():
    # on the axis the pole is |1 + x lambda| <= _POLE_TOL; alpha(-x) is its
    # square, 2.5e-15 here, below that tolerance though the pre-image exists
    Q = catalog_entry("harmonic:x").instance.Q
    g = GroupElement(8, -1.0)
    p = Point3(1 + 5e-8, 0.0, 0.0)
    t, pf = transport_solution(g, Q), pushforward_solution(g, Q)
    assert pf.domain.ok(p)
    assert t.domain.ok(p) == pf.domain.ok(p)
    assert np.max(np.abs(t(p) - pf(p))) <= 1e-9 * np.max(np.abs(pf(p)))


@pytest.mark.parametrize("lam", [0.3, 1.0])
@pytest.mark.parametrize("k", range(1, 11))
def test_group_act_batch_equals_pointwise_bitwise(k, lam):
    g = GroupElement(k, lam)
    Qs = np.random.default_rng(k).uniform(-1, 1, (len(_GRID), 3))

    def pointwise(p, Qv):
        try:
            q, Q2 = group_act(g, p, Qv)
            return np.concatenate([np.asarray(q, dtype=float), Q2])
        except PoleError as exc:
            return exc
    expect = [pointwise(p, Qv) for p, Qv in zip(_GRID, Qs)]
    raised = [i for i, v in enumerate(expect) if isinstance(v, Exception)]
    assert bool(raised) == (k >= 8 and lam == 1.0)  # the pole at a unit axis point
    ok = [i for i in range(len(_GRID)) if i not in raised]
    q, Q2 = group_act(g, _batch([_GRID[i] for i in ok]), Qs[ok].T)
    assert _bits(np.concatenate([np.stack(q), Q2]).T) == _bits([expect[i] for i in ok])
    if raised:
        with pytest.raises(PoleError) as exc:
            group_act(g, _batch(_GRID), Qs.T)
        assert exc.value.index == raised[0]
        assert np.flatnonzero(exc.value.where).tolist() == raised
        assert str(exc.value) == str(expect[raised[0]])


def test_pole_error_at_one_point_keeps_its_message():
    with pytest.raises(PoleError) as exc:
        group_act(GroupElement(8, 2.0), Point3(0.5, 0.0, 0.0), np.zeros(3))
    assert str(exc.value) == ("1 - x*lambda vanished for G_8 at "
                              "Point3(x=0.5, y=0.0, z=0.0), lambda=2.0")
    assert exc.value.index == 0 and exc.value.where is None


def test_real_check_scales_each_point_by_its_own_modulus():
    g = GroupElement(1, 0.1)
    big = np.array([100.0, 0.0, 1e-9j])     # 1e-9 <= 1e-10 * 100: real enough
    small = np.array([1.0, 0.0, 1e-9j])     # 1e-9 > 1e-10 * 1: complex
    P = _batch([Point3(0.1, 0.2, 0.3)] * 2)
    group_act(g, P, np.stack([big, big], axis=1))
    group_act(g, Point3(0.1, 0.2, 0.3), big)
    for Qv in (small, np.stack([big, small], axis=1)):
        p = Point3(0.1, 0.2, 0.3) if Qv.ndim == 1 else P
        with pytest.raises(ValueError, match="real-valued Q"):
            group_act(g, p, Qv)
