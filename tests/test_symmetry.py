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


@pytest.mark.parametrize("k", [0, 11, True, 1.5, 8.0, np.int64(0)])
def test_group_label_must_be_an_int_in_range(k):
    for make in (lambda: GroupElement(k, 0.1), lambda: single_parameter(k),
                 lambda: invariant_potential(k, lambda a, b: 1.0)):
        with pytest.raises(ValueError, match=r"group label k must be an int in 1\.\.10"):
            make()


def test_group_label_may_be_a_numpy_int():
    p, Q = Point3(1, 2, 3), np.array([0.5, -1.0, 2.0])
    for k in range(1, 11):
        assert single_parameter(np.int64(k)) == single_parameter(k)
        lam = 0.1 if k <= 7 else 0.01
        assert repr(group_act(GroupElement(np.int32(k), lam), p, Q)) == repr(
            group_act(GroupElement(k, lam), p, Q))


@pytest.mark.parametrize("lam", [800.0, -1000.0])
def test_dilation_rejects_a_lambda_whose_exponential_overflows(lam):
    with pytest.raises(ValueError, match="overflows"):
        GroupElement(7, lam)
    GroupElement(7, math.copysign(709.0, lam))  # exp(709) is still finite
    GroupElement(1, lam)  # a translation takes any finite lambda


_FAR = [Point3(0.5, 0.2, 0.3), Point3(10.0, 0.2, 0.3), Point3(20.0, 0.2, 0.3)]
_HARMONIC_X = catalog_entry("harmonic:x").instance.Q


@pytest.mark.parametrize("act", [
    lambda g, p: group_act(g, p, np.zeros(np.shape([*p]))),
    lambda g, p: transport_solution(g.inverse(), _HARMONIC_X).batch(p),
    lambda g, p: pushforward_solution(g.inverse(), _HARMONIC_X).batch(p),
], ids=["group_act", "transport", "pushforward"])
def test_dilation_whose_image_overflows_raises_naming_the_point(act):
    # exp(709) is finite, but 10 exp(709) is not: the image of (10, 0.2, 0.3)
    # under G_7(709), which transport and pushforward by G_7(-709) take as
    # the pre-image, overflows.  It raised numpy's overflow warning, or
    # named a stencil point at x = nan
    g = GroupElement(7, 709.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"of Point3\(x=10\.0, y=0\.2, z=0\.3\) "
                           r"under G_7.*not finite") as one:
            act(g, _FAR[1])
        with pytest.raises(DomainError) as batch:
            act(g, _batch(_FAR))
    assert one.value.index == 0 and one.value.where is None
    assert str(batch.value) == str(one.value)
    assert batch.value.index == 1 and batch.value.where.tolist() == [False, True, True]
    assert np.all(np.isfinite(act(g, _FAR[0])))


def test_dilation_whose_new_Q_overflows_raises_naming_the_point():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"image of Point3\(x=0\.001.*G_7, "
                           r"lambda=-709\.0, is not finite"):
            group_act(GroupElement(7, -709.0), Point3(1e-3, 0.0, 0.0), np.array([3.0, 0, 0]))


def test_conical_point_whose_square_overflows_raises_without_a_warning():
    # |p|^2 overflows: no numpy warning may come before the DomainError
    with pytest.raises(DomainError, match=r"image of Point3\(x=1e\+200.*G_8, lambda=0\.3"):
        group_act(GroupElement(8, 0.3), Point3(1e200, 1e200, 1.0), np.zeros(3))


@pytest.mark.parametrize("g, bad", [
    (GroupElement(7, -709.0), Point3(10.0, 0.2, 0.3)),  # the pre-image overflows
    (GroupElement(8, -1.0), Point3(1.0, 0.0, 0.0)),  # the pre-image's pole
    # |p|^2 overflows: a typed error, not an OverflowError from the values
    (GroupElement(8, 0.3), Point3(1e200, 1e200, 1.0)),
], ids=["overflow", "pole", "conical_overflow"])
def test_pushforward_errors_name_the_element_it_was_given(g, bad):
    # they named the inverse, through which the pre-image is taken
    # ("lambda=709.0" for G_7(-709)); now they read as transport's errors
    pts = [Point3(0.5, 0.2, 0.3), bad, bad]
    for p, index in ((bad, 0), (_batch(pts), 1)):
        with pytest.raises(Riccati3dError) as pf:
            pushforward_solution(g, _HARMONIC_X).batch(p)
        with pytest.raises(type(pf.value)) as t:
            transport_solution(g, _HARMONIC_X).batch(p)
        assert f"lambda={g.lam}" in str(pf.value)
        assert str(pf.value) == str(t.value) and pf.value.index == index
    assert pf.value.where.tolist() == [False, True, True]


@pytest.mark.parametrize("g, bad", [
    (GroupElement(8, -0.7), Point3(1 / 0.7, 3e-7, 0.0)),
    (GroupElement(10, -0.7), Point3(0.0, 2e-7, 1 / 0.7)),
], ids=["G8", "G10"])
def test_moved_field_raises_where_Q_overflows_at_a_far_preimage(g, bad):
    # just off the axis next to the pull-back's pole, the pre-image lies at
    # |y| ~ 1e7, where sin(x) exp(y) overflows although the point is in the
    # moved field's domain: transport returned [nan, nan, nan] there, and
    # pushforward named the far pre-image
    Q = catalog_entry("harmonic:sin-exp").instance.Q
    pts = [Point3(0.9, 0.3, 0.8), bad, bad]
    message = (rf"Q at the pre-image of Point3\(x={bad.x}, y={bad.y}, z={bad.z}\) "
               rf"under G_{g.k}, lambda={g.lam}, is not finite")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for moved in (transport_solution(g, Q), pushforward_solution(g, Q)):
            assert moved.domain.ok(bad)
            with pytest.raises(DomainError, match=message) as one:
                moved(bad)
            with pytest.raises(DomainError, match=message) as batch:
                moved.batch(_batch(pts))
            assert one.value.index == 0 and one.value.where is None
            assert batch.value.index == 1
            assert batch.value.where.tolist() == [False, True, True]
            assert np.all(np.isfinite(moved(pts[0])))


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


# _GRID and points with a -0.0 coordinate, or near the pole of the conical
# groups at lambda = -1 (1 - x = 0 on the x-axis; alpha = (1 - x)^2 + rho^2
# beside it), on the axis (rho^2 <= 1e-14) and just off it
_SIGNED_ZEROS = [Point3(0.5, -0.0, 0.2), Point3(0.7, -0.0, -0.0), Point3(0.6, 0.3, -0.0),
                 Point3(-0.0, 0.6, -0.0)]
_NEAR_POLES = [Point3(1.0 + 5e-8, 0.0, 0.0), Point3(1.0, 5e-8, 5e-8), Point3(1.0, 2e-7, 0.0),
               Point3(1.0, 1e-7, 1e-7), Point3(-0.0, 1.0 - 5e-8, 2e-7)]
_PULLBACK_GRID = _GRID + _SIGNED_ZEROS + _NEAR_POLES
_ROTATIONAL = catalog_entry("rotational", k=1.0, c=0.5 * math.log(2))


def test_translations_keep_the_sign_of_zero_on_the_axes_they_do_not_move():
    # adding 0.0 to the unmoved coordinates would turn -0.0 into 0.0
    q, _ = group_act(GroupElement(1, 0.3), Point3(0.5, -0.0, 0.2), np.array([0.1, 0.2, 0.3]))
    assert math.copysign(1.0, q.y) == -1.0
    Q = _ROTATIONAL.instance.Q
    for k in (1, 2, 3):
        g = GroupElement(k, 0.3)
        t, pf = transport_solution(g, Q), pushforward_solution(g, Q)
        for p in _SIGNED_ZEROS:
            assert _bits(t(p)) == _bits(pf(p)), (k, p)


@pytest.mark.parametrize("lam", [0.3, -1.0])
@pytest.mark.parametrize("k", range(1, 11))
def test_transport_and_pushforward_share_one_pullback(k, lam):
    g = GroupElement(k, lam)
    P = _batch(_PULLBACK_GRID)
    for entry in (_ROTATIONAL, catalog_entry("conical", C1=2.0)):
        Q = entry.instance.Q
        t, pf = transport_solution(g, Q), pushforward_solution(g, Q)
        excluded = pf.domain.excluded(P)
        assert _bits(t.domain.excluded(P)) == _bits(excluded)
        if k <= 6 and entry is _ROTATIONAL:  # a closed form: the values agree too
            ok = _batch([p for p, bad in zip(_PULLBACK_GRID, excluded) if not bad])
            assert _bits(t.batch(ok)) == _bits(pf.batch(ok))


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


# the batched group_composition rows rest on this: over a batch like theirs,
# with signed zeros and a point on the z axis, G(l2) G(l1) and G(l1 + l2)
# round as they do at each point (rotations go through one stacked matmul)
@pytest.mark.parametrize("k", range(1, 11))
def test_composition_batch_equals_pointwise_bitwise(k):
    rng = np.random.default_rng(k)
    X, Q = rng.uniform(-1.2, 1.2, (3, 24)), rng.uniform(-1, 1, (3, 24))
    X[0, 0] = X[1, 1] = X[2, 2] = X[0, 3] = -0.0
    X[1, 3] = 0.0
    lam = 0.5 if k <= 7 else 0.1
    l1, l2 = rng.uniform(-lam, lam, 2)

    def composed(p, Qv):
        pa, Qa = group_act(GroupElement(k, l1), p, Qv)
        pb, Qb = group_act(GroupElement(k, l2), pa, Qa)
        pc, Qc = group_act(GroupElement(k, l1 + l2), p, Qv)
        return np.concatenate([np.asarray(pa, dtype=float), Qa, np.asarray(pb, dtype=float),
                               Qb, np.asarray(pc, dtype=float), Qc])
    expect = [composed(Point3(*X[:, n].tolist()), Q[:, n]) for n in range(X.shape[1])]
    assert _bits(composed(Point3(*X), Q).T) == _bits(expect)


def test_symmetry_suite_acts_on_batches_only(monkeypatch, run_row):
    # every row acts on whole batches, the composition rows included
    from riccati3d import symmetry, verify
    from riccati3d.fields import _batched
    from riccati3d.report import RunConfig
    calls = []

    def counted(g, p, Qval):
        calls.append(_batched(Point3(*p)))
        return group_act(g, p, Qval)
    monkeypatch.setattr(symmetry, "group_act", counted)
    monkeypatch.setattr(verify, "group_act", counted)
    batched = {}
    config = RunConfig(seed=0)
    registry = verify.suite_symmetry(config)
    for name, _, _ in registry:
        calls.clear()
        run_row(registry, config, "symmetry", name)
        assert all(calls), name
        batched[name] = len(calls)
    # three calls per group and parameter pair: 7 x 5 and 3 x 3 pairs
    assert batched["group_composition_affine"] == 3 * 7 * 5
    assert batched["group_composition_conical"] == 3 * 3 * 3
