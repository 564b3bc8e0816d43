"""Generator algebra, group actions, invariant potentials and transport."""

import math

import numpy as np
import pytest

from riccati3d.errors import DomainError, NonRealPotential, PoleError
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
