"""Closed-form catalog: spot values, residuals, radial reduction, seeds."""

import math

import numpy as np
import pytest

from riccati3d.errors import DomainError, ZeroCrossing
from riccati3d.fields import DiffScheme, Point3, QuadratureSpec
from riccati3d.riccati import (
    SchrodingerInstance,
    cole_hopf,
    inverse_cole_hopf,
    riccati_residual,
)
from riccati3d.riccati1d import d1, d2
from riccati3d.solutions import (
    ConicalParams,
    HARMONIC_IDS,
    RotationalParams,
    acceptance_catalog,
    catalog_entry,
    conical,
    conical_riccati,
    harmonic_family,
    harmonic_seed,
    radial_linear,
    reduced_radial,
    rotational,
    rotational_riccati,
)

S = DiffScheme()
LN2_HALF = 0.5 * math.log(2.0)


def test_rotational_spot_value():
    inst = rotational_riccati(RotationalParams(k=1, c=0))
    Q = inst.Q(Point3(2, 0, 5))
    assert np.max(np.abs(Q - np.array([-5.0 / 6.0, 0, 0]))) < 1e-12
    assert inst.q(Point3(2, 0, 5)) == pytest.approx(0.25)


def test_rotational_psi_spot_value():
    _, psi = rotational(RotationalParams(k=1, c=LN2_HALF, C=1))
    assert abs(psi(Point3(2, 0, 0)) - (-1.0)) < 1e-12


def test_rotational_psi_rejects_degenerate_normalization():
    with pytest.raises(ValueError):
        rotational(RotationalParams(k=1, c=0))
    with pytest.raises(ValueError):
        rotational(RotationalParams(k=0, c=0.7))
    # Q alone is fine there
    rotational_riccati(RotationalParams(k=1, c=0))


def test_rotational_singular_set_exact_hit():
    inst = rotational_riccati(RotationalParams(k=1, c=0))
    with pytest.raises(DomainError):
        inst.Q(Point3(0, 0, 1))
    with pytest.raises(DomainError):
        inst.Q(Point3(1, 0, 0))      # on the cylinder rho = 1


def test_rotational_blowup_near_cylinder():
    inst = rotational_riccati(RotationalParams(k=1, c=0))
    assert np.max(np.abs(inst.Q(Point3(1.001, 0, 0.3)))) > 1e2


def test_conical_spot_values():
    inst, psi = conical(ConicalParams(C1=0, C2=math.e, C=1))
    assert np.max(np.abs(inst.Q(Point3(1, 0, 0)) - np.array([3.0, 0, 0]))) < 1e-12
    assert abs(psi(Point3(1, 0, 0)) - 1.0) < 1e-12


def test_conical_psi_rejects_C2_one():
    with pytest.raises(ValueError):
        conical(ConicalParams(C1=0, C2=1.0))
    conical_riccati(ConicalParams(C1=0, C2=1.0))    # Q itself exists


def test_conical_rejects_nonpositive_C2():
    with pytest.raises(ValueError):
        ConicalParams(C1=0, C2=-1.0)


def test_conical_blowup_near_log_surface():
    inst = conical_riccati(ConicalParams(C1=0, C2=math.e))
    zs = math.sqrt(math.sqrt(math.e) - 1.0)    # on-surface z at rho = 1
    assert np.max(np.abs(inst.Q(Point3(1.0, 0.0, zs + 5e-4)))) > 1e2


def test_cole_hopf_consistency_both_families():
    for inst, psi in (rotational(RotationalParams(k=1, c=LN2_HALF)),
                      conical(ConicalParams(C1=2, C2=math.e))):
        derived = cole_hopf(SchrodingerInstance(psi, inst.q), S)
        p = Point3(0.85, 0.2, 0.15)
        assert np.max(np.abs(derived.Q(p) - inst.Q(p))) < 1e-6


def test_inverse_cole_hopf_proportional_to_psi():
    entry = catalog_entry("conical", C1=0.0, C2=math.e)
    sch = inverse_cole_hopf(entry.instance, entry.base, 0j, QuadratureSpec())
    p = Point3(0.9, 0.15, 0.1)
    lhs = sch.psi(p) / sch.psi(entry.base)
    rhs = entry.psi(p) / entry.psi(entry.base)
    assert abs(lhs - rhs) < 1e-6


def test_reduced_radial_values_and_equation():
    params = RotationalParams(k=1, c=0)
    u = reduced_radial(params)
    assert abs(u(2.0) + 5.0 / 6.0) < 1e-14
    for rho in (1.5, 2.0, 3.0):
        resid = d1(u, rho, h=2e-4) - (u(rho) ** 2 - u(rho) / rho - 1.0 / rho ** 2)
        assert abs(resid) < 1e-8
    with pytest.raises(DomainError):
        u(1.0)
    with pytest.raises(DomainError):
        u(-2.0)


def test_radial_linear_oracle():
    params = RotationalParams(k=2, c=LN2_HALF)
    g = radial_linear(params)
    u = reduced_radial(params)
    for rho in (1.8, 2.3, 3.0):
        # g solves the radial linear equation and u is -g'/g
        assert abs(d2(g, rho) + d1(g, rho) / rho
                   - (4.0 / rho ** 2) * g(rho)) < 1e-7
        assert abs(u(rho) + d1(g, rho) / g(rho)) < 1e-9


def test_radial_ties_to_3d_slice():
    params = RotationalParams(k=1, c=0)
    u = reduced_radial(params)
    inst = rotational_riccati(params)
    for x in (1.5, 2.5, -1.8):
        got = inst.Q(Point3(x, 0, 0.7))[0].real
        assert abs(got - math.copysign(1.0, x) * u(abs(x))) < 1e-10


def test_harmonic_seeds_are_harmonic_and_solve():
    for name in HARMONIC_IDS:
        seed = harmonic_seed(name)
        p = Point3(0.8, 0.6, 0.9)
        from riccati3d.fields import laplacian
        assert abs(laplacian(seed.psi, p, S)) < 1e-8
        inst = harmonic_family(seed)
        sc, vec = riccati_residual(inst, p, S)
        assert abs(sc) < 1e-6 and np.max(np.abs(vec)) < 1e-6


def test_harmonic_family_values():
    inst = harmonic_family(harmonic_seed("x"))
    assert np.max(np.abs(inst.Q(Point3(2, 0.5, 1)) - np.array([-0.5, 0, 0]))) < 1e-10
    inst3 = harmonic_family(harmonic_seed("x+y+z"))
    p = Point3(1, 1, 1)
    assert np.max(np.abs(inst3.Q(p) + np.ones(3) / 3.0)) < 1e-10
    with pytest.raises(ZeroCrossing):
        inst.Q(Point3(0, 1, 1))


def test_unknown_harmonic_seed():
    with pytest.raises(ValueError):
        harmonic_seed("cosh")
    with pytest.raises(ValueError):
        catalog_entry("bessel")


@pytest.mark.parametrize("solution_id, params", [
    ("rotational", {"k": math.nan}),
    ("rotational", {"c": math.inf}),
    ("rotational", {"C": -math.inf}),
    ("conical", {"C1": math.nan}),
    ("conical", {"C2": math.inf}),
])
def test_catalog_rejects_non_finite_parameters(solution_id, params):
    with pytest.raises(ValueError, match="must be finite"):
        catalog_entry(solution_id, **params)


@pytest.mark.parametrize("solution_id, params", [
    ("harmonic:x", {"k": 2.0}),
    ("harmonic:x+y+z", {"C": 1.0}),
    ("rotational", {"C1": 3.0}),
    ("conical", {"k": 1.0, "c": 0.0}),
])
def test_catalog_rejects_parameters_of_another_family(solution_id, params):
    with pytest.raises(ValueError, match="takes no parameter"):
        catalog_entry(solution_id, **params)


def test_acceptance_catalog_composition():
    entries = acceptance_catalog()
    assert len(entries) == 8
    names = [e.name for e in entries]
    assert len(set(names)) == 8
    # every entry's base point and sampling box are inside its domain
    for e in entries:
        dom = e.instance.Q.domain
        assert dom.ok(e.base), e.name
        lo, hi = e.sample_box
        mid = Point3(*(0.5 * (a + b) for a, b in zip(lo, hi)))
        assert dom.in_box(mid)


def test_catalog_psi_presence():
    assert catalog_entry("rotational", k=1, c=0).psi is None
    assert catalog_entry("rotational", k=1, c=LN2_HALF).psi is not None
    assert catalog_entry("conical", C1=0.0, C2=2.0).psi is not None
