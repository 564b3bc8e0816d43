"""Every failing guard of the library over a batch: its error type, its
exact message, the first failing point (``index``) and every failing one
(``where``).  Each batch holds two failing points among passing ones."""

import math

import numpy as np
import pytest

from riccati3d.biquat import _inverse
from riccati3d.errors import (
    DomainError,
    NonRealPotential,
    NotPureVector,
    PoleError,
    ZeroCrossing,
    ZeroDivisor,
)
from riccati3d.fields import Point3, QuaternionField, ScalarField
from riccati3d.riccati import SchrodingerInstance, cole_hopf, w_equation_residual
from riccati3d.solutions import (
    ConicalParams,
    RotationalParams,
    catalog_entry,
    conical,
    conical_riccati,
    rotational,
    rotational_riccati,
)
from riccati3d.symmetry import (
    GroupElement,
    determining_residual,
    group_act,
    invariant_potential,
    pushforward_solution,
    single_parameter,
)


def _batch(*pts) -> Point3:
    return Point3(*(np.array(c, dtype=float) for c in zip(*pts)))


ROT = RotationalParams(k=1.0, c=0.5 * math.log(2.0))  # singular cylinder rho^2 = 2
CON = ConicalParams(C1=2.0, C2=math.e)
CON_1 = ConicalParams(C1=2.0, C2=1.0)  # log surface rho^2 = r^4
OK = (0.5, 0.3, 0.2)
F = lambda a, b: 1.0 + a * a + b  # noqa: E731
VALUES = np.ones((3, 4))
PSI_X = SchrodingerInstance(ScalarField(lambda p: p.x, vectorized=True),
                            ScalarField(lambda p: 0.0 * p.x, vectorized=True))
# a scalar part wherever z != 0
W_SCALAR = QuaternionField(lambda p: [p.z, p.y, 1.0 + 0.0 * p.x, p.x], vectorized=True)
PHI = ScalarField(lambda p: 2.0 + p.x * p.x, vectorized=True)
# an imaginary part wherever z != 0
Q_COMPLEX = ScalarField(lambda p: 1.0 + p.x * p.x + 1e-3j * p.z, vectorized=True)
# i + e1 is a zero divisor, and so is 0
ZERO_DIVISORS = (np.array([1.0, 1j, 2.0, 0.0]), np.array([0.5, 1.0, 0.0, 0.0]),
                 np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 0.0]))

# (id, call raising at points 1 and 3 of a batch of four, error type, message)
CASES = [
    ("rotational-Q-z-axis",
     lambda: rotational_riccati(ROT).Q.batch(_batch(OK, (0, 0, 1), OK, (0, 0, -3))),
     DomainError, "rotational solution singular on the z-axis"),
    ("rotational-Q-rho",
     lambda: rotational_riccati(ROT).Q.batch(_batch(OK, (1, 1, 0), OK, (-1, 1, 5))),
     DomainError, "rotational solution singular at rho = 1.4142135623730951"),
    ("rotational-q-z-axis",
     lambda: rotational_riccati(ROT).q.batch(_batch(OK, (0, 0, 1), OK, (0, 0, 0))),
     DomainError, "potential singular on the z-axis"),
    ("rotational-psi-z-axis",
     lambda: rotational(ROT)[1].batch(_batch(OK, (0, 0, 2), OK, (0, 0, 0))),
     DomainError, "psi singular on the z-axis"),
    ("conical-Q-z-axis",
     lambda: conical_riccati(CON).Q.batch(_batch(OK, (0, 0, 2), OK, (0, 0, 0))),
     DomainError, "conical solution singular on the z-axis"),
    ("conical-Q-log-surface",
     lambda: conical_riccati(CON_1).Q.batch(_batch(OK, (1, 0, 0), OK, (0, -1, 0))),
     DomainError, "conical solution singular on the log surface"),
    ("conical-q-origin",
     lambda: conical_riccati(CON).q.batch(_batch(OK, (0, 0, 0), OK, (0, 0, 0))),
     DomainError, "potential singular at the origin"),
    ("conical-psi-z-axis",
     lambda: conical(CON)[1].batch(_batch(OK, (0, 0, -1), OK, (0, 0, 0))),
     DomainError, "psi singular on the z-axis"),
    ("invariant-potential-k=7",
     lambda: invariant_potential(7, F).batch(_batch(OK, (1e-7, 1, 2), OK, (-0.0, 3, 1))),
     DomainError, "dilation potential singular at x = 1e-07"),
    ("invariant-potential-k=8-10",
     lambda: invariant_potential(9, F).batch(_batch(OK, (0, 5e-7, 0), OK, (0, 0, 0))),
     DomainError, "conical potential singular at r = 5e-07"),
    ("symmetry._real",
     lambda: determining_residual(single_parameter(1), Q_COMPLEX,
                                  _batch((0.5, 0.3, 0), (1, 2, 0.5), (0.2, 0.1, 0), (1, 2, -1))),
     NonRealPotential, "q has imaginary part 0.0005 at Point3(x=1.0, y=2.0, z=0.5)"),
    ("symmetry._check_finite",
     lambda: group_act(GroupElement(7, 1.0), _batch(OK, (1e308, 0, 0), OK, (0, -1e308, 1)),
                       VALUES),
     DomainError, "image of Point3(x=1e+308, y=0.0, z=0.0) under G_7, lambda=1.0, "
                  "is not finite"),
    ("group_act-pole",
     lambda: group_act(GroupElement(8, 1.0), _batch(OK, (1, 0, 0), OK, (1, 0, 0)), VALUES),
     PoleError, "1 - x*lambda vanished for G_8 at Point3(x=1.0, y=0.0, z=0.0), lambda=1.0"),
    ("symmetry._preimage",
     lambda: pushforward_solution(GroupElement(8, 1.0), catalog_entry("harmonic:x").instance.Q)
     .batch(_batch(OK, (-1, 0, 0), OK, (-1, 0, 0))),
     PoleError, "pre-image undefined at Point3(x=-1.0, y=0.0, z=0.0), lambda=1.0"),
    ("riccati._nonzero",
     lambda: cole_hopf(PSI_X).Q.batch(_batch(OK, (1e-11, 1, 0), OK, (0, 2, 1))),
     ZeroCrossing, "psi = (1e-11+0j) is below the zero guard 1e-10"),
    ("w_equation_residual-scalar-part",
     lambda: w_equation_residual(W_SCALAR, PHI,
                                 _batch((0.5, 0.3, 0), (1, 2, 0.5), (0.2, 0.1, 0), (1, 2, -1))),
     NotPureVector, "w has scalar part (0.5+0j) at Point3(x=1.0, y=2.0, z=0.5)"),
    ("biquat._inverse", lambda: _inverse(ZERO_DIVISORS),
     ZeroDivisor, "biquaternion has (near-)zero modulus |a|^2 = 0j"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_guard_names_its_first_failing_point_and_every_one(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.index == 1
    assert info.value.where.tolist() == [False, True, False, True]
