"""riccati3d: numerical toolkit for the biquaternionic Riccati equation
D Q + |Q|^2 = q and its Schrodinger companion (-Delta + q) psi = 0.

Modules: biquat (the H(C) algebra), fields (differential and integral
operators on R^3), riccati (transforms and identities), symmetry (Lie point
symmetry groups), solutions (closed-form catalog), riccati1d (the classical
1-D oracle), verify (check suites), cli (command-line harness).
"""

from .biquat import Biquaternion, conj_h, inverse, modulus_sq, mul, right_mul
from .fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
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
from .riccati import (
    RiccatiInstance,
    SchrodingerInstance,
    cole_hopf,
    inverse_cole_hopf,
    factorization_residual,
    riccati_residual,
    schrodinger_residual,
)
from .report import RunConfig, VerificationReport
from .solutions import (
    ConicalParams,
    RotationalParams,
    catalog_entry,
    conical,
    harmonic_family,
    harmonic_seed,
    rotational,
)
from .symmetry import GroupElement, group_act, pushforward_solution, transport_solution
from .verify import run_suite

__version__ = "0.1.0"
