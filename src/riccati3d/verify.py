"""Verification suites: every identity of the library checked numerically.

Each suite returns its registry of (name, tolerance, check) triples, which
mirror the acceptance criteria of the package; ``run_suite`` runs them into
a VerificationReport.  Sample points come from a Halton sequence (seeded
by an index offset) with rejection of excluded points, so failing runs are
reproducible point-by-point from the config echo.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .biquat import Biquaternion, conj_h, inverse, modulus_sq, mul, right_mul, max_component_diff
from .errors import ConfigError, ZeroDivisor
from .fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
    dirac_left,
    dirac_right,
    grad,
    laplacian,
    operator_A,
    operator_B,
    vec3,
)
from .report import CheckResult, RunConfig, VerificationReport, merge_reports
from .riccati import (
    RiccatiInstance,
    SchrodingerInstance,
    build_W_from_W0,
    build_W0_from_W,
    build_W_prop2,
    cole_hopf,
    euler_residual,
    factorization_residual,
    inverse_cole_hopf,
    picard_lhs,
    q_from_scw,
    riccati_residual,
    schrodinger_residual,
    vekua_residual,
    w_equation_residual,
    w_from_q_pair,
    component_residuals,
)
from . import riccati1d as r1d
from .solutions import (
    CatalogEntry,
    RotationalParams,
    acceptance_catalog,
    catalog_entry,
    radial_linear,
    reduced_radial,
    rotational_riccati,
)
from .symmetry import (
    GroupElement,
    determining_residual,
    group_act,
    invariant_potential,
    pushforward_solution,
    rotation_matrix,
    single_parameter,
    transport_solution,
    vhat_apply,
)

SUITES = ("algebra", "operators", "riccati", "euler_picard", "symmetry",
          "solutions", "oned")

_DETECTION_SUFFIX = "_detection"


# --------------------------------------------------------------------------
# sampling helpers

def _halton(index: int, base: int) -> float:
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


def halton_points(box: Tuple[Point3, Point3], n: int, seed: int = 0,
                  excluded: Optional[Callable[[Point3], bool]] = None,
                  max_tries: int = 100000) -> List[Point3]:
    """n quasi-random points of the box, skipping the excluded set.

    Each seed starts the sequence at its own index; a negative seed would
    start below 0, where every point is the box's lower corner.
    """
    if seed < 0:
        raise ValueError(f"halton_points: seed must be >= 0, got {seed}")
    lo, hi = Point3(*box[0]), Point3(*box[1])
    pts: List[Point3] = []
    idx = 17 + 7919 * seed
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > max_tries:
            raise ConfigError(f"could not draw {n} points from {box}; "
                              f"excluded set too large")
        p = Point3(lo.x + (hi.x - lo.x) * _halton(idx, 2),
                   lo.y + (hi.y - lo.y) * _halton(idx, 3),
                   lo.z + (hi.z - lo.z) * _halton(idx, 5))
        idx += 1
        if excluded is not None and excluded(p):
            continue
        pts.append(p)
    return pts


def entry_points(entry: CatalogEntry, n: int, seed: int = 0) -> List[Point3]:
    dom = entry.instance.Q.domain
    return halton_points(entry.sample_box, n, seed, excluded=lambda p: not dom.ok(p))


_Checks = List[Tuple[str, float, Callable[[], Tuple[float, int]]]]


def _run_checks(checks: _Checks, config: RunConfig, suite: str) -> VerificationReport:
    """Execute (name, default_tol, fn) triples serially, in registry order.

    Checks of one suite share a random generator and memoized builds, so the
    fixed order is what makes a report a function of (config, seed).
    """

    def run_one(name, default_tol, fn):
        tol = config.tolerance(name, default_tol)
        start = time.perf_counter()
        resid, samples = fn()
        seconds = time.perf_counter() - start
        if name.endswith(_DETECTION_SUFFIX):
            passed = resid >= tol
        else:
            passed = resid <= tol
        return CheckResult(name, float(resid), tol, samples, bool(passed), seconds)

    results = [run_one(*item) for item in checks]
    return VerificationReport(results, config.as_dict(), suite)


def _scheme(config: RunConfig) -> DiffScheme:
    return DiffScheme(h=config.h, order=config.order)


def _quad(config: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(line_rule=config.line_rule, line_tol=config.line_tol,
                          gauss_order=config.gauss_order,
                          volume_grid=config.volume_grid)


def _quad_gauss(config: RunConfig) -> QuadratureSpec:
    """Fixed Gauss rule for an A that a finite-difference stencil differences:
    its error is smooth in the end point, where adaptive Simpson's error
    jumps with the subdivision pattern between neighbouring stencil points."""
    return QuadratureSpec(line_rule="gauss", gauss_order=config.gauss_order,
                          volume_grid=config.volume_grid)


def _rng(config: RunConfig, salt: int = 0):
    return np.random.default_rng(1000003 * (config.seed + 1) + salt)


def _rel_diff(a: Biquaternion, b: Biquaternion) -> float:
    scale = max(1.0, a.max_abs(), b.max_abs())
    return max_component_diff(a, b) / scale


def _random_biq(rng) -> Biquaternion:
    c = rng.uniform(-1, 1, 8)
    return Biquaternion(complex(c[0], c[1]), complex(c[2], c[3]),
                        complex(c[4], c[5]), complex(c[6], c[7]))


# --------------------------------------------------------------------------
# algebra suite

_EPSILON = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def _basis_product_oracle(a: Biquaternion, b: Biquaternion) -> Biquaternion:
    """Brute-force product through the 16-term basis table."""
    coeffs = [0j, 0j, 0j, 0j]
    ac, bc = a.components, b.components
    for i in range(4):
        for j in range(4):
            w = ac[i] * bc[j]
            if w == 0:
                continue
            if i == 0:
                coeffs[j] += w
            elif j == 0:
                coeffs[i] += w
            elif i == j:
                coeffs[0] -= w
            else:
                if (i, j) in _EPSILON:
                    coeffs[_EPSILON[(i, j)]] += w
                else:
                    coeffs[_EPSILON[(j, i)]] -= w
    return Biquaternion(*coeffs)


def suite_algebra(config: RunConfig) -> _Checks:
    rng = _rng(config, 1)
    basis = [Biquaternion(1), Biquaternion(0, 1), Biquaternion(0, 0, 1),
             Biquaternion(0, 0, 0, 1)]

    def basis_table():
        worst = 0.0
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                expect = Biquaternion(-1.0) if p == q else (
                    basis[_EPSILON[(p, q)]] if (p, q) in _EPSILON
                    else -basis[_EPSILON[(q, p)]])
                worst = max(worst, max_component_diff(mul(basis[p], basis[q]), expect))
        # e0 commutes and acts as identity
        for k in range(4):
            worst = max(worst, max_component_diff(mul(basis[0], basis[k]), basis[k]))
            worst = max(worst, max_component_diff(mul(basis[k], basis[0]), basis[k]))
        return worst, 17

    def product_vs_oracle():
        worst = 0.0
        for _ in range(500):
            a, b = _random_biq(rng), _random_biq(rng)
            worst = max(worst, _rel_diff(mul(a, b), _basis_product_oracle(a, b)))
        return worst, 500

    def associativity():
        worst = 0.0
        for _ in range(1000):
            a, b, c = (_random_biq(rng) for _ in range(3))
            worst = max(worst, _rel_diff(mul(mul(a, b), c), mul(a, mul(b, c))))
        return worst, 1000

    def distributivity():
        worst = 0.0
        for _ in range(1000):
            a, b, c = (_random_biq(rng) for _ in range(3))
            worst = max(worst, _rel_diff(mul(a, b + c), mul(a, b) + mul(a, c)))
        return worst, 1000

    def conj_antihom():
        worst = 0.0
        for _ in range(1000):
            a, b = _random_biq(rng), _random_biq(rng)
            worst = max(worst, _rel_diff(conj_h(mul(a, b)), mul(conj_h(b), conj_h(a))))
        return worst, 1000

    def modulus_multiplicative():
        worst = 0.0
        for _ in range(1000):
            a, b = _random_biq(rng), _random_biq(rng)
            lhs = modulus_sq(mul(a, b))
            rhs = modulus_sq(a) * modulus_sq(b)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        return worst, 1000

    def complex_unit_central():
        worst = 0.0
        for _ in range(1000):
            a, b = _random_biq(rng), _random_biq(rng)
            worst = max(worst, _rel_diff(mul(1j * a, b), 1j * mul(a, b)))
            worst = max(worst, _rel_diff(mul(a, 1j * b), 1j * mul(a, b)))
        return worst, 1000

    def inverse_roundtrip():
        one = Biquaternion(1)
        worst = 0.0
        count = 0
        while count < 200:
            a = _random_biq(rng)
            try:
                ai = inverse(a)
            except ZeroDivisor:
                continue
            count += 1
            worst = max(worst, max_component_diff(mul(a, ai), one),
                        max_component_diff(mul(ai, a), one))
        # the classic zero divisor must be rejected
        try:
            inverse(Biquaternion(1j, 1))
            worst = max(worst, 1.0)
        except ZeroDivisor:
            pass
        return worst, 200

    def right_mul_witness():
        m = right_mul(basis[1])
        worst = max_component_diff(m(basis[2]), -basis[3])      # e2 e1 = -e3
        worst = max(worst, max_component_diff(mul(basis[1], basis[2]), basis[3]))
        worst = max(worst, max_component_diff(m(_random_biq(rng) * 0 + basis[0]), basis[1]))
        return worst, 3

    checks = [
        ("basis_table", 0.0, basis_table),
        ("product_vs_basis_oracle", 1e-14, product_vs_oracle),
        ("associativity", 1e-12, associativity),
        ("distributivity", 1e-12, distributivity),
        ("conjugation_antihomomorphism", 1e-12, conj_antihom),
        ("modulus_multiplicative", 1e-12, modulus_multiplicative),
        ("complex_unit_central", 1e-12, complex_unit_central),
        ("inverse_roundtrip", 1e-12, inverse_roundtrip),
        ("right_mul_witness", 1e-15, right_mul_witness),
    ]
    return checks


# --------------------------------------------------------------------------
# operator suite

def _random_poly3(rng) -> Callable[[Point3], complex]:
    monos = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)
             if a + b + c <= 3]
    coef = {m: complex(*rng.uniform(-0.6, 0.6, 2)) for m in monos}

    def f(p: Point3) -> complex:
        X, Y, Z = ([t ** e for e in range(4)] for t in p)
        return sum(w * X[a] * Y[b] * Z[c] for (a, b, c), w in coef.items())
    return f


def _random_quat_poly(rng) -> QuaternionField:
    parts = [_random_poly3(rng) for _ in range(4)]
    return QuaternionField(lambda p: Biquaternion(*(g(p) for g in parts)))


def suite_operators(config: RunConfig) -> _Checks:
    rng = _rng(config, 2)
    scheme = _scheme(config)
    quad = _quad(config)
    box = (Point3(-1.2, -1.2, -1.2), Point3(1.2, 1.2, 1.2))

    def dirac_square():
        fields = [ScalarField(_random_poly3(rng)) for _ in range(4)]
        fields.append(ScalarField(lambda p: complex(math.sin(p.x) * math.exp(p.y))))
        fields.append(ScalarField(lambda p: complex(math.exp(0.5 * p.x) * math.cos(0.4 * p.z))))
        pts = halton_points(box, 100, config.seed)
        worst = 0.0
        for i, p in enumerate(pts):
            f = fields[i % len(fields)]
            Df = QuaternionField(lambda t, f=f: Biquaternion.from_vector(grad(f, t, scheme)))
            lhs = dirac_left(Df, p, scheme)
            rhs = Biquaternion(-laplacian(f, p, scheme))
            worst = max(worst, max_component_diff(lhs, rhs))
        return worst, len(pts)

    def leibniz():
        from .fields import _d1, _stencil  # the central-difference core
        pts = halton_points(box, 60, config.seed)
        worst = 0.0
        pairs = [(_random_quat_poly(rng), _random_quat_poly(rng)) for _ in range(6)]
        for i, p in enumerate(pts):
            phi, psi = pairs[i % len(pairs)]
            prod = QuaternionField(lambda t, a=phi, b=psi: mul(a(t), b(t)))
            lhs = dirac_left(prod, p, scheme)
            rhs = mul(dirac_left(phi, p, scheme), psi(p))
            rhs = rhs + mul(conj_h(phi(p)), dirac_left(psi, p, scheme))
            for v, s in zip(phi(p).vector, _stencil(psi.domain, p, scheme)):
                rhs = rhs - 2.0 * v * _d1(psi, *s)
            worst = max(worst, max_component_diff(lhs, rhs))
        return worst, len(pts)

    def leibniz_scalar():
        pts = halton_points(box, 30, config.seed + 1)
        worst = 0.0
        for i, p in enumerate(pts):
            f0 = _random_poly3(rng)
            psi = _random_quat_poly(rng)
            phi0 = ScalarField(f0)
            prod = QuaternionField(lambda t: f0(t) * psi(t))
            lhs = dirac_left(prod, p, scheme)
            rhs = (mul(Biquaternion.from_vector(grad(phi0, p, scheme)), psi(p))
                   + f0(p) * dirac_left(psi, p, scheme))
            worst = max(worst, max_component_diff(lhs, rhs))
        return worst, len(pts)

    def conj_intertwine():
        pts = halton_points(box, 50, config.seed + 2)
        worst = 0.0
        fields = [_random_quat_poly(rng) for _ in range(5)]
        for i, p in enumerate(pts):
            phi = fields[i % len(fields)]
            conj_phi = QuaternionField(lambda t, f=phi: conj_h(f(t)))
            lhs = conj_h(dirac_left(phi, p, scheme))
            rhs = -dirac_right(conj_phi, p, scheme)
            worst = max(worst, max_component_diff(lhs, rhs))
        return worst, len(pts)

    def A_reconstruction():
        cases = [
            (VectorField(lambda p: np.array([p.y * p.z, p.x * p.z, p.x * p.y], complex)),
             lambda p: p.x * p.y * p.z),
            (VectorField(lambda p: np.array([2 * p.x, 2 * p.y, 0], complex)),
             lambda p: p.x * p.x + p.y * p.y),
        ]
        P = _as_batch(halton_points(box, 20, config.seed + 3))
        worst = 0.0
        for F, f in cases:
            d = operator_A(F, Point3(0, 0, 0), 0j, quad).batch(P) - f(P)
            # np.hypot rounds as abs() of one complex does; np.abs may not
            worst = max(worst, float(np.max(np.hypot(d.real, d.imag))))
        return worst, 2 * P.x.size

    def A_right_inverse():
        F = VectorField(lambda p: np.array(
            [p.y * p.z + 2 * p.x, p.x * p.z, p.x * p.y], complex))
        A = operator_A(F, Point3(0, 0, 0), 0j, quad)
        P = _as_batch(halton_points(box, 10, config.seed + 4))
        return float(np.max(np.abs(grad(A, P, scheme) - F.batch(P)))), P.x.size

    def B_ball():
        region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
        chi = VectorField(lambda p: vec3(
            np.where(p.x * p.x + p.y * p.y + p.z * p.z <= 1.0, 1.0, 0.0), 0.0, 0.0),
            vectorized=True)
        B = operator_B(chi, region, quad)
        center = B(Point3(0, 0, 0))[0]
        outside = B(Point3(2, 0, 0))[0]
        rel_center = abs(center - 0.5) / 0.5
        rel_out = abs(outside - 1.0 / 6.0) * 6.0
        return max(rel_center, rel_out), 2

    checks = [
        ("dirac_square_is_neg_laplacian", 1e-6, dirac_square),
        ("quaternionic_leibniz", 1e-6, leibniz),
        ("scalar_leibniz", 1e-6, leibniz_scalar),
        ("conjugation_intertwines_dirac", 1e-6, conj_intertwine),
        ("A_reconstructs_potential", 1e-9, A_reconstruction),
        ("A_right_inverse_of_grad", 1e-6, A_right_inverse),
        ("B_uniform_ball_potential", 2e-2, B_ball),
    ]
    return checks


# --------------------------------------------------------------------------
# solutions suite

def _as_batch(pts: Sequence[Point3]) -> Point3:
    """One Point3 of coordinate arrays holding the points pts, in order."""
    return Point3(*(np.array(c, dtype=float) for c in zip(*pts)))


def _max_riccati_residual(inst: RiccatiInstance, pts: Sequence[Point3],
                          scheme: DiffScheme) -> float:
    """The largest |defect| of ``riccati_residual`` over pts, in one batch."""
    sc, vec = riccati_residual(inst, _as_batch(pts), scheme)
    return max(0.0, float(np.max(np.abs(sc))), float(np.max(np.abs(vec))))


def suite_solutions(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    entries = acceptance_catalog(config.margin)
    checks = []

    def riccati_check(entry):
        def fn():
            pts = entry_points(entry, config.samples, config.seed)
            return _max_riccati_residual(entry.instance, pts, scheme), len(pts)
        return fn

    def schrodinger_check(entry):
        def fn():
            P = _as_batch(entry_points(entry, config.samples, config.seed))
            r = schrodinger_residual(entry.schrodinger(), P, scheme)
            return float(np.max(np.hypot(r.real, r.imag))), P.x.size
        return fn

    for entry in entries:
        tag = entry.name.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
        checks.append((f"riccati_{tag}", 1e-6, riccati_check(entry)))
        if entry.psi is not None:
            checks.append((f"schrodinger_{tag}", 1e-5, schrodinger_check(entry)))

    def spot_values():
        rot = catalog_entry("rotational", config.margin, k=1, c=0).instance
        con = catalog_entry("conical", config.margin, C1=0, C2=math.e).instance
        worst = float(np.max(np.abs(rot.Q(Point3(2, 0, 5))
                                    - np.array([-5.0 / 6.0, 0, 0]))))
        worst = max(worst, float(np.max(np.abs(con.Q(Point3(1, 0, 0))
                                               - np.array([3.0, 0, 0])))))
        return worst, 2

    def blowup_witness():
        # approaching each singular set within 1e-3 must blow Q up
        rot = catalog_entry("rotational", config.margin, k=1, c=0).instance
        smallest = float(np.max(np.abs(rot.Q(Point3(1.0 + 1e-3, 0, 0.3)))))
        con = catalog_entry("conical", config.margin, C1=0, C2=math.e).instance
        # point just off the log surface e*(x^2+y^2) = r^4 at rho = 1
        zs = math.sqrt(math.sqrt(math.e) - 1.0)
        pt = Point3(1.0, 0.0, zs + 5e-4)
        smallest = min(smallest, float(np.max(np.abs(con.Q(pt)))))
        return smallest, 2

    checks.append(("spot_values", 1e-12, spot_values))
    checks.append(("blowup_witness_detection", 1e2, blowup_witness))
    return checks


# --------------------------------------------------------------------------
# riccati suite (transforms + factorization)

def suite_riccati(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    quad = _quad(config)
    quad_gauss = _quad_gauss(config)
    rng = _rng(config, 3)
    entries = acceptance_catalog(config.margin)
    with_psi = [e for e in entries if e.psi is not None]

    def cole_hopf_match():
        worst, total = 0.0, 0
        for entry in with_psi:
            P = _as_batch(entry_points(entry, 50, config.seed))
            derived = cole_hopf(entry.schrodinger(), scheme)
            worst = max(worst, float(np.max(np.abs(
                derived.Q.batch(P) - entry.instance.Q.batch(P)))))
            total += P.x.size
        return worst, total

    def inverse_match():
        worst, total = 0.0, 0
        for entry in with_psi:
            P = _as_batch(entry_points(entry, 50, config.seed + 1))
            sch = inverse_cole_hopf(entry.instance, entry.base, 0j, quad,
                                    curl_check=False)
            ref0 = entry.psi(entry.base)
            num0 = sch.psi(entry.base)
            # Python's complex division, which rounds unlike numpy's
            for num, ref in zip(sch.psi.batch(P).tolist(), entry.psi.batch(P).tolist()):
                worst = max(worst, abs(num / num0 - ref / ref0))
            total += P.x.size
        return worst, total

    def roundtrip():
        worst, total = 0.0, 0
        for entry in entries:
            P = _as_batch(entry_points(entry, 12, config.seed + 2))
            sch = inverse_cole_hopf(entry.instance, entry.base, 0j, quad_gauss,
                                    curl_check=False)
            back = cole_hopf(sch, scheme)
            worst = max(worst, float(np.max(np.abs(
                back.Q.batch(P) - entry.instance.Q.batch(P)))))
            total += P.x.size
        return worst, total

    def _random_probe():
        a, b, c = rng.uniform(-0.4, 0.4, 3)
        return ScalarField(lambda p: complex(math.exp(a * p.x + b * p.y + c * p.z)))

    def factorization_solutions():
        worst = 0.0
        total = 0
        for entry in (catalog_entry("rotational", config.margin, k=1, c=0.5 * math.log(2)),
                      catalog_entry("conical", config.margin, C1=2.0, C2=math.e)):
            pts = entry_points(entry, 10, config.seed + 3)
            for _ in range(10):
                probe = _random_probe()
                p = pts[total % len(pts)]
                left, right = factorization_residual(probe, entry.instance, p, scheme)
                worst = max(worst, left.max_abs(), right.max_abs())
                total += 1
        return worst, total

    def factorization_detect():
        # Q = (x,0,0) with q = -1 has the defect x^2 >= 0.64 on the sample box
        # (q = 0 would solve the equation exactly on the plane x = 1)
        bad = RiccatiInstance(
            VectorField(lambda p: np.array([p.x, 0, 0], complex)),
            ScalarField(lambda p: -1 + 0j))
        smallest = math.inf
        for p in halton_points((Point3(0.8, 0.2, 0.1), Point3(1.6, 1.0, 0.9)),
                               5, config.seed):
            probe = _random_probe()
            left, right = factorization_residual(probe, bad, p, scheme)
            smallest = min(smallest, max(left.max_abs(), right.max_abs()))
        return smallest, 5

    def prop1_closed_chain():
        phi = ScalarField(lambda p: complex(math.exp(p.x)))
        W = QuaternionField(lambda p: Biquaternion(math.exp(p.x), 0.0,
                                                   math.exp(-p.x), 0.0))
        one_q = ScalarField(lambda p: 1.0 + 0j)
        pts = halton_points((Point3(-0.6, -0.6, -0.6), Point3(0.6, 0.6, 0.6)),
                            15, config.seed)
        worst = 0.0
        W0 = ScalarField(lambda p: complex(math.exp(p.x)))
        Wv = VectorField(lambda p: np.array([0.0, math.exp(-p.x), 0.0], complex))
        for p in pts:
            worst = max(worst, vekua_residual(W, phi, p, scheme).max_abs())
            worst = max(worst, abs(schrodinger_residual(
                SchrodingerInstance(W0, one_q), p, scheme)))
            c1, c2 = component_residuals(W0, Wv, phi, p, scheme)
            worst = max(worst, abs(c1), float(np.max(np.abs(c2))))
        return worst, len(pts)

    def w_equation_example():
        phi = ScalarField(lambda p: complex(math.exp(p.x)))
        w = VectorField(lambda p: np.array([0.0, math.exp(p.x), 0.0], complex))
        pts = halton_points((Point3(-0.6, -0.6, -0.6), Point3(0.6, 0.6, 0.6)),
                            10, config.seed + 1)
        worst = max(w_equation_residual(w, phi, p, scheme).max_abs() for p in pts)
        return worst, len(pts)

    def prop2_closed_parts():
        tube = BoxDomain.box((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
        one = ScalarField(lambda p: 1.0 + 0j, vectorized=True)
        zero_q = ScalarField(lambda p: 0j, vectorized=True)
        w = VectorField(lambda p: vec3(1.0, 0.0, 0.0), vectorized=True)
        nb = config.build_grid
        _, W0, Q = build_W_prop2(w, one, None, Point3(0, 0, 0), tube, quad,
                                 scheme, cells=(5 * nb, nb, nb))
        pts = [Point3(3.6, -0.1, 0.08), Point3(4.0, 0.12, -0.05), Point3(4.4, 0.0, 0.1)]
        r = schrodinger_residual(SchrodingerInstance(W0, zero_q), _as_batch(pts), scheme)
        worst = max(float(np.max(np.hypot(r.real, r.imag))),
                    _max_riccati_residual(RiccatiInstance(Q, zero_q), pts, scheme))
        return worst, len(pts)

    checks = [
        ("cole_hopf_matches_catalog", 1e-6, cole_hopf_match),
        ("inverse_cole_hopf_matches_psi", 1e-6, inverse_match),
        ("transform_roundtrip_Q", 1e-6, roundtrip),
        ("factorization_on_solutions", 1e-5, factorization_solutions),
        ("factorization_nonsolution_detection", 1e-2, factorization_detect),
        ("prop1_closed_form_chain", 1e-5, prop1_closed_chain),
        ("w_equation_example", 1e-10, w_equation_example),
        ("prop2_scalar_and_riccati_parts", 1e-6, prop2_closed_parts),
    ]
    return checks


# --------------------------------------------------------------------------
# euler / picard suite

def suite_euler_picard(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    quad = _quad(config)
    quad_gauss = _quad_gauss(config)
    seeds = ["x", "y", "z", "x+y+z"]
    quads = [catalog_entry(f"harmonic:{s}", config.margin).instance for s in seeds]
    Qs = [inst.Q for inst in quads]
    pic_box = (Point3(0.55, 0.35, 0.45), Point3(1.9, 1.4, 1.5))

    tube = BoxDomain.box((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
    tube_pts = [Point3(3.6, -0.1, 0.08), Point3(4.0, 0.12, -0.05),
                Point3(4.4, 0.0, 0.1)]
    zero_q = ScalarField(lambda p: 0j)
    one = ScalarField(lambda p: 1.0 + 0j, vectorized=True)
    nb = config.build_grid
    cells = (5 * nb, nb, nb)

    inv_x = RiccatiInstance(
        VectorField(lambda p: vec3(-1.0 / p.x, 0, 0),
                    BoxDomain.box((0.05, -5, -5), (50, 5, 5)), vectorized=True), zero_q)
    zero_inst = RiccatiInstance(
        VectorField(lambda p: np.zeros(3, complex), vectorized=True), zero_q)

    def picard_identity():
        pts = halton_points(pic_box, 20, config.seed)
        worst = max(picard_lhs(*Qs, p, scheme).max_abs() for p in pts)
        return worst, len(pts)

    def picard_crossterm():
        pts = halton_points(pic_box, 20, config.seed)
        smallest = min(picard_lhs(*Qs, p, scheme,
                                  include_cross_terms=False).max_abs()
                       for p in pts)
        return smallest, len(pts)

    def picard_pairwise():
        pts = halton_points(pic_box, 5, config.seed + 1)
        worst = max(picard_lhs(Qs[0], Qs[1], Qs[0], Qs[1], p, scheme).max_abs()
                    for p in pts)
        return worst, len(pts)

    state: dict = {}

    def _shared(key: str, builder):
        if key not in state:
            state[key] = builder()
        return state[key]

    def get_W():
        return _shared("W", lambda: w_from_q_pair(
            inv_x, zero_inst, None, Point3(1, 0, 0), tube, quad_gauss, scheme,
            check_points=[Point3(3.0, 0.2, 0.1)], cells=cells))

    def get_W_from_W0():
        W0 = ScalarField(lambda p: p.x + 0j, vectorized=True)
        return _shared("Wb", lambda: build_W_from_W0(
            W0, one, None, tube, quad, scheme, cells=cells))

    def wconst_scalar_exact():
        A = operator_A(inv_x.Q, Point3(1, 0, 0), 0j, quad_gauss)
        worst = 0.0
        W1 = get_W()
        W2 = w_from_q_pair(inv_x, zero_inst, None, Point3(1, 0, 0), tube,
                           quad_gauss, scheme,
                           cells=(40, 8, 8))  # volume-resolution independence
        for p in tube_pts:
            expect = np.exp(-complex(A(p)))
            worst = max(worst, abs(W1(p).scalar - expect), abs(W2(p).scalar - expect))
        return worst, 2 * len(tube_pts)

    def q_recovery():
        rec = q_from_scw(get_W(), scheme)
        worst = max(float(np.max(np.abs(rec(p) - inv_x.Q(p)))) for p in tube_pts)
        return worst, len(tube_pts)

    def euler_built():
        W = get_W()
        worst = max(euler_residual(W, zero_inst.Q, p, scheme).max_abs()
                    for p in tube_pts)
        return worst, len(tube_pts)

    def vekua_built():
        W = get_W_from_W0()
        worst = max(vekua_residual(W, one, p, scheme).max_abs() for p in tube_pts)
        return worst, len(tube_pts)

    def prop3_roundtrip():
        W = get_W_from_W0()
        Wv = VectorField(lambda p: W(p).vector)
        rec = build_W0_from_W(Wv, one, Point3(4.0, 0.0, 0.0), quad_gauss, scheme)
        shift = rec(Point3(4.0, 0.0, 0.0)) - 4.0
        worst = max(abs(rec(p) - p.x - shift) / max(1.0, abs(p.x))
                    for p in tube_pts)
        return worst, len(tube_pts)

    def mismatch_detection():
        other = catalog_entry("rotational", config.margin, k=1, c=0).instance
        try:
            w_from_q_pair(inv_x, other, None, Point3(1, 0, 0), tube, quad_gauss,
                          scheme, check_points=[Point3(3.0, 0.2, 0.1)])
            return 0.0, 1
        except ValueError:
            return 1.0, 1

    checks = [
        ("picard_identity", 1e-6, picard_identity),
        ("picard_crossterms_matter_detection", 1e-2, picard_crossterm),
        ("picard_pairwise_cancellation", 1e-14, picard_pairwise),
        ("wconst_scalar_part_exact", 1e-10, wconst_scalar_exact),
        ("q_from_scw_recovers_Q", 1e-6, q_recovery),
        ("euler_residual_built_W", 5e-2, euler_built),
        ("vekua_residual_built_W", 5e-2, vekua_built),
        ("prop3_roundtrip", 5e-2, prop3_roundtrip),
        ("same_potential_precondition_detection", 0.5, mismatch_detection),
    ]
    return checks


# --------------------------------------------------------------------------
# symmetry suite

_TABLE_F = {
    1: lambda a, b: a * a + b,
    2: lambda a, b: a * b + 1.0,
    3: lambda a, b: a * a + b * b,
    4: lambda a, b: a + b * b,
    5: lambda a, b: a * b,
    6: lambda a, b: a + 1.0 / (b * b),
    7: lambda a, b: 1.0,
    8: lambda a, b: a * b,
    9: lambda a, b: a + b * b,
    10: lambda a, b: a * a + 0.3 * b,
}


def suite_symmetry(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    rng = _rng(config, 4)
    box = (Point3(0.55, 0.35, 0.45), Point3(1.6, 1.3, 1.4))

    def determining_table():
        pts = halton_points(box, 5, config.seed)
        worst = 0.0
        for k in range(1, 11):
            q = invariant_potential(k, _TABLE_F[k])
            for p in pts:
                worst = max(worst, abs(determining_residual(
                    single_parameter(k), q, p, scheme)))
        return worst, 10 * len(pts)

    def identity():
        worst = 0.0
        pts = halton_points(box, 10, config.seed + 1)
        for k in range(1, 11):
            for p in pts:
                Qv = rng.uniform(-1, 1, 3)
                p2, Q2 = group_act(GroupElement(k, 0.0), p, Qv)
                worst = max(worst, float(np.max(np.abs(np.asarray(p2) - np.asarray(p)))),
                            float(np.max(np.abs(Q2 - Qv))))
        return worst, 100

    def composition_affine():
        worst = 0.0
        for k in range(1, 8):
            for _ in range(50):
                p = Point3(*rng.uniform(-1.2, 1.2, 3))
                Qv = rng.uniform(-1, 1, 3)
                l1, l2 = rng.uniform(-0.5, 0.5, 2)
                pa, Qa = group_act(GroupElement(k, l1), p, Qv)
                pb, Qb = group_act(GroupElement(k, l2), pa, Qa)
                pc, Qc = group_act(GroupElement(k, l1 + l2), p, Qv)
                worst = max(worst, float(np.max(np.abs(np.asarray(pb) - np.asarray(pc)))),
                            float(np.max(np.abs(Qb - Qc))))
        return worst, 350

    def composition_conical():
        worst = 0.0
        count = 0
        while count < 100:
            p = Point3(*rng.uniform(-1.2, 1.2, 3))
            if min(p.y ** 2 + p.z ** 2, p.x ** 2 + p.z ** 2, p.x ** 2 + p.y ** 2) < 1e-4:
                continue
            Qv = rng.uniform(-1, 1, 3)
            k = int(rng.integers(8, 11))
            l1, l2 = rng.uniform(-0.1, 0.1, 2)
            pa, Qa = group_act(GroupElement(k, l1), p, Qv)
            pb, Qb = group_act(GroupElement(k, l2), pa, Qa)
            pc, Qc = group_act(GroupElement(k, l1 + l2), p, Qv)
            worst = max(worst, float(np.max(np.abs(np.asarray(pb) - np.asarray(pc)))),
                        float(np.max(np.abs(Qb - Qc))))
            count += 1
        return worst, 100

    def orthogonality():
        worst = 0.0
        for k in (4, 5, 6):
            for lam in rng.uniform(-3, 3, 10):
                R = rotation_matrix(k, lam)
                worst = max(worst, float(np.max(np.abs(R.T @ R - np.eye(3)))))
        return worst, 30

    def vhat_consistency():
        worst = 0.0
        dl = 1e-5
        pts = halton_points(box, 10, config.seed + 2)
        for k in range(1, 11):
            for p in pts:
                Qv = rng.uniform(-1, 1, 3)
                pp, Qp = group_act(GroupElement(k, dl), p, Qv)
                pm, Qm = group_act(GroupElement(k, -dl), p, Qv)
                fd = (np.concatenate([np.asarray(pp), Qp])
                      - np.concatenate([np.asarray(pm), Qm])) / (2 * dl)
                vh = np.array(vhat_apply(single_parameter(k), p, Qv))
                worst = max(worst, float(np.max(np.abs(fd - vh))))
        return worst, 100

    def transport():
        worst = 0.0
        total = 0
        jobs = []
        harm = catalog_entry("harmonic:x+y+z", config.margin)
        for k in range(1, 11):
            lam = 0.15 if k <= 7 else 0.04
            jobs.append((harm, GroupElement(k, lam)))
        rot = catalog_entry("rotational", config.margin, k=1, c=0.5 * math.log(2))
        jobs += [(rot, GroupElement(3, 0.3)), (rot, GroupElement(6, 0.4)),
                 (rot, GroupElement(7, 0.1))]
        con = catalog_entry("conical", config.margin, C1=2.0, C2=math.e)
        jobs += [(con, GroupElement(4, 0.1)), (con, GroupElement(6, 0.3)),
                 (con, GroupElement(8, 0.03)), (con, GroupElement(9, 0.03)),
                 (con, GroupElement(10, 0.03))]
        for entry, g in jobs:
            moved = pushforward_solution(g, entry.instance.Q)
            inst = RiccatiInstance(moved, entry.instance.q)
            pts = halton_points(entry.sample_box, 50, config.seed,
                                excluded=moved.domain.excluded)
            worst = max(worst, _max_riccati_residual(inst, pts, scheme))
            total += len(pts)
        return worst, total

    def pushforward_agreement():
        worst = 0.0
        entry = catalog_entry("harmonic:x+y+z", config.margin)
        P = _as_batch(halton_points(box, 25, config.seed + 3))
        for k in range(1, 11):
            lam = 0.2 if k <= 7 else 0.05
            g = GroupElement(k, lam)
            t = transport_solution(g, entry.instance.Q)
            pf = pushforward_solution(g, entry.instance.Q)
            worst = max(worst, float(np.max(np.abs(t.batch(P) - pf.batch(P)))))
        return worst, 250

    def printed_text_discrepancy():
        # informational: the literal published conical displays deviate from
        # the pushforward at second order in lambda; reported, never failing
        entry = catalog_entry("harmonic:x+y+z", config.margin)
        worst = 0.0
        P = _as_batch(halton_points(box, 10, config.seed + 4))
        for k in (8, 9, 10):
            g = GroupElement(k, 0.05)
            lit = transport_solution(g, entry.instance.Q, literal_text=True)
            pf = pushforward_solution(g, entry.instance.Q)
            worst = max(worst, float(np.max(np.abs(lit.batch(P) - pf.batch(P)))))
        return worst, 30

    checks = [
        ("determining_table", 1e-9, determining_table),
        ("group_identity", 1e-15, identity),
        ("group_composition_affine", 1e-12, composition_affine),
        ("group_composition_conical", 1e-10, composition_conical),
        ("rotation_orthogonality", 1e-14, orthogonality),
        ("vhat_consistency", 1e-6, vhat_consistency),
        ("transport", 1e-5, transport),
        ("transport_vs_pushforward", 1e-8, pushforward_agreement),
        ("printed_text_discrepancy_info", 1e9, printed_text_discrepancy),
    ]
    return checks


# --------------------------------------------------------------------------
# 1-D oracle suite

def suite_oned(config: RunConfig) -> _Checks:
    def integration():
        c = r1d.Coefficients1D(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0)
        path = r1d.integrate(c, 1.0, 1.0, 2.0, 1e-4)
        worst = abs(path.ys[-1] - 0.5)
        c2 = r1d.Coefficients1D(lambda x: 1.0, lambda x: 0.0, lambda x: 1.0)
        path2 = r1d.integrate(c2, 0.0, 0.0, 0.5, 1e-4)
        worst = max(worst, abs(path2.ys[-1] - math.tan(0.5)))
        blown = r1d.integrate(c2, 0.0, 0.0, 3.0, 1e-4)
        if not blown.hit_singularity:
            worst = max(worst, 1.0)
        return worst, 3

    def crossratio():
        fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0, 3.0)]
        xs = np.linspace(0.5, 2.0, 15)
        vals = [r1d.cross_ratio(*fns, x) for x in xs]
        return max(vals) - min(vals), len(xs)

    def picard_equiv():
        fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0, 3.0)]
        xs = np.linspace(0.5, 2.0, 20)
        worst = max(abs(r1d.picard_equiv_residual(*fns, x)) for x in xs)
        return worst, len(xs)

    def superposition_residual():
        c = r1d.Coefficients1D(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0)
        fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0)]
        y = r1d.superposition(*fns, 3.0)
        xs = np.linspace(0.5, 2.0, 12)
        worst = max(abs(r1d.d1(y, x) - c.rhs(x, y(x))) for x in xs)
        return worst, len(xs)

    def superposition_crossratio_k():
        # the superposition constant is a cross-ratio of (y1, y2, y3, y)
        k = 3.0
        fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0)]
        y = r1d.superposition(*fns, k)
        worst = 0.0
        for x in np.linspace(0.5, 2.0, 12):
            y1, y2, y3, yx = fns[0](x), fns[1](x), fns[2](x), y(x)
            k_rec = (y1 - yx) * (y3 - y2) / ((y1 - y3) * (yx - y2))
            worst = max(worst, abs(k_rec - k))
        return worst, 12

    def euler_constructions():
        c = r1d.Coefficients1D(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0)
        y = r1d.euler_first(c, lambda x: 0.0, 1.0, (0.0, 2.0))
        worst = max(abs(y(x) - 1.0 / (x + 1.0)) for x in (0.3, 1.0, 1.7))
        y2 = r1d.euler_second(lambda x: 1.0 / x, lambda x: 0.0, c, 2.0, (0.5, 2.5))
        worst = max(worst, max(abs(r1d.d1(y2, x) - c.rhs(x, y2(x)))
                               for x in (0.8, 1.3, 1.9)))
        return worst, 6

    def srr_solves_rrr():
        worst = 0.0
        for k, c in ((1.0, 0.0), (2.0, 0.5 * math.log(2))):
            params = RotationalParams(k=k, c=c)
            u = reduced_radial(params)
            for rho in (1.5 if k == 1 else 1.8, 2.0, 3.0):
                resid = (r1d.d1(u, rho, h=2e-4)
                         - (u(rho) ** 2 - u(rho) / rho - k * k / rho ** 2))
                worst = max(worst, abs(resid))
        return worst, 6

    def linriccati2_tie():
        params = RotationalParams(k=1.0, c=0.0)
        g = radial_linear(params)
        u = reduced_radial(params)
        coeffs = r1d.Coefficients1D(lambda x: -1.0 / (x * x), lambda x: -1.0 / x,
                                    lambda x: 1.0)
        worst = 0.0
        for rho in (1.5, 2.0, 2.5):
            lin, ric = r1d.linearize_check(coeffs, g, rho)
            worst = max(worst, abs(lin), abs(ric))
            worst = max(worst, abs(u(rho) + r1d.d1(g, rho) / g(rho)))
        return worst, 3

    def radial_slice_tie():
        params = RotationalParams(k=1.0, c=0.0)
        u = reduced_radial(params)
        inst = rotational_riccati(params, config.margin)
        worst = 0.0
        for x in (1.5, 2.0, 2.8, -1.7):
            val = inst.Q(Point3(x, 0.0, 0.4))[0].real
            worst = max(worst, abs(val - math.copysign(1.0, x) * u(abs(x))))
        return worst, 4

    def factorization_1d():
        worst = abs(r1d.factorization_1d_residual(
            lambda x: 0.0, lambda x: 1.0 / x, math.sin, 1.3))
        worst = max(worst, abs(r1d.factorization_1d_residual(
            lambda x: 1.0, math.tanh, lambda x: x ** 3 + x, 0.8)))
        return worst, 2

    checks = [
        ("integration_vs_analytic", 1e-8, integration),
        ("crossratio_constancy", 1e-6, crossratio),
        ("picard_equivalent_form", 1e-6, picard_equiv),
        ("superposition_residual", 1e-7, superposition_residual),
        ("superposition_crossratio_k", 1e-10, superposition_crossratio_k),
        ("euler_constructions", 1e-6, euler_constructions),
        ("srr_solves_rrr", 1e-8, srr_solves_rrr),
        ("linriccati2_tie", 1e-7, linriccati2_tie),
        ("radial_slice_tie", 1e-10, radial_slice_tie),
        ("factorization_1d", 1e-7, factorization_1d),
    ]
    return checks


# --------------------------------------------------------------------------

_SUITE_FN = {
    "algebra": suite_algebra,
    "operators": suite_operators,
    "riccati": suite_riccati,
    "euler_picard": suite_euler_picard,
    "symmetry": suite_symmetry,
    "solutions": suite_solutions,
    "oned": suite_oned,
}


def run_suite(name: str, config: Optional[RunConfig] = None) -> VerificationReport:
    """Run one suite (or "all") and return its report.

    Every tolerance override must name a check of the run, by its name
    without the suite prefix; an unknown name raises ConfigError before any
    check runs.
    """
    config = config or RunConfig()
    if name != "all" and name not in _SUITE_FN:
        raise ConfigError(f"unknown suite {name!r}; expected one of "
                          f"{SUITES + ('all',)}")
    suites = SUITES if name == "all" else (name,)
    registry = {s: _SUITE_FN[s](config) for s in suites}
    known = {check[0] for checks in registry.values() for check in checks}
    unknown = sorted(set(config.tolerances) - known)
    if unknown:
        raise ConfigError(f"tolerance override names no check of suite {name!r}: "
                          f"{', '.join(map(repr, unknown))} (name a check without "
                          "its suite prefix)")
    # pop each suite's checks as it runs, so its memoized builds are freed
    reports = [_run_checks(registry.pop(s), config, s) for s in suites]
    if name != "all":
        return reports[0]
    return merge_reports(reports, config.as_dict(), "all")
