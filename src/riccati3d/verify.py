"""Verification suites: every identity of the library checked numerically.

Each suite returns its registry of (name, tolerance, check) triples, which
mirror the acceptance criteria of the package; ``run_suite`` runs them into
a VerificationReport.  Every check runs on a private ``_Row`` context built
from (seed, suite, check name) alone: its random generator, its Halton
sample points (with rejection of excluded points) and the recorder of its
reading.  So a row reads the same in any registry order, or run alone, and
a failing row is reproducible point by point from the config echo.
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .biquat import (Biquaternion, _conj, _inverse, _modulus_sq, _product, inverse,
                     max_component_diff, mul, right_mul)
from .errors import ConfigError, ZeroDivisor
from .fields import (
    BoxDomain,
    DiffScheme,
    Point3,
    QuadratureSpec,
    ScalarField,
    VectorField,
    QuaternionField,
    _derivatives,
    _vector_part,
    dirac_left,
    dirac_right,
    grad,
    laplacian,
    operator_A,
    operator_B,
    vec3,
)
from .report import CheckResult, RunConfig, VerificationReport
from .riccati import (
    RiccatiInstance,
    SchrodingerInstance,
    _scalar_part,
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
# sampling helpers and the row context

def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """The radical inverse in base of each index of an int array: its digits
    times base**-1, base**-2, ... (each scale the last one divided by base),
    added in that order, as one index's own loop adds them, bit for bit."""
    scales, top = [1.0 / base], int(index.max(initial=0)) // base
    while top:
        scales.append(scales[-1] / base)
        top //= base
    digits = index[:, None] // base ** np.arange(len(scales)) % base
    return np.cumsum(digits * np.array(scales), axis=1)[:, -1]


_HALTON_TRIES = 100000


def _halton(box: Tuple[Point3, Point3], n: int, start: int,
            excluded: Optional[Callable[[Point3], bool]] = None) -> Tuple[Point3, int]:
    """n Halton points of the box from index ``start`` on, skipping the
    excluded set, as one Point3 of coordinate arrays, and the index after the
    last point taken; a ConfigError when the first _HALTON_TRIES draws hold
    fewer than n points outside it.  ``excluded`` is called once per block of
    candidates (see ``halton_points``)."""
    lo, hi = np.array(box[0], dtype=float), np.array(box[1], dtype=float)
    blocks, taken, idx = [np.empty((3, 0))], 0, start
    while taken < n:
        # the draws that the points still needed take at the acceptance rate
        # so far: all of them at first, twice the draws so far while none passed
        need, drawn = n - taken, idx - start
        if not drawn:
            size = need
        elif taken:
            size = math.ceil(need * drawn / taken)
        else:
            size = 2 * drawn
        size = min(size, start + _HALTON_TRIES - idx)
        if size <= 0:
            raise ConfigError(f"could not draw {n} points from {box}; "
                              f"excluded set too large")
        index = np.arange(idx, idx + size)
        X = lo[:, None] + (hi - lo)[:, None] * np.array(
            [_radical_inverse(index, base) for base in (2, 3, 5)])
        idx += size
        if excluded is not None:
            keep = ~np.broadcast_to(np.asarray(excluded(Point3(*X)), dtype=bool), (size,))
            X, index = X[:, keep], index[keep]
        blocks.append(X[:, :need])
        taken += blocks[-1].shape[1]
        if taken == n:
            idx = int(index[need - 1]) + 1
    return Point3(*np.concatenate(blocks, axis=1)), idx


def halton_points(box: Tuple[Point3, Point3], n: int, seed: int = 0,
                  excluded: Optional[Callable[[Point3], bool]] = None) -> List[Point3]:
    """n quasi-random points of the box (Point3s of Python floats), skipping
    the excluded set; a ConfigError when the first _HALTON_TRIES draws hold
    fewer than n points outside it.

    ``excluded`` is called once per block of candidate points, on a Point3
    of coordinate arrays, and returns a bool array of their shape: the
    broadcasting contract of a ``BoxDomain`` predicate.  The points are the
    ones a loop over the draws, one predicate call per draw, accepts, in its
    order.  The sequence starts at index 17 + 7919 * seed; a negative seed
    would start below 0, where every point is the box's lower corner.  A
    registry row draws from the same sequence at a start of its own
    (``_Row.points``).
    """
    if seed < 0:
        raise ValueError(f"halton_points: seed must be >= 0, got {seed}")
    P, _ = _halton(box, n, 17 + 7919 * seed, excluded)
    return [Point3(*p) for p in zip(*(c.tolist() for c in P))]


class _Row:
    """The private context of one check: its random stream, its sample
    points and the recorder of its reading.

    Both streams come from ``SeedSequence([seed, crc32(b"suite/name")])``:
    ``rng`` is the generator on it, and the row's Halton points start at
    17 + 7919 * seed plus an offset below 7919 taken from it; each call of
    ``points`` continues where the last one stopped.  So a row reads the same
    whichever rows ran before it (L'Ecuyer, Munger, Oreshkin and Simard,
    "Random numbers for parallel computers", Math. Comput. Simul. 135, 2017).
    """

    def __init__(self, config: RunConfig, suite: str, name: str):
        seq = np.random.SeedSequence([config.seed, zlib.crc32(f"{suite}/{name}".encode())])
        self.rng = np.random.default_rng(seq)
        self._index = 17 + int(seq.generate_state(1)[0]) % 7919 + 7919 * config.seed
        self.detection = name.endswith(_DETECTION_SUFFIX)
        self.reading: Optional[float] = None  # until a value is recorded
        self.samples = 0

    def points(self, box: Tuple[Point3, Point3], n: int,
               excluded: Optional[Callable[[Point3], bool]] = None) -> Point3:
        """The row's next n Halton points of the box outside the excluded
        set, as one Point3 of coordinate arrays."""
        P, self._index = _halton(box, n, self._index, excluded)
        return P

    def entry_points(self, entry: CatalogEntry, n: int) -> Point3:
        """The row's next n points of a catalog entry's sample box in Q's domain."""
        dom = entry.instance.Q.domain
        return self.points(entry.sample_box, n, lambda P: ~dom.ok_mask(P))

    def record(self, values, samples: Optional[int] = None) -> None:
        """Take per-sample residuals: the reading keeps their largest, or
        their smallest on a ``_detection`` row, and the row counts ``samples``
        (by default one per value).  A NaN residual reads NaN, which fails."""
        values = np.asarray(values, dtype=float).ravel()
        self.samples += values.size if samples is None else samples
        if self.reading is not None:
            values = np.append(values, self.reading)
        self.reading = float(np.min(values) if self.detection else np.max(values))


_Checks = List[Tuple[str, float, Callable[[_Row], None]]]


def _run_checks(checks: _Checks, config: RunConfig, suite: str,
                prefix: str = "") -> List[CheckResult]:
    """Execute (name, default_tol, fn) triples serially, in the given order,
    into results named ``prefix`` + name.

    Each fn records into a fresh ``_Row`` of (config, suite, name), so no
    row's reading depends on the order of the checks or on which of them run.
    A row that records no value reads NaN and fails.
    """

    def run_one(name, default_tol, fn):
        tol = config.tolerance(name, default_tol)
        start = time.perf_counter()
        row = _Row(config, suite, name)
        fn(row)
        seconds = time.perf_counter() - start
        resid = math.nan if row.reading is None else row.reading
        passed = resid >= tol if row.detection else resid <= tol
        return CheckResult(prefix + name, resid, tol, row.samples, passed, seconds)

    return [run_one(*item) for item in checks]


def _scheme(config: RunConfig) -> DiffScheme:
    return DiffScheme(h=config.h, order=config.order)


def _quad(config: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(gauss_order=config.gauss_order, volume_grid=config.volume_grid)


def _random_biqs(rng, n: int, k: int = 1) -> np.ndarray:
    """n samples of k random biquaternions, drawn sample by sample, eight
    uniforms in [-1, 1) per biquaternion (the real and imaginary part of
    each component in turn): shape (k, 4, n), a (4, n) batch per operand."""
    return rng.uniform(-1, 1, (n, k, 8)).view(complex).transpose(1, 2, 0)


def _mag(z) -> np.ndarray:
    """|z| elementwise, rounded as abs() of one complex rounds it (np.abs may not)."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def _diff(a, b) -> np.ndarray:
    """Each sample's largest |component| of a - b, over the first axis."""
    return _mag(np.subtract(a, b)).max(axis=0)


def _rel_diff(a, b) -> np.ndarray:
    """Each sample's largest |component| of a - b over two (4, N) batches,
    relative to max(1, its largest |component| in a or in b)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(1.0, np.maximum(_mag(a).max(axis=0), _mag(b).max(axis=0)))
    return _mag(a - b).max(axis=0) / scale


# --------------------------------------------------------------------------
# algebra suite: each law on (4, N) batches of its samples

_EPSILON = {(1, 2): 3, (2, 3): 1, (3, 1): 2}


def _basis_product_oracle(a, b) -> list:
    """Brute-force product of (4, *S) components through the 16-term basis
    table, one (i, j) pair at a time (not ``_product``, which it checks)."""
    coeffs = [0j, 0j, 0j, 0j]
    for i in range(4):
        for j in range(4):
            w = a[i] * b[j]
            if i == 0:
                coeffs[j] += w
            elif j == 0:
                coeffs[i] += w
            elif i == j:
                coeffs[0] -= w
            elif (i, j) in _EPSILON:
                coeffs[_EPSILON[(i, j)]] += w
            else:
                coeffs[_EPSILON[(j, i)]] -= w
    return coeffs


def suite_algebra(config: RunConfig) -> _Checks:
    basis = [Biquaternion(1), Biquaternion(0, 1), Biquaternion(0, 0, 1),
             Biquaternion(0, 0, 0, 1)]

    def basis_table(row):
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                expect = Biquaternion(-1.0) if p == q else (
                    basis[_EPSILON[(p, q)]] if (p, q) in _EPSILON
                    else -basis[_EPSILON[(q, p)]])
                row.record(max_component_diff(mul(basis[p], basis[q]), expect))
        # e0 commutes and acts as identity
        for k in range(4):
            row.record(max_component_diff(mul(basis[0], basis[k]), basis[k]))
            row.record(max_component_diff(mul(basis[k], basis[0]), basis[k]))

    def product_vs_oracle(row):
        a, b = _random_biqs(row.rng, 500, 2)
        row.record(_rel_diff(_product(a, b), _basis_product_oracle(a, b)))

    def associativity(row):
        a, b, c = _random_biqs(row.rng, 1000, 3)
        row.record(_rel_diff(_product(_product(a, b), c), _product(a, _product(b, c))))

    def distributivity(row):
        a, b, c = _random_biqs(row.rng, 1000, 3)
        row.record(_rel_diff(_product(a, b + c), np.add(_product(a, b), _product(a, c))))

    def conj_antihom(row):
        a, b = _random_biqs(row.rng, 1000, 2)
        row.record(_rel_diff(_conj(_product(a, b)), _product(_conj(b), _conj(a))))

    def modulus_multiplicative(row):
        a, b = _random_biqs(row.rng, 1000, 2)
        lhs = _modulus_sq(_product(a, b))
        rhs = _modulus_sq(a) * _modulus_sq(b)
        scale = np.maximum(1.0, np.maximum(_mag(lhs), _mag(rhs)))
        row.record(_mag(lhs - rhs) / scale)

    def complex_unit_central(row):
        a, b = _random_biqs(row.rng, 1000, 2)
        ab = 1j * np.array(_product(a, b))
        row.record(np.maximum(_rel_diff(_product(1j * a, b), ab),
                              _rel_diff(_product(a, 1j * b), ab)))

    def inverse_roundtrip(row):
        # a sample without an inverse is dropped; the next draws replace it
        a = _random_biqs(row.rng, 200)[0]
        while True:
            try:
                ai = _inverse(a)
                break
            except ZeroDivisor as exc:
                a = np.concatenate((a[:, ~exc.where],
                                    _random_biqs(row.rng, int(exc.where.sum()))[0]), axis=1)
        one = np.array([1, 0, 0, 0])[:, None]
        row.record(np.maximum(_diff(_product(a, ai), one), _diff(_product(ai, a), one)))
        # the classic zero divisor must be rejected
        try:
            inverse(Biquaternion(1j, 1))
            row.record(1.0, samples=0)
        except ZeroDivisor:
            pass

    def right_mul_witness(row):
        m = right_mul(basis[1])
        row.record([max_component_diff(m(basis[2]), -basis[3]),      # e2 e1 = -e3
                    max_component_diff(mul(basis[1], basis[2]), basis[3]),
                    max_component_diff(m(basis[0]), basis[1])])

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

_MONOS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
_MONO_POWERS = np.array(_MONOS).T  # the powers of x, y and z in each monomial


def _monomials(P: Point3) -> np.ndarray:
    """The monomials of ``_MONOS`` at a point or a batch P of shape S: shape
    (20, *S)."""
    T = np.array(P, dtype=float)
    V = np.ones((3, 4) + T.shape[1:])  # V[axis, e] = P[axis] ** e
    V[:, 1] = T
    V[:, 2] = T * T
    V[:, 3] = V[:, 2] * T
    a, b, c = _MONO_POWERS
    return V[0, a] * V[1, b] * V[2, c]


def _random_poly3(rng, n: int = 1) -> Callable:
    """n random complex cubics in x, y and z, their coefficients drawn cubic
    by cubic and monomial by monomial: an evaluator of the one cubic, or of
    the n values when n > 1.  A point and a batch of shape S take one body,
    the monomial table contracted by einsum (numpy's own loop, not BLAS, so
    the sums do not follow the BLAS thread count): shape S, or (n, *S)."""
    W = np.array([[complex(*rng.uniform(-0.6, 0.6, 2)) for _ in _MONOS] for _ in range(n)])

    def f(p: Point3):
        v = np.einsum("nm,m...->n...", W, _monomials(p))
        return v if n > 1 else v[0]
    return f


def _random_quat_poly(rng) -> QuaternionField:
    return QuaternionField(_random_poly3(rng, 4), vectorized=True)


def suite_operators(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    quad = _quad(config)
    box = (Point3(-1.2, -1.2, -1.2), Point3(1.2, 1.2, 1.2))

    def by_field(P: Point3, n: int):
        """Point i belongs to field i % n: each field's points as one batch."""
        return [(k, Point3(*(c[k::n] for c in P))) for k in range(n)]

    def dirac_square(row):
        fields = [ScalarField(_random_poly3(row.rng), vectorized=True) for _ in range(4)]
        fields.append(ScalarField(lambda p: np.sin(p.x) * np.exp(p.y), vectorized=True))
        fields.append(ScalarField(lambda p: np.exp(0.5 * p.x) * np.cos(0.4 * p.z),
                                  vectorized=True))
        for k, P in by_field(row.points(box, 100), len(fields)):
            f = fields[k]
            Df = QuaternionField(lambda t: [0j, *grad(f, t, scheme)], vectorized=True)
            rhs = np.zeros((4,) + P.x.shape, dtype=complex)
            rhs[0] = -laplacian(f, P, scheme)
            row.record(_diff(dirac_left(Df, P, scheme), rhs))

    def leibniz(row):
        pts = row.points(box, 60)
        pairs = [(_random_quat_poly(row.rng), _random_quat_poly(row.rng)) for _ in range(6)]
        for k, P in by_field(pts, len(pairs)):
            phi, psi = pairs[k]
            prod = QuaternionField(lambda t: _product(phi.batch(t), psi.batch(t)),
                                   vectorized=True)
            lhs = dirac_left(prod, P, scheme)
            phi_P = phi.batch(P)
            rhs = np.add(_product(dirac_left(phi, P, scheme), psi.batch(P)),
                         _product(_conj(phi_P), dirac_left(psi, P, scheme)))
            for v, d in zip(phi_P[1:], _derivatives(psi, P, scheme)):
                rhs = rhs - 2.0 * v * d
            row.record(_diff(lhs, rhs))

    def leibniz_scalar(row):
        P = row.points(box, 30)
        # point n's own cubics f0 and psi_0..psi_3, drawn as _random_poly3
        # draws them, and evaluated at every stencil point of point n
        W = row.rng.uniform(-0.6, 0.6, (P.x.size, 5, len(_MONOS), 2)).view(complex)[..., 0]

        def cubics(t: Point3) -> np.ndarray:
            return np.einsum("ncm,m...n->c...n", W, _monomials(t))

        f0 = ScalarField(lambda t: cubics(t)[0], vectorized=True)
        psi = QuaternionField(lambda t: cubics(t)[1:], vectorized=True)
        prod = QuaternionField(lambda t: f0.batch(t) * psi.batch(t), vectorized=True)
        lhs = dirac_left(prod, P, scheme)
        rhs = np.add(_product((0j, *grad(f0, P, scheme)), psi.batch(P)),
                     f0.batch(P) * dirac_left(psi, P, scheme))
        row.record(_diff(lhs, rhs))

    def conj_intertwine(row):
        pts = row.points(box, 50)
        fields = [_random_quat_poly(row.rng) for _ in range(5)]
        for k, P in by_field(pts, len(fields)):
            phi = fields[k]
            conj_phi = QuaternionField(lambda t: _conj(phi.batch(t)), vectorized=True)
            lhs = _conj(dirac_left(phi, P, scheme))
            rhs = -dirac_right(conj_phi, P, scheme)
            row.record(_diff(lhs, rhs))

    def A_reconstruction(row):
        cases = [
            (VectorField(lambda p: vec3(p.y * p.z, p.x * p.z, p.x * p.y), vectorized=True),
             lambda p: p.x * p.y * p.z),
            (VectorField(lambda p: vec3(2 * p.x, 2 * p.y, 0), vectorized=True),
             lambda p: p.x * p.x + p.y * p.y),
        ]
        P = row.points(box, 20)
        for F, f in cases:
            row.record(_mag(operator_A(F, Point3(0, 0, 0), 0j, quad).batch(P) - f(P)))

    def A_right_inverse(row):
        F = VectorField(lambda p: vec3(p.y * p.z + 2 * p.x, p.x * p.z, p.x * p.y),
                        vectorized=True)
        A = operator_A(F, Point3(0, 0, 0), 0j, quad)
        P = row.points(box, 10)
        row.record(np.abs(grad(A, P, scheme) - F.batch(P)).max(axis=0))

    def B_ball(row):
        region = BoxDomain.box((-1, -1, -1), (1, 1, 1))
        chi = VectorField(lambda p: vec3(
            np.where(p.x * p.x + p.y * p.y + p.z * p.z <= 1.0, 1.0, 0.0), 0.0, 0.0),
            vectorized=True)
        B = operator_B(chi, region, quad)
        center = B(Point3(0, 0, 0))[0]
        outside = B(Point3(2, 0, 0))[0]
        rel_center = abs(center - 0.5) / 0.5
        rel_out = abs(outside - 1.0 / 6.0) * 6.0
        row.record([rel_center, rel_out])

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


def _riccati_defect(inst: RiccatiInstance, P: Point3, scheme: DiffScheme) -> np.ndarray:
    """Each point's largest |defect| of ``riccati_residual`` over the batch P."""
    sc, vec = riccati_residual(inst, P, scheme)
    return np.maximum(np.abs(sc), np.abs(vec).max(axis=0))


_ONE = ScalarField(lambda p: 1.0 + 0j, vectorized=True)
_ZERO_Q = ScalarField(lambda p: 0j, vectorized=True)
# the tube along the x axis that the Prop. 2 builds fill, and three points in it
_TUBE = BoxDomain.box((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
_TUBE_PTS = _as_batch([Point3(3.6, -0.1, 0.08), Point3(4.0, 0.12, -0.05),
                       Point3(4.4, 0.0, 0.1)])


def suite_solutions(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    entries = acceptance_catalog(config.margin)
    checks = []

    def riccati_check(entry):
        def fn(row):
            P = row.entry_points(entry, config.samples)
            row.record(_riccati_defect(entry.instance, P, scheme))
        return fn

    def schrodinger_check(entry):
        def fn(row):
            P = row.entry_points(entry, config.samples)
            r = schrodinger_residual(entry.schrodinger(), P, scheme)
            row.record(_mag(r))
        return fn

    for entry in entries:
        tag = entry.name.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
        checks.append((f"riccati_{tag}", 1e-6, riccati_check(entry)))
        if entry.psi is not None:
            checks.append((f"schrodinger_{tag}", 1e-5, schrodinger_check(entry)))

    def spot_values(row):
        rot = catalog_entry("rotational", config.margin, k=1, c=0).instance
        con = catalog_entry("conical", config.margin, C1=0, C2=math.e).instance
        row.record(np.max(np.abs(rot.Q(Point3(2, 0, 5)) - np.array([-5.0 / 6.0, 0, 0]))))
        row.record(np.max(np.abs(con.Q(Point3(1, 0, 0)) - np.array([3.0, 0, 0]))))

    def blowup_witness(row):
        # approaching each singular set within 1e-3 must blow Q up
        rot = catalog_entry("rotational", config.margin, k=1, c=0).instance
        row.record(np.max(np.abs(rot.Q(Point3(1.0 + 1e-3, 0, 0.3)))))
        con = catalog_entry("conical", config.margin, C1=0, C2=math.e).instance
        # point just off the log surface e*(x^2+y^2) = r^4 at rho = 1
        zs = math.sqrt(math.sqrt(math.e) - 1.0)
        pt = Point3(1.0, 0.0, zs + 5e-4)
        row.record(np.max(np.abs(con.Q(pt))))

    checks.append(("spot_values", 1e-12, spot_values))
    checks.append(("blowup_witness_detection", 1e2, blowup_witness))
    return checks


# --------------------------------------------------------------------------
# riccati suite (transforms + factorization)

def suite_riccati(config: RunConfig) -> _Checks:
    scheme = _scheme(config)
    quad = _quad(config)
    entries = acceptance_catalog(config.margin)
    with_psi = [e for e in entries if e.psi is not None]

    def cole_hopf_match(row):
        for entry in with_psi:
            P = row.entry_points(entry, 50)
            derived = cole_hopf(entry.schrodinger(), scheme)
            row.record(np.abs(derived.Q.batch(P) - entry.instance.Q.batch(P)).max(axis=0))

    def inverse_match(row):
        for entry in with_psi:
            P = row.entry_points(entry, 50)
            sch = inverse_cole_hopf(entry.instance, entry.base, 0j, quad)
            ref0 = entry.psi(entry.base)
            num0 = sch.psi(entry.base)
            # Python's complex division, which rounds unlike numpy's
            row.record([abs(num / num0 - ref / ref0) for num, ref in
                        zip(sch.psi.batch(P).tolist(), entry.psi.batch(P).tolist())])

    def roundtrip(row):
        for entry in entries:
            P = row.entry_points(entry, 12)
            sch = inverse_cole_hopf(entry.instance, entry.base, 0j, quad)
            back = cole_hopf(sch, scheme)
            row.record(np.abs(back.Q.batch(P) - entry.instance.Q.batch(P)).max(axis=0))

    def probes(rng, n: int) -> ScalarField:
        """n random probes exp(a x + b y + c z), drawn probe by probe: probe i
        belongs to target i of a batch of n points, the last axis of the
        batch and of every stencil of it."""
        a, b, c = rng.uniform(-0.4, 0.4, (n, 3)).T
        return ScalarField(lambda p: np.exp(a * p.x + b * p.y + c * p.z), vectorized=True)

    def factorization_defect(row, inst, P) -> np.ndarray:
        """Each point's largest |defect| of either factorization, its probe drawn."""
        left, right = factorization_residual(probes(row.rng, P.x.size), inst, P, scheme)
        return np.maximum(_mag(left).max(axis=0), _mag(right).max(axis=0))

    def factorization_solutions(row):
        for entry in (catalog_entry("rotational", config.margin, k=1, c=0.5 * math.log(2)),
                      catalog_entry("conical", config.margin, C1=2.0, C2=math.e)):
            row.record(factorization_defect(row, entry.instance, row.entry_points(entry, 10)))

    def factorization_detect(row):
        # Q = (x,0,0) with q = -1 has the defect x^2 >= 0.64 on the sample box
        # (q = 0 would solve the equation exactly on the plane x = 1)
        bad = RiccatiInstance(VectorField(lambda p: vec3(p.x, 0, 0), vectorized=True),
                              ScalarField(lambda p: -1 + 0j, vectorized=True))
        P = row.points((Point3(0.8, 0.2, 0.1), Point3(1.6, 1.0, 0.9)), 5)
        row.record(factorization_defect(row, bad, P))

    def prop1_closed_chain(row):
        # phi = W0 = e^x, Wv = e^-x e2: W = W0 + Wv solves the Vekua equation
        phi = ScalarField(lambda p: np.exp(p.x), vectorized=True)
        W = QuaternionField(lambda p: [np.exp(p.x), 0.0, np.exp(-p.x), 0.0], vectorized=True)
        Wv = VectorField(lambda p: vec3(0.0, np.exp(-p.x), 0.0), vectorized=True)
        P = row.points((Point3(-0.6, -0.6, -0.6), Point3(0.6, 0.6, 0.6)), 15)
        c1, c2 = component_residuals(phi, Wv, phi, P, scheme)
        row.record(np.max([_mag(vekua_residual(W, phi, P, scheme)).max(axis=0),
                           _mag(schrodinger_residual(SchrodingerInstance(phi, _ONE), P,
                                                     scheme)),
                           _mag(c1), np.abs(c2).max(axis=0)], axis=0))

    def w_equation_example(row):
        phi = ScalarField(lambda p: np.exp(p.x), vectorized=True)
        w = VectorField(lambda p: vec3(0.0, np.exp(p.x), 0.0), vectorized=True)
        P = row.points((Point3(-0.6, -0.6, -0.6), Point3(0.6, 0.6, 0.6)), 10)
        row.record(_mag(w_equation_residual(w, phi, P, scheme)).max(axis=0))

    def prop2_closed_parts(row):
        w = VectorField(lambda p: vec3(1.0, 0.0, 0.0), vectorized=True)
        nb = config.build_grid
        _, W0, Q = build_W_prop2(w, _ONE, None, Point3(0, 0, 0), _TUBE, quad,
                                 scheme, cells=(5 * nb, nb, nb))
        P = _TUBE_PTS
        r = schrodinger_residual(SchrodingerInstance(W0, _ZERO_Q), P, scheme)
        row.record(np.maximum(_mag(r), _riccati_defect(RiccatiInstance(Q, _ZERO_Q), P, scheme)))

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
    seeds = ["x", "y", "z", "x+y+z"]
    quads = [catalog_entry(f"harmonic:{s}", config.margin).instance for s in seeds]
    Qs = [inst.Q for inst in quads]
    pic_box = (Point3(0.55, 0.35, 0.45), Point3(1.9, 1.4, 1.5))

    nb = config.build_grid
    cells = (5 * nb, nb, nb)

    inv_x = RiccatiInstance(
        VectorField(lambda p: vec3(-1.0 / p.x, 0, 0),
                    BoxDomain.box((0.05, -5, -5), (50, 5, 5)), vectorized=True), _ZERO_Q)
    zero_inst = RiccatiInstance(
        VectorField(lambda p: np.zeros(3, complex), vectorized=True), _ZERO_Q)

    def picard_max_abs(row, *fields, n: int, **options) -> np.ndarray:
        """max_abs of picard_lhs at each of the row's next n Halton points, in one batch."""
        L = picard_lhs(*fields, row.points(pic_box, n), scheme, **options)
        return np.hypot(L.real, L.imag).max(axis=0)

    def picard_identity(row):
        row.record(picard_max_abs(row, *Qs, n=20))

    def picard_crossterm(row):
        row.record(picard_max_abs(row, *Qs, n=20, include_cross_terms=False))

    def picard_pairwise(row):
        row.record(picard_max_abs(row, Qs[0], Qs[1], Qs[0], Qs[1], n=5))

    state: dict = {}

    def _shared(key: str, builder):
        if key not in state:
            state[key] = builder()
        return state[key]

    def get_W():
        return _shared("W", lambda: w_from_q_pair(
            inv_x, zero_inst, None, Point3(1, 0, 0), _TUBE, quad, scheme,
            check_points=[Point3(3.0, 0.2, 0.1)], cells=cells))

    def get_W_from_W0():
        W0 = ScalarField(lambda p: p.x + 0j, vectorized=True)
        return _shared("Wb", lambda: build_W_from_W0(
            W0, _ONE, None, _TUBE, quad, scheme, cells=cells))

    def wconst_scalar_exact(row):
        expect = np.exp(-operator_A(inv_x.Q, Point3(1, 0, 0), 0j, quad).batch(_TUBE_PTS))
        W2 = w_from_q_pair(inv_x, zero_inst, None, Point3(1, 0, 0), _TUBE,
                           quad, scheme,
                           cells=(40, 8, 8))  # volume-resolution independence
        for W in (get_W(), W2):  # read without rot B: W2's grid is never built
            row.record(_mag(_scalar_part(W).batch(_TUBE_PTS) - expect))

    def q_recovery(row):
        rec = q_from_scw(get_W(), scheme)
        row.record(_diff(rec.batch(_TUBE_PTS), inv_x.Q.batch(_TUBE_PTS)))

    def euler_built(row):
        r = euler_residual(get_W(), zero_inst.Q, _TUBE_PTS, scheme)
        row.record(_mag(r).max(axis=0))

    def vekua_built(row):
        r = vekua_residual(get_W_from_W0(), _ONE, _TUBE_PTS, scheme)
        row.record(_mag(r).max(axis=0))

    def prop3_roundtrip(row):
        W = get_W_from_W0()
        Wv = _vector_part(W)  # with W's jet: rot(phi Wv) is one pass per node
        rec = build_W0_from_W(Wv, _ONE, Point3(4.0, 0.0, 0.0), quad, scheme)
        shift = rec(Point3(4.0, 0.0, 0.0)) - 4.0
        x = _TUBE_PTS.x
        row.record(_mag(rec.batch(_TUBE_PTS) - x - shift) / np.maximum(1.0, np.abs(x)))

    def mismatch_detection(row):
        other = catalog_entry("rotational", config.margin, k=1, c=0).instance
        try:
            w_from_q_pair(inv_x, other, None, Point3(1, 0, 0), _TUBE, quad,
                          scheme, check_points=[Point3(3.0, 0.2, 0.1)])
            row.record(0.0)
        except ValueError:
            row.record(1.0)

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
    box = (Point3(0.55, 0.35, 0.45), Point3(1.6, 1.3, 1.4))

    def values(rng, P: Point3) -> np.ndarray:
        """A random Q at each point of P, drawn point by point: (3, N)."""
        return rng.uniform(-1, 1, (P.x.size, 3)).T

    def apart(P, Q, P2, Q2) -> np.ndarray:
        """Each point's largest |difference| of (P, Q) and (P2, Q2)."""
        return np.maximum(np.abs(np.subtract(P2, P)).max(axis=0), np.abs(Q2 - Q).max(axis=0))

    def determining_table(row):
        P = row.points(box, 5)
        for k in range(1, 11):
            row.record(np.abs(determining_residual(
                single_parameter(k), invariant_potential(k, _TABLE_F[k]), P, scheme)))

    def identity(row):
        P = row.points(box, 10)
        for k in range(1, 11):
            Q = values(row.rng, P)
            P2, Q2 = group_act(GroupElement(k, 0.0), P, Q)
            row.record(apart(P, Q, P2, Q2))

    def composition(ks: range, lam: float, n: int, pairs: int):
        """G_k(l2) G_k(l1) against G_k(l1 + l2) for each k of ks, on one batch
        of n points and Q values per group at each of ``pairs`` parameter
        pairs in (-lam, lam).  The conical groups leave out points near a
        coordinate axis."""
        def check(row):
            for k in ks:
                X, Q = row.rng.uniform(-1.2, 1.2, (3, n)), row.rng.uniform(-1, 1, (3, n))
                if k >= 8:
                    X2 = X * X
                    keep = np.min([X2[1] + X2[2], X2[0] + X2[2], X2[0] + X2[1]], axis=0) >= 1e-4
                    X, Q = X[:, keep], Q[:, keep]
                p = Point3(*X)
                for l1, l2 in row.rng.uniform(-lam, lam, (pairs, 2)):
                    pa, Qa = group_act(GroupElement(k, l1), p, Q)
                    pb, Qb = group_act(GroupElement(k, l2), pa, Qa)
                    pc, Qc = group_act(GroupElement(k, l1 + l2), p, Q)
                    row.record(apart(pb, Qb, pc, Qc))
        return check

    def orthogonality(row):
        for k in (4, 5, 6):
            for lam in row.rng.uniform(-3, 3, 10):
                R = rotation_matrix(k, lam)
                row.record(np.max(np.abs(R.T @ R - np.eye(3))))

    def vhat_consistency(row):
        dl = 1e-5
        P = row.points(box, 10)
        for k in range(1, 11):
            Q = values(row.rng, P)
            pp, Qp = group_act(GroupElement(k, dl), P, Q)
            pm, Qm = group_act(GroupElement(k, -dl), P, Q)
            fd = (np.concatenate([pp, Qp]) - np.concatenate([pm, Qm])) / (2 * dl)
            vh = np.array(vhat_apply(single_parameter(k), P, Q))
            row.record(np.abs(fd - vh).max(axis=0))

    def transport(row):
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
            P = row.points(entry.sample_box, 50, moved.domain.excluded)
            row.record(_riccati_defect(inst, P, scheme))

    def pushforward_agreement(row):
        entry = catalog_entry("harmonic:x+y+z", config.margin)
        P = row.points(box, 25)
        # each conical group moves a point of its own axis along the axis
        axes = _as_batch([Point3(1.0, 0.0, 0.0), Point3(0.0, 1.0, 0.0), Point3(0.0, 0.0, 1.0)])
        for k in range(1, 11):
            lam = 0.2 if k <= 7 else 0.05
            g = GroupElement(k, lam)
            t = transport_solution(g, entry.instance.Q)
            pf = pushforward_solution(g, entry.instance.Q)
            for Pk in (P,) if k <= 7 else (P, axes):
                row.record(np.abs(t.batch(Pk) - pf.batch(Pk)).max(axis=0))

    def printed_text_discrepancy(row):
        # informational: the literal published conical displays deviate from
        # the pushforward at second order in lambda; reported, never failing
        entry = catalog_entry("harmonic:x+y+z", config.margin)
        P = row.points(box, 10)
        for k in (8, 9, 10):
            g = GroupElement(k, 0.05)
            lit = transport_solution(g, entry.instance.Q, literal_text=True)
            pf = pushforward_solution(g, entry.instance.Q)
            row.record(np.abs(lit.batch(P) - pf.batch(P)).max(axis=0))

    checks = [
        ("determining_table", 1e-9, determining_table),
        ("group_identity", 1e-15, identity),
        ("group_composition_affine", 1e-12, composition(range(1, 8), 0.5, 50, 5)),
        ("group_composition_conical", 1e-10, composition(range(8, 11), 0.1, 40, 3)),
        ("rotation_orthogonality", 1e-14, orthogonality),
        ("vhat_consistency", 1e-6, vhat_consistency),
        ("transport", 1e-5, transport),
        ("transport_vs_pushforward", 1e-8, pushforward_agreement),
        ("printed_text_discrepancy_info", 1e9, printed_text_discrepancy),
    ]
    return checks


# --------------------------------------------------------------------------
# 1-D oracle suite

# RK4's step in integration_vs_analytic: its residuals there are round-off
# (3.7e-15) from 1e-3 down, where 1e-4 took ten times the steps
_RK4_STEP = 1e-3


def suite_oned(config: RunConfig) -> _Checks:
    tan = r1d.Coefficients1D(lambda x: 1.0, lambda x: 0.0, lambda x: 1.0)  # y' = 1 + y^2
    neg_sq = r1d.Coefficients1D(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0)  # y' = -y^2
    # solutions y = 1 / (x + c) of y' = -y^2
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0, 3.0)]

    def integration(row):
        row.record(abs(r1d.integrate(neg_sq, 1.0, 1.0, 2.0, _RK4_STEP).ys[-1] - 0.5))
        row.record(abs(r1d.integrate(tan, 0.0, 0.0, 0.5, _RK4_STEP).ys[-1] - math.tan(0.5)))
        # y' = 1 + x^2 - y^2 has y = x: the only case here whose coefficients
        # depend on x, so the only one that sees where RK4 evaluates them
        moving = r1d.Coefficients1D(lambda x: 1.0 + x * x, lambda x: 0.0, lambda x: -1.0)
        row.record(abs(r1d.integrate(moving, 0.0, 0.0, 1.0, _RK4_STEP).ys[-1] - 1.0))
        blown = r1d.integrate(tan, 0.0, 0.0, 3.0, _RK4_STEP)
        row.record(0.0 if blown.hit_singularity else 1.0)

    def rk4_observed_order(row):
        # y = tan x on [0, 1]: RK4's error falls about 2^4-fold per halving of
        # the step (14.4- and 15.2-fold here); a method of order 3 or 2 falls
        # 8- or 4-fold, whatever the size of its error.  The residual is the
        # largest distance of the observed order log2(e_h / e_h/2) from 4.
        errors = [abs(r1d.integrate(tan, 0.0, 0.0, 1.0, h).ys[-1] - math.tan(1.0))
                  for h in (1e-2, 5e-3, 2.5e-3)]
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        row.record([abs(order - 4.0) for order in orders], samples=len(errors))

    def crossratio(row):
        xs = np.linspace(0.5, 2.0, 15)
        vals = [r1d.cross_ratio(*fns, x) for x in xs]
        row.record(max(vals) - min(vals), samples=len(xs))

    def picard_equiv(row):
        xs = np.linspace(0.5, 2.0, 20)
        row.record([abs(r1d.picard_equiv_residual(*fns, x)) for x in xs])

    def superposition_residual(row):
        y = r1d.superposition(*fns[:3], 3.0)
        xs = np.linspace(0.5, 2.0, 12)
        row.record([abs(r1d.d1(y, x) - neg_sq.rhs(x, y(x))) for x in xs])

    def superposition_crossratio_k(row):
        # the superposition constant is a cross-ratio of (y1, y2, y3, y)
        k = 3.0
        y = r1d.superposition(*fns[:3], k)
        for x in np.linspace(0.5, 2.0, 12):
            y1, y2, y3, yx = fns[0](x), fns[1](x), fns[2](x), y(x)
            k_rec = (y1 - yx) * (y3 - y2) / ((y1 - y3) * (yx - y2))
            row.record(abs(k_rec - k))

    def euler_constructions(row):
        y = r1d.euler_first(neg_sq, lambda x: 0.0, 1.0, (0.0, 2.0))
        row.record([abs(y(x) - 1.0 / (x + 1.0)) for x in (0.3, 1.0, 1.7)])
        y2 = r1d.euler_second(lambda x: 1.0 / x, lambda x: 0.0, neg_sq, 2.0, (0.5, 2.5))
        row.record([abs(r1d.d1(y2, x) - neg_sq.rhs(x, y2(x))) for x in (0.8, 1.3, 1.9)])

    def srr_solves_rrr(row):
        for k, c in ((1.0, 0.0), (2.0, 0.5 * math.log(2))):
            params = RotationalParams(k=k, c=c)
            u = reduced_radial(params)
            for rho in (1.5 if k == 1 else 1.8, 2.0, 3.0):
                resid = (r1d.d1(u, rho, h=2e-4)
                         - (u(rho) ** 2 - u(rho) / rho - k * k / rho ** 2))
                row.record(abs(resid))

    def linriccati2_tie(row):
        params = RotationalParams(k=1.0, c=0.0)
        g = radial_linear(params)
        u = reduced_radial(params)
        coeffs = r1d.Coefficients1D(lambda x: -1.0 / (x * x), lambda x: -1.0 / x,
                                    lambda x: 1.0)
        for rho in (1.5, 2.0, 2.5):
            lin, ric = r1d.linearize_check(coeffs, g, rho)
            row.record(max(abs(lin), abs(ric), abs(u(rho) + r1d.d1(g, rho) / g(rho))))

    def radial_slice_tie(row):
        params = RotationalParams(k=1.0, c=0.0)
        u = reduced_radial(params)
        inst = rotational_riccati(params, config.margin)
        for x in (1.5, 2.0, 2.8, -1.7):
            val = inst.Q(Point3(x, 0.0, 0.4))[0].real
            row.record(abs(val - math.copysign(1.0, x) * u(abs(x))))

    def factorization_1d(row):
        row.record([abs(r1d.factorization_1d_residual(
                        lambda x: 0.0, lambda x: 1.0 / x, math.sin, 1.3)),
                    abs(r1d.factorization_1d_residual(
                        lambda x: 1.0, math.tanh, lambda x: x ** 3 + x, 0.8))])

    checks = [
        ("integration_vs_analytic", 1e-8, integration),
        ("rk4_observed_order", 0.5, rk4_observed_order),
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
    # pop each suite's checks as it runs, so its memoized builds are freed;
    # the rows of "all" are named suite/check
    results: List[CheckResult] = []
    for s in suites:
        results += _run_checks(registry.pop(s), config, s, f"{s}/" if name == "all" else "")
    return VerificationReport(results, config.as_dict(), name)
