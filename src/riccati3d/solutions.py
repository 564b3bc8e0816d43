"""Closed-form solution catalog: rotational and conical families, the reduced
radial problem, and harmonic-seeded zero-potential fixtures.

Every entry ships the Riccati pair (Q, q), the Schrodinger partner psi where
its normalization exists, a conservative excluded-set predicate around the
family's singular sets, a sampling box from which the whole axis-ordered
integration path of the potential reconstruction stays inside one
non-singular component, and the base point used for that path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .fields import BoxDomain, DiffScheme, DEFAULT_SCHEME, Point3, ScalarField, VectorField
from .riccati import RiccatiInstance, SchrodingerInstance, cole_hopf

__all__ = [
    "RotationalParams",
    "ConicalParams",
    "HarmonicSeed",
    "rotational",
    "rotational_riccati",
    "reduced_radial",
    "radial_linear",
    "conical",
    "conical_riccati",
    "harmonic_family",
    "harmonic_seed",
    "CatalogEntry",
    "catalog_entry",
    "acceptance_catalog",
    "HARMONIC_IDS",
]

DEFAULT_MARGIN = 0.1


@dataclass(frozen=True)
class RotationalParams:
    """Exponent k, integration constant c, Schrodinger normalization C."""

    k: float
    c: float
    C: float = 1.0


@dataclass(frozen=True)
class ConicalParams:
    """Constants C1, C2 (> 0) and Schrodinger normalization C."""

    C1: float
    C2: float
    C: float = 1.0

    def __post_init__(self):
        if self.C2 <= 0:
            raise ValueError("ConicalParams.C2 must be positive")


@dataclass(frozen=True)
class HarmonicSeed:
    """A nonvanishing harmonic closed form used as a zero-potential seed."""

    name: str
    psi: ScalarField


# --------------------------------------------------------------------------
# rotational family

def _rotational_fields(params: RotationalParams, margin: float):
    k, c = params.k, params.c
    E = math.exp(2.0 * c * k)
    radius = math.exp(c)  # the singular cylinder rho = e^c

    def excluded(p: Point3) -> bool:
        rho = math.hypot(p.x, p.y)
        return rho <= margin or abs(rho - radius) <= margin

    domain = BoxDomain.unbounded(excluded)

    def Q_eval(p: Point3) -> np.ndarray:
        rho2 = p.x * p.x + p.y * p.y
        if rho2 == 0.0:
            raise DomainError("rotational solution singular on the z-axis")
        power = rho2 ** k
        den = rho2 * (power - E)
        if den == 0.0:
            raise DomainError(f"rotational solution singular at rho = {math.sqrt(rho2)}")
        factor = -k * (power + E) / den
        return np.array([factor * p.x, factor * p.y, 0.0], dtype=complex)

    def q_eval(p: Point3) -> complex:
        rho2 = p.x * p.x + p.y * p.y
        if rho2 == 0.0:
            raise DomainError("potential singular on the z-axis")
        return complex(k * k / rho2)

    return VectorField(Q_eval, domain), ScalarField(q_eval, domain), E, domain


def rotational_riccati(params: RotationalParams,
                       margin: float = DEFAULT_MARGIN) -> RiccatiInstance:
    """Rotationally invariant solution of D Q + |Q|^2 = k^2/(x^2 + y^2).

    Exists for every (k, c); the Schrodinger partner needs c*k != 0, see
    ``rotational``.
    """
    Q, q, _, _ = _rotational_fields(params, margin)
    return RiccatiInstance(Q, q)


def rotational(params: RotationalParams,
               margin: float = DEFAULT_MARGIN) -> Tuple[RiccatiInstance, ScalarField]:
    """Rotational Riccati instance together with its Schrodinger partner.

    psi = C ((x^2+y^2)^k - e^{2ck}) / ((x^2+y^2)^{k/2} (1 - e^{2ck})); the
    normalization degenerates when c*k = 0 (the 1 - e^{2ck} denominator
    vanishes), which is rejected even though Q itself exists there.
    """
    if params.c * params.k == 0.0:
        raise ValueError("rotational psi undefined for c*k = 0 "
                         "(use rotational_riccati for Q alone)")
    Q, q, E, domain = _rotational_fields(params, margin)
    k, C = params.k, params.C
    norm = C / (1.0 - E)

    def psi_eval(p: Point3) -> complex:
        rho2 = p.x * p.x + p.y * p.y
        if rho2 == 0.0:
            raise DomainError("psi singular on the z-axis")
        return complex(norm * (rho2 ** k - E) / rho2 ** (0.5 * k))

    return RiccatiInstance(Q, q), ScalarField(psi_eval, domain)


def reduced_radial(params: RotationalParams) -> Callable[[float], float]:
    """Radial profile u_hat(rho) = -(k/rho)(rho^{2k} + e^{2ck})/(rho^{2k} - e^{2ck}).

    Solves the one-dimensional reduction u_hat' = u_hat^2 - u_hat/rho - k^2/rho^2;
    on the y = 0 slice, u(x, 0, z) = sign(x) * u_hat(|x|).
    """
    k, c = params.k, params.c
    E = math.exp(2.0 * c * k)

    def u_hat(rho: float) -> float:
        if rho <= 0.0:
            raise DomainError(f"radial profile needs rho > 0, got {rho}")
        power = rho ** (2.0 * k)
        if power == E:
            raise DomainError(f"radial profile singular at rho = {rho}")
        return -(k / rho) * (power + E) / (power - E)

    return u_hat


def radial_linear(params: RotationalParams) -> Callable[[float], float]:
    """g(rho) = rho^k - e^{2ck} rho^{-k}, satisfying g'' + g'/rho = (k^2/rho^2) g.

    The radial profile is its logarithmic derivative: u_hat = -g'/g.
    """
    k, c = params.k, params.c
    E = math.exp(2.0 * c * k)

    def g(rho: float) -> float:
        if rho <= 0.0:
            raise DomainError(f"g needs rho > 0, got {rho}")
        return rho ** k - E * rho ** (-k)

    return g


# --------------------------------------------------------------------------
# conical family

def _log_term(C2: float, rho2: float, r2: float) -> float:
    return math.log(C2 * rho2 / (r2 * r2))


def _conical_excluded(C2: float, margin: float) -> Callable[[Point3], bool]:
    def excluded(p: Point3) -> bool:
        rho2 = p.x * p.x + p.y * p.y
        r2 = rho2 + p.z * p.z
        if r2 <= margin * margin or rho2 <= margin * margin * max(1.0, r2):
            return True
        # first-order distance |L| / |grad L| to the log-singular surface
        gx = 2.0 * p.x / rho2 - 4.0 * p.x / r2
        gy = 2.0 * p.y / rho2 - 4.0 * p.y / r2
        gz = -4.0 * p.z / r2
        grad_norm = math.sqrt(gx * gx + gy * gy + gz * gz)
        return abs(_log_term(C2, rho2, r2)) <= margin * grad_norm
    return excluded


def conical_riccati(params: ConicalParams,
                    margin: float = DEFAULT_MARGIN) -> RiccatiInstance:
    """Conically invariant solution for the potential q = (C1 / (2 r^2))^2."""
    C1, C2 = params.C1, params.C2
    domain = BoxDomain.unbounded(_conical_excluded(C2, margin))

    def Q_eval(p: Point3) -> np.ndarray:
        x, y, z = p
        rho2 = x * x + y * y
        r2 = rho2 + z * z
        if r2 == 0.0 or rho2 == 0.0:
            raise DomainError("conical solution singular on the z-axis")
        L = _log_term(C2, rho2, r2)
        if L == 0.0:
            raise DomainError("conical solution singular on the log surface")
        r4 = r2 * r2
        mid = rho2 - z * z
        u = -C1 * x * z / r4 + 2.0 * x * mid / (r2 * rho2 * L) + x / r2
        v = -C1 * y * z / r4 + 2.0 * y * mid / (r2 * rho2 * L) + y / r2
        w = C1 * mid / (2.0 * r4) + 4.0 * z / (r2 * L) + z / r2
        return np.array([u, v, w], dtype=complex)

    def q_eval(p: Point3) -> complex:
        r2 = p.x * p.x + p.y * p.y + p.z * p.z
        if r2 == 0.0:
            raise DomainError("potential singular at the origin")
        return complex((C1 / (2.0 * r2)) ** 2)

    return RiccatiInstance(VectorField(Q_eval, domain), ScalarField(q_eval, domain))


def conical(params: ConicalParams,
            margin: float = DEFAULT_MARGIN) -> Tuple[RiccatiInstance, ScalarField]:
    """Conical Riccati instance with its Schrodinger partner.

    psi = C ln(C2 (x^2+y^2)/r^4) / (ln(C2) r exp(C1 z / (2 r^2))); needs
    C2 != 1 so that the ln(C2) normalization is nonzero.
    """
    if params.C2 == 1.0:
        raise ValueError("conical psi undefined for C2 = 1 (ln C2 = 0)")
    inst = conical_riccati(params, margin)
    C1, C2, C = params.C1, params.C2, params.C
    norm = C / math.log(C2)

    def psi_eval(p: Point3) -> complex:
        rho2 = p.x * p.x + p.y * p.y
        r2 = rho2 + p.z * p.z
        if r2 == 0.0 or rho2 == 0.0:
            raise DomainError("psi singular on the z-axis")
        L = _log_term(C2, rho2, r2)
        return complex(norm * L / (math.sqrt(r2) * math.exp(C1 * p.z / (2.0 * r2))))

    return inst, ScalarField(psi_eval, inst.Q.domain)


# --------------------------------------------------------------------------
# harmonic seeds (q = 0 fixtures)

_HARMONIC_FORMS: dict = {
    "x": lambda p: p.x,
    "y": lambda p: p.y,
    "z": lambda p: p.z,
    "x+y+z": lambda p: p.x + p.y + p.z,
    "xyz": lambda p: p.x * p.y * p.z,
    "sin-exp": lambda p: math.sin(p.x) * math.exp(p.y),
}

HARMONIC_IDS = tuple(sorted(_HARMONIC_FORMS))


def harmonic_seed(name: str) -> HarmonicSeed:
    try:
        form = _HARMONIC_FORMS[name]
    except KeyError:
        raise ValueError(f"unknown harmonic seed {name!r}; available: {HARMONIC_IDS}")
    return HarmonicSeed(name, ScalarField(lambda p: complex(form(p))))


def harmonic_family(seed: HarmonicSeed,
                    scheme: DiffScheme = DEFAULT_SCHEME,
                    eps_zero: float = 1e-10) -> RiccatiInstance:
    """Zero-potential instance Q = -grad psi / psi from a harmonic seed."""
    zero_q = ScalarField(lambda p: 0j, seed.psi.domain)
    return cole_hopf(SchrodingerInstance(seed.psi, zero_q), scheme, eps_zero)


# --------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class CatalogEntry:
    """A named solution with everything the suites and the CLI need."""

    name: str
    instance: RiccatiInstance
    psi: Optional[ScalarField]
    sample_box: Tuple[Point3, Point3]
    base: Point3
    groups: Tuple[int, ...]
    params: dict = field(default_factory=dict)

    def schrodinger(self) -> SchrodingerInstance:
        if self.psi is None:
            raise ValueError(f"{self.name} has no Schrodinger partner")
        return SchrodingerInstance(self.psi, self.instance.q)


_HARMONIC_BOX = (Point3(0.5, 0.3, 0.4), Point3(1.9, 1.4, 1.5))
_HARMONIC_BASE = Point3(1.0, 0.8, 0.9)


def catalog_entry(solution_id: str, margin: float = DEFAULT_MARGIN,
                  **params) -> CatalogEntry:
    """Build a catalog entry by name.

    Names: "rotational" (k, c, C), "conical" (C1, C2, C) and
    "harmonic:<id>" with <id> one of HARMONIC_IDS.
    """
    if not (math.isfinite(margin) and margin > 0):
        raise ValueError(f"margin must be finite and positive, got {margin!r}")
    if solution_id == "rotational":
        rp = RotationalParams(k=float(params.get("k", 1.0)),
                              c=float(params.get("c", 0.0)),
                              C=float(params.get("C", 1.0)))
        if rp.c * rp.k != 0.0:
            inst, psi = rotational(rp, margin)
        else:
            inst, psi = rotational_riccati(rp, margin), None
        radius = math.exp(rp.c)
        if radius >= 1.4:
            # sample inside the singular cylinder; reconstruction base (1,0,0)
            box = (Point3(0.35, 0.0, -0.8), Point3(1.1, 0.55, 0.8))
            base = Point3(1.0, 0.0, 0.0)
        else:
            # sample outside; keep base (1,0,0) whenever it clears the cylinder
            box = (Point3(radius + 0.35, 0.0, -1.0), Point3(radius + 1.4, 1.0, 1.0))
            base = Point3(1.0, 0.0, 0.0) if radius <= 0.65 else Point3(radius + 1.0, 0.0, 0.0)
        # q = k^2/(x^2+y^2) sits in the z-translation, z-rotation, dilation
        # and z-conical families (k^2/(s^2+t^2) in the inverted coordinates)
        return CatalogEntry(f"rotational(k={rp.k:g},c={rp.c:g})", inst, psi,
                            box, base, (3, 6, 7, 10),
                            {"k": rp.k, "c": rp.c, "C": rp.C})

    if solution_id == "conical":
        cp = ConicalParams(C1=float(params.get("C1", 0.0)),
                           C2=float(params.get("C2", math.e)),
                           C=float(params.get("C", 1.0)))
        if cp.C2 != 1.0:
            inst, psi = conical(cp, margin)
        else:
            inst, psi = conical_riccati(cp, margin), None
        # boxes sit inside the log surface's bowl around the reconstruction
        # base (1, 0, 0) so that the whole integration path stays regular
        if cp.C2 >= 2.5:
            box = (Point3(0.8, 0.0, 0.0), Point3(1.2, 0.3, 0.25))
        else:
            box = (Point3(0.8, 0.0, 0.0), Point3(1.15, 0.25, 0.15))
        return CatalogEntry(f"conical(C1={cp.C1:g},C2={cp.C2:g})", inst, psi,
                            box, Point3(1.0, 0.0, 0.0), (4, 5, 6, 8, 9, 10),
                            {"C1": cp.C1, "C2": cp.C2, "C": cp.C})

    if solution_id.startswith("harmonic:"):
        seed = harmonic_seed(solution_id.split(":", 1)[1])
        inst = harmonic_family(seed)
        return CatalogEntry(f"harmonic:{seed.name}", inst, seed.psi,
                            _HARMONIC_BOX, _HARMONIC_BASE,
                            tuple(range(1, 11)), {"seed": seed.name})

    raise ValueError(f"unknown solution id {solution_id!r}")


def acceptance_catalog(margin: float = DEFAULT_MARGIN):
    """The eight closed-form instances exercised by the verification suites."""
    entries = []
    for k in (1.0, 2.0):
        for c in (0.0, 0.5 * math.log(2.0)):
            entries.append(catalog_entry("rotational", margin, k=k, c=c))
    for C1 in (0.0, 2.0):
        for C2 in (math.e, 2.0):
            entries.append(catalog_entry("conical", margin, C1=C1, C2=C2))
    return entries
