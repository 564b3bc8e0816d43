"""Closed-form solution catalog: rotational and conical families, the reduced
radial problem, and harmonic-seeded zero-potential fixtures.

Every entry ships the Riccati pair (Q, q), the Schrodinger partner psi where
its normalization exists, a conservative excluded-set predicate around the
family's singular sets, a sampling box from which the whole axis-ordered
integration path of the potential reconstruction stays inside one
non-singular component, and the base point used for that path.

The closed forms, the harmonic seeds and the two excluded-set predicates are
vectorized (see the ``fields`` module): one body serves a point and a batch,
its transcendental functions are numpy ufuncs, which run the same loop for
one point and for a batch, so a batch gives the values of the pointwise
calls bit for bit, and a point the pointwise call rejects raises the same
typed error naming its index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, _item, _raise_at
from .fields import (
    BoxDomain,
    Point3,
    ScalarField,
    VectorField,
)
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

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class ConicalParams:
    """Constants C1, C2 (> 0) and Schrodinger normalization C."""

    C1: float
    C2: float
    C: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.C2 <= 0:
            raise ValueError("ConicalParams.C2 must be positive")


def _require_finite(params) -> None:
    """A NaN or infinite parameter would give NaN fields, not an error."""
    bad = [f.name for f in fields(params) if not math.isfinite(getattr(params, f.name))]
    if bad:
        raise ValueError(f"{type(params).__name__}.{bad[0]} must be finite")


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

    def excluded(p: Point3):
        x, y, _ = p
        rho = np.hypot(x, y)
        return (rho <= margin) | (abs(rho - radius) <= margin)

    domain = BoxDomain.unbounded(excluded)

    def Q_eval(p: Point3) -> list:
        x, y, _ = p
        rho2 = x * x + y * y
        _raise_at(rho2 == 0.0, DomainError, "rotational solution singular on the z-axis")
        power = np.power(rho2, k)
        den = rho2 * (power - E)
        _raise_at(den == 0.0, DomainError,
                  lambda i: f"rotational solution singular at rho = {math.sqrt(_item(rho2, i))}")
        factor = -k * (power + E) / den
        return [factor * x, factor * y, 0.0]

    def q_eval(p: Point3):
        x, y, _ = p
        rho2 = x * x + y * y
        _raise_at(rho2 == 0.0, DomainError, "potential singular on the z-axis")
        return k * k / rho2

    return (VectorField(Q_eval, domain, vectorized=True),
            ScalarField(q_eval, domain, vectorized=True), E, domain)


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
    half_k = 0.5 * k

    def psi_eval(p: Point3):
        x, y, _ = p
        rho2 = x * x + y * y
        _raise_at(rho2 == 0.0, DomainError, "psi singular on the z-axis")
        return norm * (np.power(rho2, k) - E) / np.power(rho2, half_k)

    return RiccatiInstance(Q, q), ScalarField(psi_eval, domain, vectorized=True)


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

def _log_term(C2: float, rho2, r2):
    """ln(C2 rho^2 / r^4)."""
    return np.log(C2 * rho2 / (r2 * r2))


def _conical_excluded(C2: float, margin: float) -> Callable[[Point3], bool]:
    mm = margin * margin

    def excluded(p: Point3):
        x, y, z = p
        rho2 = x * x + y * y
        r2 = rho2 + z * z
        # rho2 <= mm * max(1, r2), written as comparisons that read the
        # same for a point and a batch
        near = (r2 <= mm) | (rho2 <= mm) | (rho2 <= mm * r2)
        if type(near) is not np.ndarray:
            if near:
                return True
        elif near.any():
            # near points are excluded already; 1.0 keeps the divisions
            # below off the axis and the origin
            rho2, r2 = np.where(near, 1.0, rho2), np.where(near, 1.0, r2)
        # first-order distance |L| / |grad L| to the log-singular surface
        gx = 2.0 * x / rho2 - 4.0 * x / r2
        gy = 2.0 * y / rho2 - 4.0 * y / r2
        gz = -4.0 * z / r2
        grad_norm = np.sqrt(gx * gx + gy * gy + gz * gz)
        return near | (abs(_log_term(C2, rho2, r2)) <= margin * grad_norm)
    return excluded


def conical_riccati(params: ConicalParams,
                    margin: float = DEFAULT_MARGIN) -> RiccatiInstance:
    """Conically invariant solution for the potential q = (C1 / (2 r^2))^2."""
    C1, C2 = params.C1, params.C2
    domain = BoxDomain.unbounded(_conical_excluded(C2, margin))

    def Q_eval(p: Point3) -> list:
        x, y, z = p
        rho2 = x * x + y * y
        r2 = rho2 + z * z
        _raise_at((r2 == 0.0) | (rho2 == 0.0), DomainError,
                  "conical solution singular on the z-axis")
        L = _log_term(C2, rho2, r2)
        _raise_at(L == 0.0, DomainError, "conical solution singular on the log surface")
        r4 = r2 * r2
        mid = rho2 - z * z
        u = -C1 * x * z / r4 + 2.0 * x * mid / (r2 * rho2 * L) + x / r2
        v = -C1 * y * z / r4 + 2.0 * y * mid / (r2 * rho2 * L) + y / r2
        w = C1 * mid / (2.0 * r4) + 4.0 * z / (r2 * L) + z / r2
        return [u, v, w]

    def q_eval(p: Point3):
        x, y, z = p
        r2 = x * x + y * y + z * z
        _raise_at(r2 == 0.0, DomainError, "potential singular at the origin")
        return np.power(C1 / (2.0 * r2), 2.0)

    return RiccatiInstance(VectorField(Q_eval, domain, vectorized=True),
                           ScalarField(q_eval, domain, vectorized=True))


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

    def psi_eval(p: Point3):
        x, y, z = p
        rho2 = x * x + y * y
        r2 = rho2 + z * z
        _raise_at((r2 == 0.0) | (rho2 == 0.0), DomainError, "psi singular on the z-axis")
        return norm * _log_term(C2, rho2, r2) / (np.sqrt(r2) * np.exp(C1 * z / (2.0 * r2)))

    return inst, ScalarField(psi_eval, inst.Q.domain, vectorized=True)


# --------------------------------------------------------------------------
# harmonic seeds (q = 0 fixtures)

def _sin_exp(p: Point3):
    x, y, _ = p
    return np.sin(x) * np.exp(y)


_HARMONIC_FORMS: dict = {
    "x": lambda p: p.x,
    "y": lambda p: p.y,
    "z": lambda p: p.z,
    "x+y+z": lambda p: p.x + p.y + p.z,
    "xyz": lambda p: p.x * p.y * p.z,
    "sin-exp": _sin_exp,
}

HARMONIC_IDS = tuple(sorted(_HARMONIC_FORMS))


def harmonic_seed(name: str) -> HarmonicSeed:
    try:
        form = _HARMONIC_FORMS[name]
    except KeyError:
        raise ValueError(f"unknown harmonic seed {name!r}; available: {HARMONIC_IDS}")
    return HarmonicSeed(name, ScalarField(form, vectorized=True))


def harmonic_family(seed: HarmonicSeed) -> RiccatiInstance:
    """Zero-potential instance Q = -grad psi / psi from a harmonic seed."""
    zero_q = ScalarField(lambda p: 0j, seed.psi.domain, vectorized=True)
    return cole_hopf(SchrodingerInstance(seed.psi, zero_q))


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


def _family_params(solution_id: str, given: dict, **defaults) -> dict:
    """The defaults updated by the given parameters, as floats; a parameter
    the family does not have raises ValueError."""
    foreign = sorted(set(given) - set(defaults))
    if foreign:
        raise ValueError(f"{solution_id!r} takes no parameter {', '.join(foreign)}")
    return {name: float(given.get(name, value)) for name, value in defaults.items()}


def catalog_entry(solution_id: str, margin: float = DEFAULT_MARGIN,
                  **params) -> CatalogEntry:
    """Build a catalog entry by name.

    Names: "rotational" (k, c, C), "conical" (C1, C2, C) and
    "harmonic:<id>" with <id> one of HARMONIC_IDS (no parameters).  A
    parameter of another family, or a non-finite one, raises ValueError.
    """
    if not (math.isfinite(margin) and margin > 0):
        raise ValueError(f"margin must be finite and positive, got {margin!r}")
    if solution_id == "rotational":
        rp = RotationalParams(**_family_params(solution_id, params, k=1.0, c=0.0, C=1.0))
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
        cp = ConicalParams(**_family_params(solution_id, params, C1=0.0, C2=math.e, C=1.0))
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
        _family_params(solution_id, params)
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
