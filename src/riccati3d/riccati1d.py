"""Classical one-dimensional Riccati toolkit.

y' = p0(x) + p1(x) y + p2(x) y^2 with p2 != 0: integration, linearization,
both Euler constructions, the Lie superposition formula, the cross-ratio
form of the four-solution theorem and its logarithmic-derivative
equivalent, and the 1-D operator factorization.  Used as the independent
oracle for the spatial module's design choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ZeroCrossing

__all__ = [
    "Coefficients1D",
    "Path1D",
    "integrate",
    "linearize_check",
    "euler_first",
    "euler_second",
    "superposition",
    "cross_ratio",
    "picard_equiv_residual",
    "factorization_1d_residual",
    "d1",
    "d2",
]

BLOWUP_CAP = 1e6  # |y| beyond this truncates an integration as a blow-up
EULER_STEP = 1e-3  # grid step of both Euler constructions
EPS_GUARD = 1e-12  # a divisor at or below this in modulus raises ZeroCrossing

Fn = Callable[[float], float]


@dataclass(frozen=True)
class Coefficients1D:
    """Coefficient functions of y' = p0 + p1 y + p2 y^2 (p2 nonvanishing)."""

    p0: Fn
    p1: Fn
    p2: Fn

    def rhs(self, x: float, y: float) -> float:
        return self.p0(x) + self.p1(x) * y + self.p2(x) * y * y


@dataclass(frozen=True)
class Path1D:
    """Integration output; hit_singularity marks a blow-up truncation.

    Riccati solutions have movable poles, so running into the cap is
    expected behavior, reported rather than stepped over.
    """

    xs: np.ndarray
    ys: np.ndarray
    hit_singularity: bool = False


def _rk4_step(f, x: float, y: float, h: float) -> float:
    k1 = f(x, y)
    k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(x + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(c: Coefficients1D, x0: float, y0: float, x1: float, step: float) -> Path1D:
    """Classic fixed-step 4th-order integration from (x0, y0) towards x1.

    Truncates with hit_singularity=True as soon as |y| exceeds BLOWUP_CAP.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(1, int(math.ceil(abs(x1 - x0) / step)))
    h = (x1 - x0) / n
    xs = [x0]
    ys = [y0]
    y = y0
    for i in range(n):
        y = _rk4_step(c.rhs, x0 + i * h, y, h)
        if not math.isfinite(y) or abs(y) > BLOWUP_CAP:
            return Path1D(np.array(xs), np.array(ys), hit_singularity=True)
        xs.append(x0 + (i + 1) * h)
        ys.append(y)
    return Path1D(np.array(xs), np.array(ys))


# --------------------------------------------------------------------------
# 1-D finite differences: order-4 central stencils at relative steps hh and
# hh/2, combined by Richardson extrapolation (16 D_{hh/2} - D_hh) / 15, which
# cancels the h^4 term of the truncation error

def _d1_stencil(f: Fn, x: float, hh: float) -> float:
    return (f(x - 2 * hh) - f(x + 2 * hh) + 8.0 * (f(x + hh) - f(x - hh))) / (12.0 * hh)


def _d2_stencil(f: Fn, x: float, hh: float) -> float:
    return (-f(x + 2 * hh) + 16.0 * f(x + hh) - 30.0 * f(x)
            + 16.0 * f(x - hh) - f(x - 2 * hh)) / (12.0 * hh * hh)


def d1(f: Fn, x: float, h: float = 1e-3) -> float:
    hh = h * max(1.0, abs(x))
    return (16.0 * _d1_stencil(f, x, 0.5 * hh) - _d1_stencil(f, x, hh)) / 15.0


def d2(f: Fn, x: float, h: float = 1e-3) -> float:
    hh = h * max(1.0, abs(x))
    return (16.0 * _d2_stencil(f, x, 0.5 * hh) - _d2_stencil(f, x, hh)) / 15.0


def _guard(value: float, what: str) -> float:
    if abs(value) <= EPS_GUARD:
        raise ZeroCrossing(f"{what} = {value} vanished")
    return value


def linearize_check(c: Coefficients1D, u: Fn, x: float):
    """Residuals of the linearization pair at x.

    Returns (linear residual of u'' - (p1 + p2'/p2) u' + p0 p2 u,
             Riccati residual of y = -u'/(p2 u)).
    The first vanishing implies the second.
    """
    p2x = _guard(c.p2(x), "p2")
    lin = d2(u, x) - (c.p1(x) + d1(c.p2, x) / p2x) * d1(u, x) + c.p0(x) * c.p2(x) * u(x)

    def y(t: float) -> float:
        return -d1(u, t) / (_guard(c.p2(t), "p2") * _guard(u(t), "u"))

    ric = d1(y, x) - c.rhs(x, y(x))
    return lin, ric


class _GridFunction:
    """Dense solution grid with local 4th-order refinement at call time.

    Calling at an off-grid x re-integrates from the nearest grid node below,
    so values stay smooth to the scheme's order everywhere in the range.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, rhs):
        self.xs = xs
        self.ys = ys
        self.rhs = rhs

    def __call__(self, x: float) -> float:
        xs = self.xs
        if not (min(xs[0], xs[-1]) - 1e-12 <= x <= max(xs[0], xs[-1]) + 1e-12):
            raise ValueError(f"x = {x} outside integration range [{xs[0]}, {xs[-1]}]")
        idx = int(np.searchsorted(xs, x, side="right")) - 1
        idx = min(max(idx, 0), len(xs) - 1)
        y = self.ys[idx]
        dx = x - xs[idx]
        if dx != 0.0:
            y = _rk4_step(self.rhs, xs[idx], y, dx)
        return float(y)


def euler_first(c: Coefficients1D, y1: Fn, u0: float, x_range) -> Fn:
    """General solution from one particular solution y1.

    Integrates u' + (2 y1 p2 + p1) u + p2 = 0 from u(x_range[0]) = u0 and
    returns y = y1 + 1/u.  ZeroCrossing where u vanishes.
    """
    a, b = float(x_range[0]), float(x_range[1])

    def u_rhs(x: float, u: float) -> float:
        return -(2.0 * y1(x) * c.p2(x) + c.p1(x)) * u - c.p2(x)

    n = max(2, int(math.ceil((b - a) / EULER_STEP)))
    xs = np.linspace(a, b, n + 1)
    ys = np.empty_like(xs)
    ys[0] = u0
    for i in range(n):
        ys[i + 1] = _rk4_step(u_rhs, xs[i], ys[i], xs[i + 1] - xs[i])
    u = _GridFunction(xs, ys, u_rhs)

    def y(x: float) -> float:
        return y1(x) + 1.0 / _guard(u(x), "u")

    return y


def euler_second(y1: Fn, y2: Fn, c: Coefficients1D, k: float, x_range) -> Fn:
    """General solution from two particular solutions, one quadrature.

    y = (k y2 E - y1)/(k E - 1) with E = exp(int p2 (y1 - y2) dx), the
    integral accumulated by composite Simpson on the grid from x_range[0].
    """
    a, b = float(x_range[0]), float(x_range[1])

    def g(x: float) -> float:
        return c.p2(x) * (y1(x) - y2(x))

    n = max(2, int(math.ceil((b - a) / EULER_STEP)))
    xs = np.linspace(a, b, n + 1)
    acc = np.empty_like(xs)
    acc[0] = 0.0
    for i in range(n):
        h = xs[i + 1] - xs[i]
        acc[i + 1] = acc[i] + h / 6.0 * (g(xs[i]) + 4.0 * g(xs[i] + 0.5 * h) + g(xs[i + 1]))

    def integral(x: float) -> float:
        idx = int(np.searchsorted(xs, x, side="right")) - 1
        idx = min(max(idx, 0), len(xs) - 1)
        h = x - xs[idx]
        if h == 0.0:
            return float(acc[idx])
        return float(acc[idx] + h / 6.0 * (g(xs[idx]) + 4.0 * g(xs[idx] + 0.5 * h) + g(x)))

    def y(x: float) -> float:
        E = math.exp(integral(x))
        den = _guard(k * E - 1.0, "k E - 1")
        return (k * y2(x) * E - y1(x)) / den

    return y


def superposition(y1: Fn, y2: Fn, y3: Fn, k: float) -> Fn:
    """Lie's integration-free superposition of three particular solutions."""
    def y(x: float) -> float:
        a, b, c_ = y1(x), y2(x), y3(x)
        den = _guard((c_ - b) + k * (a - c_), "superposition denominator")
        return (a * (c_ - b) + k * b * (a - c_)) / den
    return y


def cross_ratio(y1: Fn, y2: Fn, y3: Fn, y4: Fn, x: float) -> float:
    """(y1-y2)(y3-y4) / ((y1-y4)(y3-y2)); constant in x for four solutions."""
    den = _guard((y1(x) - y4(x)) * (y3(x) - y2(x)), "cross-ratio denominator")
    return (y1(x) - y2(x)) * (y3(x) - y4(x)) / den


def picard_equiv_residual(y1: Fn, y2: Fn, y3: Fn, y4: Fn, x: float) -> float:
    """Logarithmic-derivative form of the four-solution identity.

    (y1-y2)'/(y1-y2) + (y3-y4)'/(y3-y4) - (y1-y4)'/(y1-y4) - (y3-y2)'/(y3-y2).
    """
    def log_deriv(f: Fn, g: Fn) -> float:
        diff = lambda t: f(t) - g(t)
        return d1(diff, x) / _guard(diff(x), "solution difference")

    return (log_deriv(y1, y2) + log_deriv(y3, y4)
            - log_deriv(y1, y4) - log_deriv(y3, y2))


def factorization_1d_residual(q: Fn, y: Fn, u: Fn, x: float) -> float:
    """Defect of (-d^2/dx^2 + q) u = -(d/dx + y)(d/dx - y) u at x.

    Vanishes for every smooth probe u exactly when y' + y^2 = q; both sides
    are evaluated by independent differencing so nothing cancels by
    construction.
    """
    lhs = -d2(u, x) + q(x) * u(x)

    def v(t: float) -> float:
        return d1(u, t) - y(t) * u(t)

    rhs = -(d1(v, x) + y(x) * v(x))
    return lhs - rhs
