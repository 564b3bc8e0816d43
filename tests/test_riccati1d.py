"""Classical 1-D Riccati toolkit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati3d.errors import ZeroCrossing
from riccati3d.riccati1d import (
    Coefficients1D,
    cross_ratio,
    d1,
    euler_first,
    euler_second,
    factorization_1d_residual,
    integrate,
    linearize_check,
    picard_equiv_residual,
    superposition,
)

DECAY = Coefficients1D(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0)   # y' = -y^2
TANGENT = Coefficients1D(lambda x: 1.0, lambda x: 0.0, lambda x: 1.0)  # y' = 1 + y^2


def test_integrate_inverse_x():
    path = integrate(DECAY, 1.0, 1.0, 2.0, 1e-4)
    assert not path.hit_singularity
    assert abs(path.ys[-1] - 0.5) < 1e-8


def test_integrate_tangent():
    path = integrate(TANGENT, 0.0, 0.0, 0.5, 1e-4)
    assert abs(path.ys[-1] - math.tan(0.5)) < 1e-8


def test_integrate_zero_initial_condition_stays_zero():
    path = integrate(DECAY, 0.0, 0.0, 2.0, 1e-3)
    assert np.max(np.abs(path.ys)) == 0.0


def test_integrate_movable_singularity_flagged():
    path = integrate(TANGENT, 0.0, 0.0, 3.0, 1e-4)
    assert path.hit_singularity
    assert path.xs[-1] < 1.6            # stops near the pole at pi/2
    assert abs(path.xs[-1] - math.pi / 2) < 0.01


def test_integrate_backwards():
    path = integrate(DECAY, 2.0, 0.5, 1.0, 1e-4)
    assert abs(path.ys[-1] - 1.0) < 1e-8


def test_integrate_validates_step():
    with pytest.raises(ValueError):
        integrate(DECAY, 0.0, 1.0, 1.0, 0.0)


def test_linearize_check_trivial():
    c = Coefficients1D(lambda x: 0.0, lambda x: 0.0, lambda x: -1.0)
    lin, ric = linearize_check(c, lambda x: x, 1.3)
    assert abs(lin) < 1e-10
    assert abs(ric) < 1e-10


def test_linearize_check_cosh():
    # u'' = q u with q = 1: u = cosh, y = u'/u = tanh solves y' + y^2 = q
    c = Coefficients1D(lambda x: 1.0, lambda x: 0.0, lambda x: -1.0)
    lin, ric = linearize_check(c, math.cosh, 0.7)
    assert abs(lin) < 1e-8
    assert abs(ric) < 1e-8


def test_linearize_check_detects_wrong_u():
    c = Coefficients1D(lambda x: 1.0, lambda x: 0.0, lambda x: -1.0)
    lin, _ = linearize_check(c, lambda x: x ** 2 + 1.0, 0.7)
    assert abs(lin) > 0.1


def test_euler_first_hand_example():
    # y' = -y^2, y1 = 0, u0 = 1 at x = 0: u = x + 1, y = 1/(x + 1)
    y = euler_first(DECAY, lambda x: 0.0, 1.0, (0.0, 2.0))
    for x in (0.25, 1.0, 1.75):
        assert abs(y(x) - 1.0 / (x + 1.0)) < 1e-10


def test_euler_first_tan_family():
    y1 = math.tan
    y = euler_first(TANGENT, y1, 2.0, (0.0, 0.6))
    for x in (0.1, 0.3, 0.55):
        resid = d1(y, x) - TANGENT.rhs(x, y(x))
        assert abs(resid) < 1e-6


def test_euler_first_large_u0_recovers_particular():
    y = euler_first(DECAY, lambda x: 0.0, 1e8, (0.0, 1.0))
    assert abs(y(0.5)) < 1e-7


def test_euler_second_solves_equation():
    y = euler_second(lambda x: 1.0 / x, lambda x: 0.0, DECAY, 0.5, (0.5, 2.5))
    for x in (0.8, 1.4, 2.2):
        assert abs(d1(y, x) - DECAY.rhs(x, y(x))) < 1e-6
    y2 = euler_second(lambda x: 1.0 / x, lambda x: 0.0, DECAY, 2.0, (0.5, 2.5))
    for x in (0.8, 1.4, 2.2):
        assert abs(d1(y2, x) - DECAY.rhs(x, y2(x))) < 1e-6


def test_euler_second_large_k_limit():
    y = euler_second(lambda x: 1.0 / x, lambda x: 0.0, DECAY, 1e8, (0.5, 2.5))
    assert abs(y(1.3)) < 1e-6            # approaches y2 = 0


def test_superposition_exact_k_zero():
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0)]
    y = superposition(*fns, 0.0)
    assert y(1.3) == fns[0](1.3)


def test_superposition_solves_equation():
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0)]
    y = superposition(*fns, 3.0)
    for x in np.linspace(0.5, 2.0, 9):
        assert abs(d1(y, x) - DECAY.rhs(x, y(x))) < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(-3.0, -0.1))
@example(k=0.25, neg=-1.0)       # y = 1/(x-1): pole 0.1 from x = 1.1
@example(k=0.265625, neg=-1.0)   # pole 0.033 from x = 1.1
@example(k=0.5, neg=-1.0)        # y = 0 up to rounding: 1/C = 0
def test_superposition_any_k_solves(k, neg):
    # every solution of y' = -y^2 is 1/(x + C) or 0, so y/(1 - x y) = 1/C is
    # one constant across x (0 for y = 0); unlike a difference quotient this
    # has no truncation error near the pole of y.  1/C rather than
    # C = 1/y - x, since C loses every digit as y -> 0 near k = 1/2.
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0)]
    for kk in (k, neg):
        y = superposition(*fns, kk)
        inv_c = [y(x) / (1.0 - x * y(x)) for x in (0.9, 1.1, 1.3)]
        assert max(inv_c) - min(inv_c) <= 1e-9 * max(1.0, abs(inv_c[1]))


def test_cross_ratio_constant_and_degenerate():
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0, 3.0)]
    vals = [cross_ratio(*fns, x) for x in np.linspace(0.5, 2.0, 11)]
    assert max(vals) - min(vals) < 1e-6
    assert cross_ratio(fns[0], fns[1], fns[2], fns[1], 1.2) == pytest.approx(1.0)


def test_picard_equiv_residual_small():
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0, 3.0)]
    for x in np.linspace(0.5, 2.0, 20):
        assert abs(picard_equiv_residual(*fns, x)) < 1e-6


def test_picard_equiv_detects_nonsolution():
    fns = [lambda x, cc=cc: 1.0 / (x + cc) for cc in (0.0, 1.0, 2.0)]
    bad = lambda x: 1.0 / (x + 3.0) + 0.3 * x
    assert abs(picard_equiv_residual(*fns, bad, 1.1)) > 1e-3


def test_cross_ratio_zero_crossing():
    same = lambda x: 1.0 / x
    with pytest.raises(ZeroCrossing):
        cross_ratio(same, lambda x: 0.0, lambda x: 1.0, same, 1.0)


def test_factorization_1d():
    assert abs(factorization_1d_residual(
        lambda x: 0.0, lambda x: 1.0 / x, math.sin, 1.3)) < 1e-7
    assert abs(factorization_1d_residual(
        lambda x: 1.0, math.tanh, lambda x: x ** 3 + x, 0.8)) < 1e-7
    # y = x has y' + y^2 = 1 + x^2 != 0: residual equals (1 + x^2) u
    val = factorization_1d_residual(lambda x: 0.0, lambda x: x, lambda x: 1.0, 1.2)
    assert abs(val + (1.0 + 1.2 ** 2)) < 1e-7
