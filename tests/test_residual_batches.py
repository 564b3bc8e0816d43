"""The residual functions over a batch of points against their point path,
the errors a batch raises, and the Halton sampler's memo and block
predicate against the per-point loop they replaced."""

import numpy as np
import pytest

from riccati3d import verify
from riccati3d.biquat import Biquaternion
from riccati3d.errors import ConfigError, NonRealPotential, NotPureVector, ZeroCrossing
from riccati3d.fields import DiffScheme, Point3, QuaternionField, ScalarField, VectorField, vec3
from riccati3d.riccati import (
    RiccatiInstance,
    component_residuals,
    euler_residual,
    factorization_residual,
    vekua_residual,
    w_equation_residual,
)
from riccati3d.symmetry import (
    GeneratorParams,
    determining_residual,
    invariant_potential,
    single_parameter,
)
from riccati3d.verify import _TABLE_F, halton_points

S = DiffScheme()
PTS = halton_points((Point3(0.3, -0.8, -0.6), Point3(1.1, 0.7, 0.9)), 6, 5)


def _batch(pts, shape=(2, 3)) -> Point3:
    return Point3(*(np.array(c).reshape(shape) for c in zip(*pts)))


P = _batch(PTS)

# numpy lambdas: one evaluator serves a point and a batch
PHI = ScalarField(lambda p: np.exp(0.3 * p.x) * (2 + np.sin(p.y)) + 0.2j * p.z,
                  vectorized=True)
W = QuaternionField(lambda p: [p.x * p.y, np.cos(p.z), 1j * p.x, np.exp(-p.y)],
                    vectorized=True)
W0 = ScalarField(lambda p: p.x * p.y + 0j, vectorized=True)
WV = VectorField(lambda p: vec3(p.y * p.z, np.exp(p.x), p.x - 2j * p.y), vectorized=True)
WQ = QuaternionField(lambda p: [0.0, p.y * p.z, np.exp(p.x), p.x - 2j * p.y],
                     vectorized=True)
INST = RiccatiInstance(VectorField(lambda p: vec3(p.x * p.y, np.sin(p.z), 1j * p.x),
                                   vectorized=True),
                       ScalarField(lambda p: p.x + p.y + 0.5j, vectorized=True))


def _rows(batch) -> np.ndarray:
    """A (..., 2, 3) batch as one row of components per point, in C order."""
    batch = np.asarray(batch)
    return np.moveaxis(batch.reshape(batch.shape[:-2] + (-1,)), -1, 0)


# (name, call, type at a point, tolerance): the products and quotients of
# complex arrays may round unlike Python's in the last bits, which the
# residual's stencil divides by h (component_residuals: by h twice)
CASES = [
    ("vekua", lambda p: vekua_residual(W, PHI, p, S), Biquaternion, 1e-13),
    ("euler", lambda p: euler_residual(W, INST.Q, p, S), Biquaternion, 1e-13),
    ("w_equation_vector", lambda p: w_equation_residual(WV, PHI, p, S), Biquaternion, 1e-13),
    ("w_equation_quaternion", lambda p: w_equation_residual(WQ, PHI, p, S), Biquaternion,
     1e-13),
    ("factorization_left", lambda p: factorization_residual(PHI, INST, p, S)[0],
     Biquaternion, 1e-13),
    ("factorization_right", lambda p: factorization_residual(PHI, INST, p, S)[1],
     Biquaternion, 1e-13),
    ("component_c1", lambda p: component_residuals(W0, WV, PHI, p, S)[0], complex, 1e-8),
    ("component_c2", lambda p: component_residuals(W0, WV, PHI, p, S)[1], np.ndarray, 1e-8),
]


@pytest.mark.parametrize("name, call, kind, tol", CASES, ids=[c[0] for c in CASES])
def test_batch_equals_the_point_path_at_every_point(name, call, kind, tol):
    rows = _rows(call(P))
    assert len(rows) == len(PTS)
    for row, p in zip(rows, PTS):
        point = call(p)
        assert type(point) is kind
        want = np.array(point.components if kind is Biquaternion else point, dtype=complex)
        assert np.all(np.abs(row - want) <= tol * max(1.0, np.abs(want).max())), name


@pytest.mark.parametrize("k", range(1, 11))
def test_determining_batch_equals_the_point_path_bitwise(k):
    # real arithmetic only: numpy rounds each operation as Python does
    q = invariant_potential(k, _TABLE_F[k])
    for params in (single_parameter(k), GeneratorParams(a1=0.3, a5=1.0, a9=-0.5)):
        rows = _rows(determining_residual(params, q, P, S))
        assert rows.tobytes() == np.array(
            [determining_residual(params, q, p, S) for p in PTS]).tobytes()


# -- errors over a batch: the first failing point in ``index``, every one in
# ``where``, with the message of the call at that point alone

def _raised(call, p):
    with pytest.raises(Exception) as info:
        call(p)
    return info.value


def _check_batch_error(call, pts, bad, error):
    exc = _raised(call, _batch(pts, (len(pts),)))
    assert type(exc) is error
    assert exc.where.tolist() == bad
    assert exc.index == bad.index(True)
    assert str(exc) == str(_raised(call, pts[exc.index]))
    for p, b in zip(pts, bad):
        if not b:
            call(p)  # the other points pass


BAD_PTS = [Point3(0.5, 0.2, 0.1), Point3(-0.4, 0.3, 0.2), Point3(0.7, -0.1, 0.3),
           Point3(-0.6, 0.1, 0.2)]
BAD = [False, True, False, True]


def test_vekua_batch_names_the_first_zero_crossing():
    phi = ScalarField(lambda p: np.where(p.x < 0, 0.0, 1.0 + p.x) + 0j, vectorized=True)
    _check_batch_error(lambda p: vekua_residual(W, phi, p, S), BAD_PTS, BAD, ZeroCrossing)


def test_w_equation_batch_names_the_first_scalar_part():
    w = QuaternionField(lambda p: [np.where(p.x < 0, 0.5, 0.0), p.y, 1.0, p.z],
                        vectorized=True)
    one = ScalarField(lambda p: 1.0 + 0j, vectorized=True)
    _check_batch_error(lambda p: w_equation_residual(w, one, p, S), BAD_PTS, BAD,
                       NotPureVector)


def test_determining_batch_names_the_first_non_real_potential():
    q = ScalarField(lambda p: p.y + np.where(p.x < 0, 0.5j, 0.0), vectorized=True)
    _check_batch_error(lambda p: determining_residual(single_parameter(1), q, p, S),
                       BAD_PTS, BAD, NonRealPotential)


def test_determining_batch_names_the_first_non_real_gradient():
    # where x < 0, q is real on the plane z = 0.2 of the points and grad q is not
    q = ScalarField(lambda p: p.y + np.where(p.x < 0, 1j * (p.z - 0.2), 0.0), vectorized=True)
    _check_batch_error(lambda p: determining_residual(single_parameter(1), q, p, S),
                       BAD_PTS, BAD, NonRealPotential)
    assert "grad q" in str(_raised(lambda p: determining_residual(
        single_parameter(1), q, p, S), BAD_PTS[1]))


# -- Halton sampling

BOX = (Point3(-1.0, -1.0, -1.0), Point3(1.0, 1.0, 1.0))
PREDICATES = {
    "none": lambda p: p.x > 2.0,
    "half-space": lambda p: p.x + p.y > 0.5,
    "most": lambda p: p.x * p.x + p.y * p.y + p.z * p.z > 0.05,  # keeps about 1 draw in 170
    "constant": lambda p: False,
}


@pytest.mark.parametrize("name", PREDICATES)
@pytest.mark.parametrize("seed", [0, 3])
def test_halton_block_predicate_draws_the_loop_points(name, seed, loop_halton):
    excluded = PREDICATES[name]
    calls = []

    def block(P):
        calls.append(P.x.size)
        return excluded(P)

    got = halton_points(BOX, 40, seed, excluded=block)
    assert repr(got) == repr(loop_halton(BOX, 40, 17 + 7919 * seed, excluded))
    assert all(type(c) is float for p in got for c in p)
    assert len(calls) < 20  # blocks, not points


def test_halton_block_predicate_keeps_the_draw_budget(monkeypatch, loop_halton):
    monkeypatch.setattr(verify, "_HALTON_TRIES", 500)
    excluded = PREDICATES["most"]
    assert len(loop_halton(BOX, 3, 17, excluded, tries=500)) == 3
    assert repr(halton_points(BOX, 3, 0, excluded=excluded)) == repr(
        loop_halton(BOX, 3, 17, excluded, tries=500))
    with pytest.raises(ConfigError):
        loop_halton(BOX, 40, 17, excluded, tries=500)
    with pytest.raises(ConfigError):
        halton_points(BOX, 40, 0, excluded=excluded)


@pytest.mark.parametrize("name", PREDICATES)
@pytest.mark.parametrize("seed", [0, 1])
def test_row_points_continue_the_rows_own_halton_sequence(name, seed, row_stream, loop_halton):
    # a row's points start at its own index and each call continues after
    # the last point the call before took, whatever the box of either
    from riccati3d.report import RunConfig
    excluded = PREDICATES[name]
    _, start = row_stream(seed, "symmetry", "transport")
    row = verify._Row(RunConfig(seed=seed), "symmetry", "transport")
    small = (Point3(0.0, 0.0, 0.0), Point3(0.5, 2.0, 1.0))
    got = [row.points(BOX, 7, excluded), row.points(small, 5), row.points(BOX, 30, excluded)]
    resume = start  # the index after the first call's seventh accepted draw
    for _ in range(7):
        while excluded(loop_halton(BOX, 1, resume)[0]):
            resume += 1
        resume += 1
    expect = [loop_halton(BOX, 7, start, excluded), loop_halton(small, 5, resume),
              loop_halton(BOX, 30, resume + 5, excluded)]
    for P, pts in zip(got, expect):
        assert all(c.dtype == float for c in P)
        assert repr([Point3(*p) for p in zip(*(c.tolist() for c in P))]) == repr(pts)
