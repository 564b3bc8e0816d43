"""The registry checks that run on (4, N) batches, against the per-sample
loops they replaced: the same samples bit for bit, the loops' residuals to
round-off, and the power to see a broken product or a dropped Leibniz term."""

import math

import numpy as np
import pytest

from riccati3d import biquat, verify
from riccati3d.biquat import Biquaternion, max_component_diff, mul
from riccati3d.errors import ZeroDivisor
from riccati3d.fields import Point3, QuaternionField, ScalarField, dirac_left, grad
from riccati3d.report import RunConfig
from riccati3d.riccati import factorization_residual

# the algebra rows that run on batches, in registry order
_BATCHED = ("product_vs_basis_oracle", "associativity", "distributivity",
            "conjugation_antihomomorphism", "modulus_multiplicative",
            "complex_unit_central", "inverse_roundtrip")


def _one_sample(body):
    """A component body (``_product``, ``_conj``, ...) on Biquaternions,
    each held as one sample of length-1 arrays while ``body`` runs: numpy's
    complex loops may fuse a multiply and an add where Python's complex
    arithmetic does not, so only this way does a sample round as it rounds
    in a batch."""
    def run(*qs):
        out = body(*(np.array(q.components)[:, None] for q in qs))
        return Biquaternion(*(c[0] for c in out)) if len(out) == 4 else complex(out[0])
    return run


def _loop_algebra(config: RunConfig, seen: list, row_stream) -> dict:
    """The algebra rows of ``_BATCHED`` as the per-sample loops that once
    computed them, each on its row's own stream, each draw's four components
    appended to ``seen``."""
    rng = None
    mul, conj_h, modulus_sq, inverse, basis_product_oracle = (_one_sample(body) for body in (
        biquat._product, biquat._conj, biquat._modulus_sq, biquat._inverse,
        verify._basis_product_oracle))

    def draw() -> Biquaternion:
        c = rng.uniform(-1, 1, 8)
        q = Biquaternion(complex(c[0], c[1]), complex(c[2], c[3]),
                         complex(c[4], c[5]), complex(c[6], c[7]))
        seen.append(q.components)
        return q

    def rel_diff(a, b) -> float:
        return max_component_diff(a, b) / max(1.0, a.max_abs(), b.max_abs())

    def product_vs_oracle():
        worst = 0.0
        for _ in range(500):
            a, b = draw(), draw()
            oracle = basis_product_oracle(a, b)
            worst = max(worst, rel_diff(mul(a, b), oracle))
        return worst, 500

    def associativity():
        worst = 0.0
        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            worst = max(worst, rel_diff(mul(mul(a, b), c), mul(a, mul(b, c))))
        return worst, 1000

    def distributivity():
        worst = 0.0
        for _ in range(1000):
            a, b, c = draw(), draw(), draw()
            worst = max(worst, rel_diff(mul(a, b + c), mul(a, b) + mul(a, c)))
        return worst, 1000

    def conj_antihom():
        worst = 0.0
        for _ in range(1000):
            a, b = draw(), draw()
            worst = max(worst, rel_diff(conj_h(mul(a, b)), mul(conj_h(b), conj_h(a))))
        return worst, 1000

    def modulus_multiplicative():
        worst = 0.0
        for _ in range(1000):
            a, b = draw(), draw()
            lhs = modulus_sq(mul(a, b))
            rhs = complex(np.multiply(modulus_sq(a), modulus_sq(b)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        return worst, 1000

    def complex_unit_central():
        worst = 0.0
        for _ in range(1000):
            a, b = draw(), draw()
            worst = max(worst, rel_diff(mul(1j * a, b), 1j * mul(a, b)))
            worst = max(worst, rel_diff(mul(a, 1j * b), 1j * mul(a, b)))
        return worst, 1000

    def inverse_roundtrip():
        one = Biquaternion(1)
        worst = 0.0
        count = 0
        while count < 200:
            a = draw()
            try:
                ai = inverse(a)
            except ZeroDivisor:
                continue
            count += 1
            worst = max(worst, max_component_diff(mul(a, ai), one),
                        max_component_diff(mul(ai, a), one))
        try:
            inverse(Biquaternion(1j, 1))
            worst = max(worst, 1.0)
        except ZeroDivisor:
            pass
        return worst, 200

    def on_own_stream(name, loop):
        def run():
            nonlocal rng
            rng = row_stream(config.seed, "algebra", name)[0]
            return loop()
        return run

    return {name: on_own_stream(name, loop) for name, loop in zip(
        _BATCHED, (product_vs_oracle, associativity, distributivity, conj_antihom,
                   modulus_multiplicative, complex_unit_central, inverse_roundtrip))}


def _rows(checks, seen: list, as_rows) -> dict:
    """name -> (residual, samples, every draw of the row as (M, 4) rows)."""
    out = {}
    for name, fn in checks:
        start = len(seen)
        resid, samples = fn()
        out[name] = resid, samples, as_rows(seen[start:])
    return out


def _loop_rows(config: RunConfig, row_stream) -> dict:
    seen = []
    return _rows(_loop_algebra(config, seen, row_stream).items(), seen,
                 lambda s: np.array(s, dtype=complex).reshape(-1, 4))


def _batched_rows(config: RunConfig, monkeypatch, run_row) -> dict:
    seen = []
    draw = verify._random_biqs

    def recorded(rng, n, k=1):
        out = draw(rng, n, k)
        seen.append(out.transpose(2, 0, 1).reshape(-1, 4))  # draw order
        return out

    monkeypatch.setattr(verify, "_random_biqs", recorded)
    registry = verify.suite_algebra(config)

    def run(name):
        row = run_row(registry, config, "algebra", name)
        return row.max_abs_residual, row.samples

    checks = [(name, lambda name=name: run(name)) for name, _, _ in registry if name in _BATCHED]
    return _rows(checks, seen, np.concatenate)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batched_algebra_draws_the_loop_samples_and_reads_its_residuals(seed, monkeypatch,
                                                                        row_stream, run_row):
    config = RunConfig(seed=seed)
    loop, batched = _loop_rows(config, row_stream), _batched_rows(config, monkeypatch, run_row)
    assert list(batched) == list(_BATCHED)
    for name in _BATCHED:
        (r_loop, n_loop, s_loop), (r_batch, n_batch, s_batch) = loop[name], batched[name]
        assert n_batch == n_loop
        assert s_batch.tobytes() == s_loop.tobytes(), name
        assert abs(r_batch - r_loop) <= 1e-15, name


def test_inverse_roundtrip_replaces_rejected_draws_in_stream_order(monkeypatch, row_stream,
                                                                    run_row):
    # at EPS_INV = 0.3 about one draw in 27 has no inverse; both forms of
    # the check then keep the first 200 invertible draws of the same stream
    monkeypatch.setattr(biquat, "EPS_INV", 0.3)
    config = RunConfig(seed=0)
    loop, batched = _loop_rows(config, row_stream), _batched_rows(config, monkeypatch, run_row)
    (r_loop, _, s_loop), (r_batch, _, s_batch) = loop["inverse_roundtrip"], \
        batched["inverse_roundtrip"]
    assert len(s_loop) > 200
    assert s_batch.tobytes() == s_loop.tobytes()
    assert abs(r_batch - r_loop) <= 1e-15


def test_rel_diff_scales_each_sample_by_its_own_size():
    # a scale taken over the whole batch would read the small sample's
    # error 1e-3 as 1e-9 next to a sample of size 1e6
    a = np.zeros((4, 2), complex)
    a[0] = 1e6, 1.0
    b = a.copy()
    b[0, 1] += 1e-3
    assert verify._rel_diff(a, b).tolist() == pytest.approx([0.0, 1e-3 / 1.001])


def _e3_sign_mutant(a, b):
    """``biquat._product`` with the sign of a2 b1 in the e3 term flipped."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def test_basis_oracle_sees_a_broken_product(monkeypatch, run_row):
    # the array oracle shares no code with the product it checks
    for module in (biquat, verify):
        monkeypatch.setattr(module, "_product", _e3_sign_mutant)
    config = RunConfig(seed=0)
    row = run_row(verify.suite_algebra(config), config, "algebra", "product_vs_basis_oracle")
    assert row.max_abs_residual > 1e6 * row.tolerance


# -- operators/scalar_leibniz: one batch of 30 points, each with its cubics

_BOX = (Point3(-1.2, -1.2, -1.2), Point3(1.2, 1.2, 1.2))  # the operators suite's box


def _loop_scalar_leibniz(config: RunConfig, seen: list, row_stream, loop_halton):
    """scalar_leibniz as the per-point loop that once computed it, on the
    row's own streams, with D(f0 psi), grad f0 and D psi at each point
    appended to ``seen``."""
    rng, start = row_stream(config.seed, "operators", "scalar_leibniz")
    scheme = config.scheme
    worst = 0.0
    for p in loop_halton(_BOX, 30, start):
        f0 = verify._random_poly3(rng)
        psi = verify._random_quat_poly(rng)
        prod = QuaternionField(lambda t: (f0(t) * psi(t)).components)
        lhs = dirac_left(prod, p, scheme)
        g = grad(ScalarField(f0), p, scheme)
        d_psi = dirac_left(psi, p, scheme)
        seen.append((lhs.components, g, d_psi.components))
        rhs = mul(Biquaternion.from_vector(g), psi(p)) + f0(p) * d_psi
        worst = max(worst, max_component_diff(lhs, rhs))
    return worst, 30


def _scalar_leibniz(config: RunConfig, run_row):
    """The registry's scalar_leibniz run alone, as its CheckResult."""
    return run_row(verify.suite_operators(config), config, "operators", "scalar_leibniz")


def _recording(op, log: list):
    def recorded(*args):
        log.append(op(*args))
        return log[-1]
    return recorded


def test_batched_scalar_leibniz_matches_the_per_point_loop(monkeypatch, row_stream,
                                                           loop_halton, run_row):
    config = RunConfig(seed=0)
    seen = []
    r_loop, _ = _loop_scalar_leibniz(config, seen, row_stream, loop_halton)
    recorded = {"dirac_left": [], "grad": []}
    for name, op in (("dirac_left", dirac_left), ("grad", grad)):
        monkeypatch.setattr(verify, name, _recording(op, recorded[name]))
    row = _scalar_leibniz(config, run_row)
    r_batch, samples = row.max_abs_residual, row.samples
    assert samples == 30
    (lhs, d_psi), (g,) = recorded["dirac_left"], recorded["grad"]
    for batch, loop in zip((lhs, g, d_psi), zip(*seen)):
        loop = np.array(loop, dtype=complex).T
        assert batch.shape == loop.shape
        assert np.all(np.abs(batch - loop) <= 1e-12 * np.maximum(1.0, np.abs(loop)))
    assert abs(r_batch - r_loop) <= 1e-12


def test_scalar_leibniz_sees_a_dropped_gradient_term(monkeypatch, run_row):
    # grad f0 . psi is the only term of the right-hand side that grad gives
    monkeypatch.setattr(verify, "grad", lambda f, p, scheme: np.zeros((3,) + p.x.shape))
    row = _scalar_leibniz(RunConfig(seed=0), run_row)
    assert row.max_abs_residual > 1e3 * row.tolerance


# -- riccati/factorization_*: one batch per entry, each point with its probe

def test_factorization_rows_draw_the_loop_probes(monkeypatch, row_stream, run_row):
    # the loops drew (a, b, c) for each point in turn and evaluated
    # exp(a x + b y + c z) with math.exp; the batches draw the same stream,
    # each row its own
    config = RunConfig(seed=1)
    scheme = config.scheme
    calls = []

    def recorded(psi, inst, P, scheme):
        calls.append((psi, inst, P))
        return factorization_residual(psi, inst, P, scheme)

    monkeypatch.setattr(verify, "factorization_residual", recorded)
    registry = verify.suite_riccati(config)
    run_row(registry, config, "riccati", "factorization_on_solutions")
    smallest = run_row(registry, config, "riccati",
                       "factorization_nonsolution_detection").max_abs_residual
    assert [P.x.size for _, _, P in calls] == [10, 10, 5]
    rngs = [row_stream(config.seed, "riccati", name)[0] for name in
            ("factorization_on_solutions", "factorization_nonsolution_detection")]
    for (psi, inst, P), rng in zip(calls, rngs[:1] * 2 + rngs[1:]):
        values, defects = psi.batch(P), []
        for i, p in enumerate(zip(*(c.tolist() for c in P))):
            a, b, c = rng.uniform(-0.4, 0.4, 3)
            probe = ScalarField(lambda t: complex(math.exp(a * t.x + b * t.y + c * t.z)))
            assert abs(values[i] - probe(Point3(*p))) <= 1e-15 * abs(values[i])
            left, right = factorization_residual(probe, inst, Point3(*p), scheme)
            defects.append(max(left.max_abs(), right.max_abs()))
    # the detection row's defect (the last batch) is O(1); exp's last bits,
    # differenced twice at h = 1e-3, move it by about 1e-9 of itself
    assert abs(smallest - min(defects)) <= 1e-8 * smallest


def test_row_recorder_keeps_the_extreme_and_fails_a_row_without_a_value():
    # one rule for every row: the largest residual, or the smallest on a
    # _detection row; a NaN anywhere reads NaN; a row that records nothing fails
    config = RunConfig(seed=0)

    def rows(*records):
        return [lambda row, r=r: [row.record(*args) for args in r] for r in records]

    checks = rows([([1e-9, 3e-9],), (2e-9,)], [([5.0, 2.0],), (7.0, 0)],
                  [([1e-9, math.nan],), (0.0,)], [])
    names = ["largest", "smallest_detection", "nan", "empty_detection"]
    out = verify._run_checks([(n, 1.0, fn) for n, fn in zip(names, checks)], config, "x")
    assert [(c.max_abs_residual, c.samples, c.passed) for c in out[:2]] == [
        (3e-9, 3, True), (2.0, 2, True)]
    assert [(math.isnan(c.max_abs_residual), c.passed) for c in out[2:]] == [
        (True, False), (True, False)]
