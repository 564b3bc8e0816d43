"""Session fixtures shared by the test modules."""

import contextlib
import io
import json
import zlib
from typing import NamedTuple

import numpy as np
import pytest

from riccati3d.cli import main
from riccati3d.errors import ConfigError
from riccati3d.fields import Point3


class VerifyRun(NamedTuple):
    code: int        # exit code of the command
    table: str       # the report table it printed
    report: dict     # the JSON report it wrote
    fallback: list   # the size of every batch a field evaluated point by point


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory):
    """``riccati3d verify --suite all`` at the default configuration (seed 0),
    run once per session through the CLI; every acceptance verdict reads it.
    It also records the batches that took ``_Field.batch``'s per-point
    fallback (a field without ``vectorized=True``)."""
    from riccati3d import fields
    path = tmp_path_factory.mktemp("verify") / "all.json"
    out = io.StringIO()
    fallback = []
    batch = fields._Field.batch

    def counted(self, P):
        if not self.vectorized and fields._batched(P):
            fallback.append(P[0].size)
        return batch(self, P)

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(fields._Field, "batch", counted)
        code = main(["verify", "--suite", "all", "--report", str(path)])
    return VerifyRun(code, out.getvalue(), json.loads(path.read_text()), fallback)


@pytest.fixture
def rot_B_passes(monkeypatch):
    """Counters on the potential's passes, one count per target point: the
    Jacobian passes of rot B's jet (order 2) and the value passes of B and
    rot B (orders 0 and 1)."""
    from riccati3d.fields import _NewtonianPotential
    counts = {"value": 0, "jet": 0}
    original = _NewtonianPotential._pass

    def counted(self, p, order):
        counts["jet" if order == 2 else "value"] += 1
        return original(self, p, order)

    monkeypatch.setattr(_NewtonianPotential, "_pass", counted)
    return counts


@pytest.fixture(scope="session")
def run_row():
    """run_row(registry, config, suite, name): the check ``name`` of a
    suite's registry run alone through ``verify._run_checks``, as its
    CheckResult."""
    from riccati3d.verify import _run_checks

    def run(registry, config, suite, name):
        return _run_checks([next(c for c in registry if c[0] == name)], config, suite)[0]
    return run


@pytest.fixture(scope="session")
def row_stream():
    """row_stream(seed, suite, name): the generator a registry row draws
    from and the Halton index its points start at, as README documents
    them, written apart from ``verify._Row``."""
    def streams(seed, suite, name):
        seq = np.random.SeedSequence([seed, zlib.crc32(f"{suite}/{name}".encode())])
        start = 17 + 7919 * seed + int(seq.generate_state(1)[0]) % 7919
        return np.random.default_rng(seq), start
    return streams


def _radical_inverse(index: int, base: int) -> float:
    """index's base-``base`` digits mirrored about the point, one at a time."""
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


@pytest.fixture(scope="session")
def loop_halton():
    """loop_halton(box, n, start, excluded, tries): the per-point loop that
    ``verify.halton_points`` and the rows' block sampler replaced, written
    apart from them: n Halton points of the box from index ``start`` on,
    one ``excluded`` call per draw (None skips nothing), and a ConfigError
    after ``tries`` draws."""
    def points(box, n, start, excluded=None, tries=100000):
        lo, hi = Point3(*box[0]), Point3(*box[1])
        pts, idx = [], start
        while len(pts) < n:
            if idx - start >= tries:
                raise ConfigError("budget")
            p = Point3(lo.x + (hi.x - lo.x) * _radical_inverse(idx, 2),
                       lo.y + (hi.y - lo.y) * _radical_inverse(idx, 3),
                       lo.z + (hi.z - lo.z) * _radical_inverse(idx, 5))
            idx += 1
            if excluded is None or not excluded(p):
                pts.append(p)
        return pts
    return points
