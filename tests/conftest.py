"""Session fixtures shared by the test modules."""

import contextlib
import io
import json
from typing import NamedTuple

import pytest

from riccati3d.cli import main


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
