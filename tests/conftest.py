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


@pytest.fixture(scope="session")
def verify_all(tmp_path_factory):
    """``riccati3d verify --suite all`` at the default configuration (seed 0),
    run once per session through the CLI; every acceptance verdict reads it."""
    path = tmp_path_factory.mktemp("verify") / "all.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "all", "--report", str(path)])
    return VerifyRun(code, out.getvalue(), json.loads(path.read_text()))
