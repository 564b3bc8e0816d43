"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every verdict reads the session's one ``verify --suite all`` run (the
``verify_all`` fixture: default configuration, seed 0): criteria 1-8 select
rows of its report and hold them to a time budget, criterion 9 adds the CLI
contracts, and ``test_registry_check`` gives each registry check a test.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riccati3d
from riccati3d.cli import main
from riccati3d.report import RunConfig
from riccati3d.verify import SUITES, _SUITE_FN

# (n, title, suite, check names or None for the whole suite, budget in
# seconds); the budget bounds the summed ``seconds`` of the selected rows
CRITERIA = [
    (1, "algebra suite", "algebra", None, 1.0),
    (2, "operator suite", "operators", None, 30.0),
    (3, "solutions suite", "solutions", None, 5.0),
    (4, "Cole-Hopf transforms", "riccati",
     ("cole_hopf_matches_catalog", "inverse_cole_hopf_matches_psi",
      "transform_roundtrip_Q"), 10.0),
    (5, "operator factorization", "riccati",
     ("factorization_on_solutions", "factorization_nonsolution_detection",
      "prop1_closed_form_chain", "w_equation_example",
      "prop2_scalar_and_riccati_parts"), 5.0),
    (6, "Euler/Picard suite", "euler_picard", None, 60.0),
    (7, "symmetry suite", "symmetry", None, 20.0),
    (8, "1-D oracle suite", "oned", None, 2.0),
]

# every check of the registry, named as the "all" report names it
REGISTRY = [f"{suite}/{name}" for suite in SUITES
            for name, _, _ in _SUITE_FN[suite](RunConfig())]


def _verdict(n, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} ({title}): {status}{'  ' + detail if detail else ''}")
    assert ok, f"criterion {n} ({title}) failed: {detail}"


def _rows(verify_all):
    return {c["name"]: c for c in verify_all.report["checks"]}


@pytest.mark.parametrize("n, title, suite, names, budget", CRITERIA,
                         ids=[str(row[0]) for row in CRITERIA])
def test_criterion(verify_all, n, title, suite, names, budget):
    rows = [c for c in verify_all.report["checks"]
            if c["name"].startswith(suite + "/")
            and (names is None or c["name"].split("/", 1)[1] in names)]
    assert rows and (names is None or len(rows) == len(names)), \
        f"criterion {n} names checks missing from the report"
    failed = [c for c in rows if not c["passed"]]
    label = ", ".join(f"{c['name']}={c['max_abs_residual']:.2e}" for c in failed)
    seconds = sum(c["seconds"] for c in rows)
    ok = not failed and seconds < budget
    _verdict(n, title, ok,
             f"{label or f'{len(rows)} checks'}; {seconds:.2f}s < {budget:g}s")


def test_criterion_9_cli_contracts(verify_all, tmp_path, capsys):
    ok = (verify_all.code == 0 and verify_all.report["overall_pass"]
          and verify_all.table.rstrip().endswith("overall: PASS"))

    # eval determinism: identical bytes across two runs with the same seed
    args = ["eval", "--solution", "rotational", "--k", "1", "--c", "0",
            "--grid", "1.5,3,11,0,1,11,0,1,11", "--fields", "Q,q,residuals",
            "--seed", "0"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    exported = [main(args + ["--out", str(out)]) for out in (out1, out2)] == [0, 0]
    capsys.readouterr()
    rows = out1.read_text().splitlines() if exported else []
    ok = ok and exported and len(rows) == 1331 + 1
    ok = ok and out1.read_bytes() == out2.read_bytes()
    _verdict(9, "CLI contracts", ok,
             f"verify-all exit {verify_all.code}; {len(rows) - 1} rows byte-stable")


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_check(verify_all, name):
    row = _rows(verify_all).get(name)
    assert row is not None, f"{name} is missing from the report"
    # a "_detection" check passes when its residual exceeds the tolerance
    sense = ">=" if name.endswith("_detection") else "<="
    assert row["passed"], (f"{name}: residual {row['max_abs_residual']:.3e} "
                           f"is not {sense} tolerance {row['tolerance']:.1e}")


def test_report_checks_are_the_registry(verify_all):
    # the report carries each registry check once; the pinned count makes
    # dropping a check from the registry fail here, not just lose a test id
    assert [c["name"] for c in verify_all.report["checks"]] == sorted(REGISTRY)
    assert len(set(REGISTRY)) == len(REGISTRY) == 69


def test_no_field_of_the_suite_is_evaluated_point_by_point(verify_all):
    # every batch is one evaluator call; the pointwise integrands of the two
    # operator A checks took the per-point fallback 29 times (2410 points)
    assert verify_all.fallback == []


# sha256 per suite over its rows of the seed-0 report (name, repr of the
# residual, samples, passed), so re-recording one suite shows that the rows
# of the others did not move by a bit.  Every digest but oned's, whose rows
# draw nothing, was re-recorded when each row came to draw its random
# numbers and Halton points from streams of its own, derived from the seed
# and the row's name (every sampled row moved; the rows with fixed points
# did not).  Like the export digests in test_cli.py they hold for one numpy
# build and its SIMD dispatch (``np.show_runtime()``), and a digest is
# re-recorded only on purpose, with a CHANGES.md entry.
_REPORT_DIGESTS = {
    "algebra": "dca46e246a802260daf9bf6d711c259fb131aa2a67335bcf8c470590c3483c47",
    "operators": "56501f8276eb585ec3dce8880699fe7266aaa8ce8d7027ccff2eb0f6395b5cf4",
    "riccati": "a71e90182eea3380005b161f917bd4b7a1ea67d3225f2eab05b67103215565ee",
    "euler_picard": "4c7c251538d86d99b2297b86e083d034edf07725ed591830238c6828c5e909b2",
    "symmetry": "304f2b6e424b64469c5debe9eb2d8bea5092d4d163fd10d4bfdcde4dfcf750c9",
    "solutions": "d818753f9f58c7d9e6f876bd74c800822c33e438f88f088b78c86754850c5ae3",
    "oned": "8a0fb694ea020be1f4e02d90e1b92eb111204d4985753058108e8037b2e4e2c5",
}


@pytest.mark.parametrize("suite", SUITES)
def test_seed0_report_rows_unchanged(verify_all, suite):
    digest = hashlib.sha256()
    for c in verify_all.report["checks"]:
        if c["name"].startswith(suite + "/"):
            digest.update(f"{c['name']}|{c['max_abs_residual']!r}|{c['samples']}|"
                          f"{c['passed']}\n".encode())
    assert digest.hexdigest() == _REPORT_DIGESTS[suite]


_THREADS_SCRIPT = """
import json, sys
from riccati3d.report import RunConfig
from riccati3d.verify import run_suite
report = run_suite("operators", RunConfig(seed=int(sys.argv[1])))
print(json.dumps([[c.name, repr(c.max_abs_residual), c.samples, c.passed]
                  for c in report.checks]))
"""


@pytest.mark.parametrize("seed", [0, 1])
def test_operators_rows_do_not_depend_on_the_blas_thread_count(seed):
    # B's contraction and the random cubics once went through BLAS, whose
    # summation order follows its thread count; each child process sets it
    # for itself only, through OPENBLAS_NUM_THREADS
    rows = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(riccati3d.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT, str(seed)], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        rows.append(json.loads(done.stdout))
    assert len(rows[0]) == 7
    assert rows[0] == rows[1]


def _untimed(results) -> list:
    """Each result as everything it reports but its time, by name."""
    return sorted((c.name, repr(c.max_abs_residual), c.tolerance, c.samples, c.passed)
                  for c in results)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("seed", [0, 1])
def test_rows_do_not_depend_on_registry_order_or_on_other_rows(seed, suite):
    # each row draws its own streams from (seed, suite, name), so its bits do
    # not move when the registry runs reversed or shuffled, or the row runs
    # alone; every case builds a fresh registry, and each row run alone a
    # registry of its own, so no shared build carries over
    from riccati3d.verify import _run_checks
    config = RunConfig(seed=seed)

    def registry():
        return _SUITE_FN[suite](config)

    expect = _untimed(_run_checks(registry(), config, suite))
    order = np.random.default_rng(seed).permutation(len(registry()))
    cases = {
        "reversed": _run_checks(registry()[::-1], config, suite),
        "shuffled": _run_checks([registry()[i] for i in order], config, suite),
        "alone": [_run_checks([registry()[i]], config, suite)[0]
                  for i in range(len(registry()))],
    }
    for case, results in cases.items():
        assert _untimed(results) == expect, case
