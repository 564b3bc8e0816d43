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
# of the others did not move by a bit.  The operators and euler_picard
# digests were recorded when B's rows and the operators suite's random
# cubics came to be contracted by einsum instead of BLAS (so that no row
# depends on the BLAS thread count; six rows moved in their last bits), the
# symmetry digest when transport_vs_pushforward took points on the conical
# groups' axes (259 samples; 5.6e-17 became 1.1e-16), the oned digest when
# integration_vs_analytic took its non-autonomous case at RK4 step 1e-3
# (3.719e-15 at step 1e-4 became 3.664e-15) and
# rk4_observed_order joined it, the riccati digest when fixed Gauss-Legendre
# became operator A's only line rule (rows that integrated with adaptive Simpson moved), the algebra
# digest when the algebra laws moved onto (4, N) batches of the same
# samples (numpy's complex loops round those rows differently in their
# last bits), the others before operator A's rounds were merged into one
# F.batch call each.  Like the export digests in
# test_cli.py they hold for one numpy build and its SIMD dispatch
# (``np.show_runtime()``), and a digest is re-recorded only on purpose, with
# a CHANGES.md entry.
_REPORT_DIGESTS = {
    "algebra": "a86c207f6f0956f31616a74aae5bb3496d9d0c4c21b89a526f6c7d80b1b9bfc9",
    "operators": "5d7af8431170ab7ec8cd75c6c92080c5ff183d51ba34e41d3fadc6e64a21f0d6",
    "riccati": "195bf890ffa2050b7228de3f39a22db3fb2e84a4d282369857f399ffede4c491",
    "euler_picard": "9b9aab1bb0e57618f253b497c4774cbb4a01134d513a1188b9890afed5985272",
    "symmetry": "7a31102ceb4b457f88184668e65da62045938f0f7092e416641e843b417d6c22",
    "solutions": "40fc308079971d957082d887405b901a3f2e041b0a5548a4aa33e65b9a2aa197",
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
