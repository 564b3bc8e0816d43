"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every verdict reads the session's one ``verify --suite all`` run (the
``verify_all`` fixture: default configuration, seed 0): criteria 1-8 select
rows of its report and hold them to a time budget, criterion 9 adds the CLI
contracts, and ``test_registry_check`` gives each registry check a test.
"""

import pytest

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
    assert len(set(REGISTRY)) == len(REGISTRY) == 68
